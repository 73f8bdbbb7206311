"""Monte Carlo verification, payout simulation, effort, and oracle checks.

This module closes the loop between the closed-form screening solution and
its sampled counterpart, and provides two independent oracles used by the
acceptance suite:

* ``mc_run`` samples types through the deterministic Philox stream, pushes
  them through the solved cap schedule, and reports sample-based cutoff and
  interior-probability estimates plus binned means of the cap against type.
* ``simulate_payout`` applies the two-instrument payout convention: a
  payout is released only for positive audited gaps and equals the minimum
  of the signal rule's payout, the reported type's cap, and the gap itself.
* ``solve_effort`` solves the recipient's effort condition

      R_e(e, theta) * (1 + phi_d * Lambda(e)) = phi_e,

  for threshold-shaped rules (slope zero almost everywhere), where
  Lambda(e) = E[f_eta(G_hat - beta(G_hat))] is the expected noise density
  at the post-rescue residual gap.  With Gaussian audit noise the
  expectation has an exact Gaussian-product form per rule branch, which
  this module uses directly: node-based quadrature cannot meet the stated
  residual tolerance across the rule's jump.  With phi_d = 0 the condition
  collapses to the closed form e* = rho(theta)/phi_e - 1.
* ``capmin_oracle`` certifies the cap-minimum calculus d/db E[min(X, b)] =
  P(X >= b) and d/db E[min(X, b)^2] = 2 b P(X >= b) by central differences
  against exact tail probabilities.
* ``welfare_bruteforce`` enumerates every monotone step cap schedule on a
  small discrete type space and compares the best achievable
  (hazard-weighted) virtual cost against the pointwise optimality
  condition evaluated on the same instance.  The virtual cost per type is
  C(b) - psi*b: the resource cost net of the screening value of cap
  relaxation, the quantity whose pointwise minimizer is the solver's
  optimality condition.  (The raw resource cost alone is trivially
  minimized by the all-zero schedule; the screening term is what makes
  positive caps optimal.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .costs import RescueCost
from .discretion import THRESHOLD, SignalRule, interior_probability
from .distributions import SAMPLE_BLOCK, TypeDistribution, sample_types
from .errors import NumericalError, ParameterError, UnsupportedRuleError
from .mechanism import (
    DEFAULT_GRID_SIZE,
    DEFAULT_TAIL_MASS,
    CapSchedule,
    VirtualWeightCurve,
    _psi_on,
    caps_from_targets,
    check_curve,
    solve_cap,
    virtual_weight,
)
from .primitives import PolicyPrimitives

__all__ = [
    "MCReport",
    "PayoutResult",
    "RevenueModel",
    "EffortSolution",
    "CapMinReport",
    "BruteForceReport",
    "mc_run",
    "simulate_payout",
    "gap_density_at_rule",
    "solve_effort",
    "capmin_oracle",
    "welfare_bruteforce",
]


# ---------------------------------------------------------------------------
# Monte Carlo verification of the cap schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCReport:
    """Sampled verification of a solved cap schedule.

    ``schedule`` is the cap schedule the samples were checked against.
    """

    n: int
    seed: int
    bins: int
    lambda_T: float
    regime: str
    theta_min_hat: Optional[float]
    theta_dagger_hat: Optional[float]
    p_int_hat: float
    bin_edges: np.ndarray
    bin_means: np.ndarray
    bin_counts: np.ndarray
    bin_stderr: np.ndarray
    theta_min: Optional[float]
    theta_dagger: Optional[float]
    p_int: float
    schedule: CapSchedule = field(repr=False)


def mc_run(
    dist: TypeDistribution,
    prim: PolicyPrimitives,
    cost: RescueCost,
    lambda_T: float,
    n: int,
    seed: int,
    bins: int = 30,
    grid_size: int = DEFAULT_GRID_SIZE,
    tail_mass: float = DEFAULT_TAIL_MASS,
    curve: Optional[VirtualWeightCurve] = None,
) -> MCReport:
    """Sample types, evaluate the optimal cap at each, and summarize.

    The types are drawn in fixed Philox blocks (``sample_types``), so
    identical (seed, n) pairs are bit-identical.  The bin edges span the
    sampled range, ``np.linspace(min, max, bins + 1)``.  One loop then
    walks the sample in ``SAMPLE_BLOCK`` slices; for each slice it
    evaluates the virtual weight (exactly at the types, or interpolated on
    the ironed curve when something pooled), the caps, and folds the slice
    into running totals:

    * the cutoff estimates, which are sample boundaries: the smallest type
      with a positive cap and the smallest whose cap sits at b_bar;
    * the number of interior types (cap strictly between 0 and b_bar);
    * per bin, the count and the sums of the caps' deviations from a
      shift, and of their squares.  Each type takes one bin,
      edges[i] <= theta < edges[i + 1] with the last bin closed.  The
      shift of a bin is one of its caps, fixed when the bin first fills,
      so the variance does not cancel, and a bin whose caps are all equal
      gets its cap as mean and a standard error of exactly zero.

    No array of the sample's size other than the types themselves is
    held.  A caller that already holds the virtual-weight curve for these
    inputs passes it as ``curve`` (vetted by ``check_curve``) instead of
    having it rebuilt.
    """
    if n < 1000:
        raise ParameterError("mc_run needs n >= 1000 for cutoff estimation")
    if bins < 2:
        raise ParameterError("mc_run needs at least 2 bins")
    if curve is None:
        curve = virtual_weight(dist, prim, lambda_T, grid_size, tail_mass)
    else:
        check_curve(curve, dist, prim, lambda_T, grid_size, tail_mass)
    sched = solve_cap(curve, cost, prim.b_bar)
    theta_s = sample_types(dist, n, seed)
    pooled = bool(np.any(curve.ironed))
    edges = np.linspace(float(np.min(theta_s)), float(np.max(theta_s)), bins + 1)

    theta_min_hat = theta_dagger_hat = math.inf
    interior = 0
    counts = np.zeros(bins, dtype=np.intp)
    shift = np.zeros(bins)
    dev_sum = np.zeros(bins)
    dev_sq = np.zeros(bins)
    for start in range(0, theta_s.size, SAMPLE_BLOCK):
        theta = theta_s[start : start + SAMPLE_BLOCK]
        if pooled:
            psi = curve.psi_bar_at(theta)
        else:  # no pooling: evaluate the virtual weight exactly at the samples
            psi = _psi_on(dist, prim, curve.lambda_T, theta)
        b = caps_from_targets(psi, cost, prim.b_bar)
        positive = b > 0.0
        at_cap = b >= prim.b_bar
        # only types below an estimate can lower it, and after the first block few are
        lower = positive & (theta < theta_min_hat)
        if bool(np.any(lower)):
            theta_min_hat = float(np.min(theta[lower]))
        lower = at_cap & (theta < theta_dagger_hat)
        if bool(np.any(lower)):
            theta_dagger_hat = float(np.min(theta[lower]))
        interior += int(np.count_nonzero(positive & ~at_cap))

        idx = _bin_index(theta, edges)
        block_counts = np.bincount(idx, minlength=bins)
        first = (block_counts > 0) & (counts == 0)
        if bool(np.any(first)):
            sample = np.empty(bins)
            sample[idx] = b
            shift[first] = sample[first]
        counts += block_counts
        dev = b - shift[idx]
        dev_sum += np.bincount(idx, weights=dev, minlength=bins)
        dev *= dev
        dev_sq += np.bincount(idx, weights=dev, minlength=bins)

    filled = np.maximum(counts, 1)
    means = np.where(counts > 0, shift + dev_sum / filled, np.nan)
    var = (dev_sq - dev_sum * dev_sum / filled) / np.maximum(counts - 1, 1)
    stderr = np.where(counts > 1, np.sqrt(np.maximum(var, 0.0) / filled), np.nan)

    return MCReport(
        n=int(n),
        seed=int(seed),
        bins=int(bins),
        lambda_T=curve.lambda_T,
        regime=sched.regime,
        theta_min_hat=None if theta_min_hat == math.inf else theta_min_hat,
        theta_dagger_hat=None if theta_dagger_hat == math.inf else theta_dagger_hat,
        p_int_hat=interior / int(n),
        bin_edges=edges,
        bin_means=means,
        bin_counts=counts,
        bin_stderr=stderr,
        theta_min=sched.theta_min,
        theta_dagger=sched.theta_dagger,
        p_int=interior_probability(sched, dist),
        schedule=sched,
    )


def _bin_index(theta: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of each type: edges[i] <= theta < edges[i + 1], the last bin closed.

    numpy's equal-width rule: a scaled index, then moved one bin down or up
    where rounding put a type on the wrong side of an edge.  When every
    edge coincides (a point mass) all types land in the last bin, as they
    do in ``np.histogram`` with those edges.
    """
    bins = edges.size - 1
    lo, hi = float(edges[0]), float(edges[-1])
    if not hi > lo:
        return np.full(theta.size, bins - 1, dtype=np.intp)
    idx = ((theta - lo) / (hi - lo) * bins).astype(np.intp)
    np.minimum(idx, bins - 1, out=idx)
    upper = edges[1:].copy()
    upper[-1] = math.inf  # the last bin includes the top edge
    idx -= theta < edges[idx]
    idx += theta >= upper[idx]
    return idx


# ---------------------------------------------------------------------------
# payout simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PayoutResult:
    """One simulated rescue event."""

    g_hat: Union[float, np.ndarray]
    payout: Union[float, np.ndarray]
    defaulted: Union[bool, np.ndarray]
    report: Optional[float] = None


def simulate_payout(
    gap,
    report: Optional[float],
    rule: SignalRule,
    cap,
    noise,
) -> PayoutResult:
    """Realized payout min{rule(G_hat), cap, G_hat} for positive signals.

    ``gap`` is the true fiscal gap, ``noise`` the audit disturbance, and
    ``cap`` the cap assigned to the submitted report.  Default occurs when
    the payout leaves part of a positive gap uncovered.
    """
    gap_arr = np.asarray(gap, dtype=float)
    noise_arr = np.asarray(noise, dtype=float)
    cap_arr = np.asarray(cap, dtype=float)
    if np.any(cap_arr < 0.0):
        raise ParameterError("cap must be nonnegative")
    g_hat = gap_arr + noise_arr
    rule_pay = np.asarray(rule.payout(g_hat), dtype=float)
    pay = np.where(g_hat > 0.0, np.minimum(np.minimum(rule_pay, cap_arr), g_hat), 0.0)
    pay = np.maximum(pay, 0.0)
    defaulted = pay < gap_arr
    if np.ndim(gap) == 0 and np.ndim(noise) == 0 and np.ndim(cap) == 0:
        return PayoutResult(float(g_hat), float(pay), bool(defaulted), report)
    return PayoutResult(g_hat, pay, defaulted, report)


# ---------------------------------------------------------------------------
# effort condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RevenueModel:
    """Concave revenue fixture R(e, theta) = rho0 * ln(1+e) / (1+theta).

    Needier types (larger theta) raise revenue less effectively; the
    marginal product rho(theta)/(1+e) falls in both arguments.  ``base_gap``
    is the pre-revenue fiscal gap, so G(e) = base_gap - R(e, theta).
    """

    rho0: float = 2.0
    base_gap: float = 1.0

    def __post_init__(self):
        if not (self.rho0 > 0.0 and math.isfinite(self.rho0)):
            raise ParameterError("rho0 must be positive and finite")
        if not math.isfinite(self.base_gap):
            raise ParameterError("base_gap must be finite")

    def rho(self, theta: float) -> float:
        return self.rho0 / (1.0 + theta)

    def revenue(self, effort: float, theta: float) -> float:
        return self.rho(theta) * math.log1p(effort)

    def marginal_revenue(self, effort: float, theta: float) -> float:
        return self.rho(theta) / (1.0 + effort)

    def gap(self, effort: float, theta: float) -> float:
        return self.base_gap - self.revenue(effort, theta)


@dataclass(frozen=True)
class EffortSolution:
    """Solved effort condition for one type."""

    theta: float
    effort: float
    residual: float
    corner: bool
    iterations: int
    bracket: Tuple[float, float]
    lambda_density: float
    revenue: RevenueModel
    converged: bool


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _norm_pdf(x: float, sd: float) -> float:
    return math.exp(-0.5 * (x / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


def gap_density_at_rule(gap: float, rule: SignalRule, noise_scale: float) -> float:
    """E_eta[ f_eta(G_hat - rule(G_hat)) ] for Gaussian audit noise.

    The observed signal is G_hat = gap + eta with eta ~ N(0, noise_scale^2).
    On each branch of a threshold rule the integrand is a product of two
    Gaussians, so per branch

        integral = pdf(gap - level; sqrt(2)*scale) * Gaussian mass of the
                   branch around (gap + level)/2,

    which this function assembles exactly.  Only threshold-shaped rules are
    supported: the expectation is continuous in the gap here, which the
    effort solver's tolerance contract requires.
    """
    if rule.shape != THRESHOLD:
        raise UnsupportedRuleError("gap-density expectation implemented for threshold rules only")
    if not (noise_scale > 0.0 and math.isfinite(noise_scale)):
        raise ParameterError("noise scale must be positive and finite")
    s = noise_scale

    def branch(a: float, b: float, level: float) -> float:
        center = 0.5 * (gap + level)
        z_hi = math.inf if math.isinf(b) else (b - center) * math.sqrt(2.0) / s
        z_lo = -math.inf if math.isinf(a) else (a - center) * math.sqrt(2.0) / s
        mass = (1.0 if math.isinf(z_hi) else _norm_cdf(z_hi)) - (0.0 if math.isinf(z_lo) else _norm_cdf(z_lo))
        return _norm_pdf(gap - level, math.sqrt(2.0) * s) * mass

    t = rule.threshold
    return branch(-math.inf, t, 0.0) + branch(t, math.inf, rule.level)


_EFFORT_DAMPING = 0.5  # weight of the fixed-point map in each effort update


def solve_effort(
    theta: float,
    prim: PolicyPrimitives,
    rule: SignalRule,
    revenue: RevenueModel = RevenueModel(),
    tol: float = 1e-8,
    max_iter: int = 200,
    report_cap: Optional[float] = None,
) -> EffortSolution:
    """Solve R_e(e, theta) * (1 + phi_d * Lambda(e)) = phi_e for effort.

    A fixed point on e, damped by ``_EFFORT_DAMPING``, with a bisection
    safeguard inside a bracket [0, e_hi], where e_hi comes from bounding
    Lambda by the noise-density peak.  ``report_cap`` is the cap implied by the submitted report; on
    the threshold branch (slope-zero rules) the optimality condition does
    not involve it, so the solved effort is report-invariant by
    construction.  Returns a corner solution at e = 0 when even the first
    unit of effort does not pay.
    """
    if not (theta >= 0.0 and math.isfinite(theta)):
        raise ParameterError("theta must be nonnegative and finite")
    if rule.shape != THRESHOLD:
        raise UnsupportedRuleError(
            "effort condition implemented for threshold rules; discretionary shapes are not supported"
        )
    if report_cap is not None and report_cap < 0.0:
        raise ParameterError("report_cap must be nonnegative")
    rho = revenue.rho(theta)
    phi_e, phi_d, scale = prim.phi_e, prim.phi_d, prim.eta_scale

    def lam_at(e: float) -> float:
        return gap_density_at_rule(revenue.gap(e, theta), rule, scale)

    def foc(e: float) -> tuple[float, float]:
        lam = lam_at(e)
        return revenue.marginal_revenue(e, theta) * (1.0 + phi_d * lam) - phi_e, lam

    g0, lam0 = foc(0.0)
    if g0 <= 0.0:
        return EffortSolution(
            theta=theta, effort=0.0, residual=g0, corner=True, iterations=0,
            bracket=(0.0, 0.0), lambda_density=lam0, revenue=revenue, converged=True,
        )
    lam_peak = 1.0 / (scale * math.sqrt(2.0 * math.pi))
    e_hi = rho * (1.0 + phi_d * lam_peak) / phi_e - 1.0
    e_hi = max(e_hi, 1e-6)
    g_hi, _ = foc(e_hi)
    widen = 0
    while g_hi > 0.0 and widen < 60:  # paranoid: the peak bound already caps the root
        e_hi *= 2.0
        g_hi, _ = foc(e_hi)
        widen += 1
    bracket = (0.0, e_hi)
    lo, hi = 0.0, e_hi

    e = min(max(rho / phi_e - 1.0, 0.0), e_hi)  # closed-form seed (exact when phi_d = 0)
    g, lam = foc(e)
    iterations = 0
    while abs(g) > tol and iterations < max_iter:
        iterations += 1
        if g > 0.0:
            lo = e
        else:
            hi = e
        proposal = (1.0 - _EFFORT_DAMPING) * e + _EFFORT_DAMPING * (rho * (1.0 + phi_d * lam) / phi_e - 1.0)
        if not (lo < proposal < hi):
            proposal = 0.5 * (lo + hi)
        e = proposal
        g, lam = foc(e)
    if abs(g) > tol:
        raise NumericalError(f"effort condition residual {g:.3e} above tolerance after {iterations} iterations")
    return EffortSolution(
        theta=theta, effort=e, residual=g, corner=False, iterations=iterations,
        bracket=bracket, lambda_density=lam, revenue=revenue, converged=True,
    )


# ---------------------------------------------------------------------------
# cap-minimum calculus oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapMinReport:
    """Central-difference check of the cap-minimum derivative identities."""

    b_values: np.ndarray
    fd_first: np.ndarray
    exact_first: np.ndarray
    fd_second: np.ndarray
    exact_second: np.ndarray
    one_sided: np.ndarray
    max_dev_first: float
    max_dev_second: float
    tolerance: float
    passed: bool


def _moments_continuous(dist: TypeDistribution, b: float, quad_points: int) -> tuple[float, float]:
    # E[min(X,b)] = int_0^b S(t) dt and E[min(X,b)^2] = int_0^b 2 t S(t) dt
    # for X >= 0; the grid stretches with b so both are smooth in b.
    t = np.linspace(0.0, b, quad_points)
    surv = np.asarray(dist.survivor(t), dtype=float)
    return float(np.trapezoid(surv, t)), float(np.trapezoid(2.0 * t * surv, t))


def _moments_discrete(values: np.ndarray, probs: np.ndarray, b: float) -> tuple[float, float]:
    capped = np.minimum(values, b)
    return float(np.sum(probs * capped)), float(np.sum(probs * capped**2))


def capmin_oracle(
    payout_dist: Union[TypeDistribution, Tuple[Sequence[float], Sequence[float]]],
    b_values: Sequence[float],
    step: float = 1e-5,
    tolerance: float = 5e-5,
    quad_points: int = 4001,
) -> CapMinReport:
    """Verify d/db E[min(X,b)] = P(X >= b) and d/db E[min(X,b)^2] = 2b P(X >= b).

    ``payout_dist`` is either a nonnegative continuous distribution or a
    pair (values, probabilities) of atoms.  Central differences run at
    ``step``; points that coincide with an atom (or b = 0) switch to the
    matching one-sided difference and are flagged.
    """
    b_arr = np.asarray(b_values, dtype=float)
    if b_arr.ndim != 1 or b_arr.size == 0 or np.any(b_arr < 0.0):
        raise ParameterError("b_values must be a nonempty 1-d array of nonnegative caps")
    if not (0.0 < step < 1e-2):
        raise ParameterError("step must lie in (0, 0.01)")

    discrete = isinstance(payout_dist, tuple)
    if discrete:
        values = np.asarray(payout_dist[0], dtype=float)
        probs = np.asarray(payout_dist[1], dtype=float)
        if values.shape != probs.shape or values.ndim != 1:
            raise ParameterError("discrete payout distribution needs matching value/probability arrays")
        if np.any(values < 0.0) or np.any(probs < 0.0) or abs(float(np.sum(probs)) - 1.0) > 1e-9:
            raise ParameterError("discrete payout probabilities must be nonnegative and sum to one")

        def moments(b: float) -> tuple[float, float]:
            return _moments_discrete(values, probs, b)

        def tail(b: float) -> float:
            return float(np.sum(probs[values >= b]))

        def on_atom(b: float) -> bool:
            return bool(np.any(np.abs(values - b) <= step))

    else:
        if payout_dist.support[0] < 0.0:
            raise ParameterError("payout distribution must be nonnegative")

        def moments(b: float) -> tuple[float, float]:
            return _moments_continuous(payout_dist, b, quad_points)

        def tail(b: float) -> float:
            return float(payout_dist.survivor(b))

        def on_atom(b: float) -> bool:
            return False

    fd1 = np.empty_like(b_arr)
    fd2 = np.empty_like(b_arr)
    ex1 = np.empty_like(b_arr)
    ex2 = np.empty_like(b_arr)
    flagged = np.zeros(b_arr.shape, dtype=bool)
    for i, b in enumerate(b_arr):
        ex1[i] = tail(b)
        ex2[i] = 2.0 * b * tail(b)
        if b < step:  # forward difference at the origin
            m0, q0 = moments(b)
            m1, q1 = moments(b + step)
            fd1[i], fd2[i] = (m1 - m0) / step, (q1 - q0) / step
            flagged[i] = True
        elif on_atom(b):  # backward difference matches the inclusive tail
            m0, q0 = moments(b - step)
            m1, q1 = moments(b)
            fd1[i], fd2[i] = (m1 - m0) / step, (q1 - q0) / step
            flagged[i] = True
        else:
            m_lo, q_lo = moments(b - step)
            m_hi, q_hi = moments(b + step)
            fd1[i], fd2[i] = (m_hi - m_lo) / (2 * step), (q_hi - q_lo) / (2 * step)
    clean = ~flagged
    dev1 = float(np.max(np.abs(fd1[clean] - ex1[clean]))) if bool(np.any(clean)) else 0.0
    dev2 = float(np.max(np.abs(fd2[clean] - ex2[clean]))) if bool(np.any(clean)) else 0.0
    return CapMinReport(
        b_values=b_arr,
        fd_first=fd1,
        exact_first=ex1,
        fd_second=fd2,
        exact_second=ex2,
        one_sided=flagged,
        max_dev_first=dev1,
        max_dev_second=dev2,
        tolerance=tolerance,
        passed=bool(dev1 <= tolerance and dev2 <= tolerance),
    )


# ---------------------------------------------------------------------------
# brute-force second-best oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteForceReport:
    """Exhaustive monotone-schedule search on a discrete type instance."""

    types: np.ndarray
    weights: np.ndarray
    psi: np.ndarray
    kkt_caps: np.ndarray
    kkt_cost: float
    best_caps: np.ndarray
    best_cost: float
    gap_bound: float
    n_schedules: int
    transfers: np.ndarray
    ic_ok: bool
    ir_ok: bool
    passed: bool


def _discrete_transfers(caps: np.ndarray, prim: PolicyPrimitives) -> np.ndarray:
    # discrete analogue of dT = -(omega_b/omega_T) db anchored at the first
    # rescued type, projected onto T >= 0
    omega_b = float(prim.omega_b)
    t_pre = np.concatenate([[0.0], np.cumsum(-(omega_b / prim.omega_T) * np.diff(caps))])
    positive = caps > 0.0
    if bool(np.any(positive)):
        t_pre = t_pre - t_pre[int(np.argmax(positive))]
    return np.maximum(t_pre, 0.0)


def welfare_bruteforce(
    types: Sequence[float],
    weights: Sequence[float],
    prim: PolicyPrimitives,
    cost: RescueCost,
    lambda_T: Optional[float] = None,
    levels: int = 21,
) -> BruteForceReport:
    """Enumerate monotone step cap schedules and compare with the KKT solution.

    The instance is a discrete type space with hazard w_i / P(type >= theta_i);
    the objective is the hazard-weighted virtual cost

        sum_i w_i * [ C(b_i) - psi_i * b_i ],

    whose unconstrained pointwise minimizer is exactly the solver's
    optimality condition C'(b) = psi projected onto [0, b_bar].  The search
    walks every nondecreasing schedule on a uniform level grid, checks the
    discrete incentive inequalities (the allocation index lambda_T*T +
    omega_b*b must be nondecreasing) and nonnegativity, and reports the gap
    to the KKT benchmark together with the discretization bound
    (curvature/2) * spacing^2.
    """
    th = np.asarray(types, dtype=float)
    w = np.asarray(weights, dtype=float)
    if th.ndim != 1 or th.size < 1 or th.shape != w.shape:
        raise ParameterError("types and weights must be matching 1-d arrays")
    if th.size > 6:
        raise ParameterError("brute-force oracle is limited to 6 types")
    if np.any(np.diff(th) <= 0.0):
        raise ParameterError("types must be strictly increasing")
    if np.any(w <= 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-9:
        raise ParameterError("weights must be positive and sum to one")
    if not (2 <= levels <= 21):
        raise ParameterError("levels must lie in [2, 21]")
    if not prim.omega_b_constant:
        raise ParameterError("brute-force oracle requires a constant omega_b")
    lam = prim.omega_T if lambda_T is None else float(lambda_T)
    if lam <= 0.0:
        raise ParameterError("lambda_T must be positive")

    survivor = np.cumsum(w[::-1])[::-1]  # P(type >= theta_i), inclusive
    hazard = w / survivor
    psi = prim.gamma * float(prim.omega_b) / lam * hazard

    inv = cost.inverse_marginal(psi)
    kkt_caps = np.clip(np.asarray(inv.payout, dtype=float), 0.0, prim.b_bar)
    kkt_cost = float(np.sum(w * (np.asarray(cost.value(kkt_caps)) - psi * kkt_caps)))

    grid = np.linspace(0.0, prim.b_bar, levels)
    # per-type, per-level contribution to the virtual cost
    table = w[:, None] * (np.asarray(cost.value(grid))[None, :] - psi[:, None] * grid[None, :])
    combos = np.array(
        list(itertools.combinations_with_replacement(range(levels), th.size)), dtype=np.intp
    )
    totals = table[np.arange(th.size)[None, :], combos].sum(axis=1)
    best_idx = int(np.argmin(totals))
    best_caps = grid[combos[best_idx]]
    best_cost = float(totals[best_idx])

    transfers = _discrete_transfers(best_caps, prim)
    index = lam * transfers + float(prim.omega_b) * best_caps
    ic_ok = bool(np.all(np.diff(index) >= -1e-12))
    ir_ok = bool(np.all(index >= -1e-12) and np.all(transfers >= 0.0))

    if hasattr(cost, "kappa"):
        curvature = cost.kappa
    else:
        slopes = np.diff(cost.marginal_nodes) / np.diff(cost.payout_nodes)
        curvature = float(np.max(slopes)) if slopes.size else 0.0
    spacing = prim.b_bar / (levels - 1)
    gap_bound = 0.5 * curvature * spacing**2
    passed = bool(
        ic_ok
        and ir_ok
        and best_cost >= kkt_cost - 1e-6
        and best_cost <= kkt_cost + 1e-6 + gap_bound
    )
    return BruteForceReport(
        types=th,
        weights=w,
        psi=psi,
        kkt_caps=kkt_caps,
        kkt_cost=kkt_cost,
        best_caps=best_caps,
        best_cost=best_cost,
        gap_bound=gap_bound,
        n_schedules=int(combos.shape[0]),
        transfers=transfers,
        ic_ok=ic_ok,
        ir_ok=ir_ok,
        passed=passed,
    )
