"""Monte Carlo verification and oracle checks.

This module closes the loop between the closed-form screening solution and
its sampled counterpart, and provides two independent oracles used by the
acceptance suite:

* ``mc_run`` samples types through the deterministic Philox stream, pushes
  them through a solved cap schedule (the only input besides the sample
  size, seed and bins), and reports sample-based cutoff and
  interior-probability estimates plus binned means of the cap against type;
  the closed-form values to compare them with are the schedule's.
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

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .costs import RescueCost
from .distributions import SAMPLE_BLOCK, PointMass, TypeDistribution, _cell_index, sample_types
from .errors import ParameterError
from .mechanism import CapSchedule, _psi_on, _weight, caps_from_targets
from .primitives import DEFAULT_BINS, MIN_SAMPLES, PolicyPrimitives

__all__ = ["MCReport", "CapMinReport", "BruteForceReport", "mc_run", "capmin_oracle", "welfare_bruteforce"]

CAPMIN_STEP = 1e-5  # difference step of the cap-minimum oracle
CAPMIN_TOLERANCE = 5e-5  # largest deviation it passes
CAPMIN_QUAD_POINTS = 4001  # trapezoid nodes of its continuous moments
BRUTEFORCE_LEVELS = 21  # cap levels of the brute-force search, 0 to b_bar


# ---------------------------------------------------------------------------
# Monte Carlo verification of the cap schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCReport:
    """Sampled verification of a solved cap schedule.

    ``schedule`` is the cap schedule the samples were checked against; its
    cutoffs, regime and lambda_T are the closed-form side of the check.
    """

    n: int
    seed: int
    bins: int
    theta_min_hat: Optional[float]
    theta_dagger_hat: Optional[float]
    p_int_hat: float
    bin_edges: np.ndarray
    bin_means: np.ndarray
    bin_counts: np.ndarray
    bin_stderr: np.ndarray
    schedule: CapSchedule = field(repr=False)


def mc_run(sched: CapSchedule, n: int, seed: int, bins: int = DEFAULT_BINS) -> MCReport:
    """Sample types, evaluate the optimal cap at each, and summarize.

    The caps follow the rule ``sched`` was solved with, its cost on its
    curve; nothing is solved again.  The types are drawn from the curve's
    distribution in fixed Philox blocks (``sample_types``), so identical
    (seed, n) pairs are bit-identical.  The bin edges span the
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

    Memory is the types plus a working set of a few blocks: sampling inverts
    block by block, no other array of the sample's size is held, and the
    caps are clipped and turned into their deviations in place.  The
    interpolated weight is ``np.interp``'s on the ironed curve, bit for bit.
    """
    if n < MIN_SAMPLES:
        raise ParameterError(f"mc_run needs n >= {MIN_SAMPLES} for cutoff estimation")
    if bins < 2:
        raise ParameterError("mc_run needs at least 2 bins")
    curve, cost = sched.curve, sched.cost
    dist, prim = curve.dist, curve.prim
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
        interior += int(np.count_nonzero(positive)) - int(np.count_nonzero(at_cap))  # b_bar > 0: at_cap is positive

        idx = _cell_index(theta, edges)
        block_counts = np.bincount(idx, minlength=bins)
        first = (block_counts > 0) & (counts == 0)
        if bool(np.any(first)):
            sample = np.empty(bins)
            sample[idx] = b
            shift[first] = sample[first]
        counts += block_counts
        b -= shift.take(idx)  # the caps' deviations, in place
        dev_sum += np.bincount(idx, weights=b, minlength=bins)
        b *= b
        dev_sq += np.bincount(idx, weights=b, minlength=bins)

    filled = np.maximum(counts, 1)
    means = np.where(counts > 0, shift + dev_sum / filled, np.nan)
    var = (dev_sq - dev_sum * dev_sum / filled) / np.maximum(counts - 1, 1)
    stderr = np.where(counts > 1, np.sqrt(np.maximum(var, 0.0) / filled), np.nan)

    return MCReport(
        n=int(n),
        seed=int(seed),
        bins=int(bins),
        theta_min_hat=None if theta_min_hat == math.inf else theta_min_hat,
        theta_dagger_hat=None if theta_dagger_hat == math.inf else theta_dagger_hat,
        p_int_hat=interior / int(n),
        bin_edges=edges,
        bin_means=means,
        bin_counts=counts,
        bin_stderr=stderr,
        schedule=sched,
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


def _moments_continuous(dist: TypeDistribution, b: float) -> tuple[float, float]:
    # E[min(X,b)] = int_0^b S(t) dt and E[min(X,b)^2] = int_0^b 2 t S(t) dt
    # for X >= 0.  S kinks at a support edge, so each stretch between edges
    # inside (0, b) has its own grid; only the last stretches with b.
    edges = [0.0, *(edge for edge in dist.support if 0.0 < edge < b), b]
    first = second = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = np.linspace(lo, hi, CAPMIN_QUAD_POINTS)
        surv = dist.survivor(t)
        first += float(np.trapezoid(surv, t))
        second += float(np.trapezoid(2.0 * t * surv, t))
    return first, second


def _moments_discrete(values: np.ndarray, probs: np.ndarray, b: float) -> tuple[float, float]:
    capped = np.minimum(values, b)
    return float(np.sum(probs * capped)), float(np.sum(probs * capped**2))


def capmin_oracle(
    payout_dist: Union[TypeDistribution, Tuple[Sequence[float], Sequence[float]]],
    b_values: Sequence[float],
) -> CapMinReport:
    """Verify d/db E[min(X,b)] = P(X >= b) and d/db E[min(X,b)^2] = 2b P(X >= b).

    ``payout_dist`` is either a nonnegative continuous distribution or a
    pair (values, probabilities) of finite atoms, the form a point mass
    takes.  Central differences run at ``CAPMIN_STEP`` and pass within
    ``CAPMIN_TOLERANCE``; points that coincide with an atom (or b = 0)
    switch to the matching one-sided difference and are flagged.
    """
    b_arr = np.asarray(b_values, dtype=float)
    if b_arr.ndim != 1 or b_arr.size == 0 or not np.all(np.isfinite(b_arr) & (b_arr >= 0.0)):
        raise ParameterError("b_values must be a nonempty 1-d array of finite nonnegative caps")
    step = CAPMIN_STEP

    discrete = isinstance(payout_dist, tuple)
    if discrete:
        values = np.asarray(payout_dist[0], dtype=float)
        probs = np.asarray(payout_dist[1], dtype=float)
        if values.shape != probs.shape or values.ndim != 1:
            raise ParameterError("discrete payout distribution needs matching value/probability arrays")
        if not np.all(np.isfinite(values) & (values >= 0.0) & (probs >= 0.0)) or abs(float(np.sum(probs)) - 1.0) > 1e-9:
            raise ParameterError("discrete payout atoms must be finite, probabilities sum to one, both nonnegative")
        moments = partial(_moments_discrete, values, probs)

        def tail(b: float) -> float:
            return float(np.sum(probs[values >= b]))

        def on_atom(b: float) -> bool:
            return bool(np.any(np.abs(values - b) <= step))

    else:
        if payout_dist.support[0] < 0.0 or isinstance(payout_dist, PointMass):  # quadrature misses an atom
            raise ParameterError("payout distribution must be nonnegative; pass a point mass as (values, probabilities)")
        moments = partial(_moments_continuous, payout_dist)

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
        ex2[i] = 2.0 * b * ex1[i]
        if b < step:  # forward difference at the origin
            lo, hi, width = b, b + step, step
        elif on_atom(b):  # backward difference matches the inclusive tail
            lo, hi, width = b - step, b, step
        else:
            lo, hi, width = b - step, b + step, 2 * step
        flagged[i] = width == step  # one-sided
        (m_lo, q_lo), (m_hi, q_hi) = moments(lo), moments(hi)
        fd1[i], fd2[i] = (m_hi - m_lo) / width, (q_hi - q_lo) / width
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
        tolerance=CAPMIN_TOLERANCE,
        passed=bool(dev1 <= CAPMIN_TOLERANCE and dev2 <= CAPMIN_TOLERANCE),
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


def _nondecreasing_totals(table: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """table[0][a] + table[1][b] + ..., added left to right, over every nondecreasing level tuple.

    Row r is row r of itertools.combinations_with_replacement(range(levels), n), built prefix by
    prefix: each row repeats once per admissible next level (levels - last) and adds the next
    type's costs at last, ..., levels - 1.  Also returns each extension's parents' first rows.
    """
    totals, last, starts = table[0].copy(), np.arange(table.shape[1], dtype=np.intp), []
    for costs in table[1:]:
        counts = table.shape[1] - last
        starts.append(np.cumsum(counts) - counts)
        last = np.repeat(last - starts[-1], counts) + np.arange(counts.sum())
        totals = np.repeat(totals, counts) + costs.take(last)
    return totals, starts


def _tuples_at(rows, starts: list[np.ndarray]) -> np.ndarray:
    """The level tuples of ``rows`` (an index or an array of them), one type per leading entry."""
    rises = []  # each level over its parent's, walked back through the group starts
    for first in reversed(starts):
        parent = np.searchsorted(first, rows, side="right") - 1
        rises, rows = [rows - first[parent], *rises], parent
    return np.cumsum([rows, *rises], axis=0)  # a 1-prefix's row is its level


def welfare_bruteforce(
    types: Sequence[float],
    weights: Sequence[float],
    prim: PolicyPrimitives,
    cost: RescueCost,
) -> BruteForceReport:
    """Enumerate monotone step cap schedules and compare with the KKT solution.

    The instance is a discrete type space with hazard w_i / P(type >= theta_i);
    the objective is the hazard-weighted virtual cost

        sum_i w_i * [ C(b_i) - psi_i * b_i ],

    whose unconstrained pointwise minimizer is exactly the solver's
    optimality condition C'(b) = psi projected onto [0, b_bar], at the
    commitment weight lambda_T = omega_T.  The search walks every
    nondecreasing schedule on ``BRUTEFORCE_LEVELS`` uniform levels from 0
    to b_bar (53,130 for 5 types) and holds only their totals, built prefix
    by prefix and added left to right as a row sum of at most 6 terms adds;
    the best tuple is walked back from its row.  It checks the discrete
    incentive inequalities (the allocation index omega_T*T + omega_b*b must
    be nondecreasing) and nonnegativity, and reports the gap to the KKT
    benchmark together with the discretization bound (curvature/2) *
    spacing^2.
    """
    th = np.asarray(types, dtype=float)
    w = np.asarray(weights, dtype=float)
    if th.ndim != 1 or th.size < 1 or th.shape != w.shape:
        raise ParameterError("types and weights must be matching 1-d arrays")
    if th.size > 6:
        raise ParameterError("brute-force oracle is limited to 6 types")
    if not np.all(np.isfinite(th)) or np.any(np.diff(th) <= 0.0):
        raise ParameterError("types must be finite and strictly increasing")
    if not np.all(w > 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-9:  # NaN fails both, inf the sum
        raise ParameterError("weights must be finite, positive and sum to one")
    if not prim.omega_b_constant:
        raise ParameterError("brute-force oracle requires a constant omega_b")
    lam = prim.omega_T

    survivor = np.cumsum(w[::-1])[::-1]  # P(type >= theta_i), inclusive
    hazard = w / survivor
    psi = _weight(prim, lam, th, hazard)

    kkt_caps = caps_from_targets(psi, cost, prim.b_bar)
    kkt_cost = float(np.sum(w * (np.asarray(cost.value(kkt_caps)) - psi * kkt_caps)))

    grid = np.linspace(0.0, prim.b_bar, BRUTEFORCE_LEVELS)
    # per-type, per-level contribution to the virtual cost
    table = w[:, None] * (np.asarray(cost.value(grid))[None, :] - psi[:, None] * grid[None, :])
    totals, starts = _nondecreasing_totals(table)
    best_idx = int(np.argmin(totals))
    best_caps = grid[_tuples_at(best_idx, starts)]
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
    spacing = prim.b_bar / (BRUTEFORCE_LEVELS - 1)
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
        n_schedules=int(totals.size),
        transfers=transfers,
        ic_ok=ic_ok,
        ir_ok=ir_ok,
        passed=passed,
    )
