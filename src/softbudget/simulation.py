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
* ``welfare_bruteforce`` checks the solver's ironed cap rule on a curve:
  PAV and the pointwise cap, re-run on about 65 of its nodes, must reach
  the least virtual cost C(b) - psi*b over nondecreasing caps, which a
  dynamic program over a lattice of cap levels finds with no ironing.  The
  virtual cost is the resource cost net of the screening value of cap
  relaxation; the resource cost alone is minimized by the all-zero schedule.
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
from .mechanism import CapSchedule, VirtualWeightCurve, _psi_on, caps_from_targets, iron_weights
from .primitives import DEFAULT_BINS, MIN_SAMPLES

__all__ = ["MCReport", "CapMinReport", "BruteForceReport", "mc_run", "capmin_oracle", "welfare_bruteforce"]

CAPMIN_STEP = 1e-5  # difference step of the cap-minimum oracle
CAPMIN_TOLERANCE = 5e-5  # largest deviation it passes
CAPMIN_QUAD_POINTS = 4001  # trapezoid nodes of its continuous moments
_LATTICE_NODES = 64  # the lattice check reads every (n - 1) // 64-th node of a curve
_LATTICE_LEVELS = 201  # cap levels of its lattice, 0 to b_bar


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

    Memory is the types plus a few blocks: each block is inverted where it
    is drawn, its arrays are freed before the next block's are made, and the
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
        # with no pooling, the virtual weight exactly at the samples; it is freed once the caps are in
        b = caps_from_targets(curve.psi_bar_at(theta) if pooled else _psi_on(dist, prim, curve.lambda_T, theta),
                              cost, prim.b_bar)
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
        del b, idx, positive, at_cap, lower  # or they are held while the next block's are made

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
# lattice check of the ironed cap rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteForceReport:
    """The solver's ironed caps on a curve's subsample, against the best nondecreasing caps on a lattice.

    The allowances and the cap gap (in lattice steps) are ``welfare_bruteforce``'s.
    """

    theta: np.ndarray
    weights: np.ndarray
    pooled: int
    solver_caps: np.ndarray
    solver_cost: float
    best_caps: np.ndarray
    best_cost: float
    rounding: float
    gap_bound: float
    max_level_gap: float
    passed: bool


def _lattice_min(rows: np.ndarray) -> tuple[float, np.ndarray]:
    """The least rows[0][l0] + rows[1][l1] + ... over levels l0 <= l1 <= ..., and those levels.

    V_i = rows[i] + prefix-min(V_{i-1}) is the least left-to-right sum over
    paths ending at each level; rounding is monotone, so it is an
    enumeration's least row sum bit for bit.  The path is walked back
    through the level each prefix minimum was last attained at.
    """
    levels = np.arange(rows.shape[1])
    value, back = rows[0], []
    for row in rows[1:]:
        best = np.minimum.accumulate(value)
        back.append(np.maximum.accumulate(np.where(value == best, levels, 0)))
        value = best + row
    path = [int(np.argmin(value))]
    for step in reversed(back):
        path.append(int(step[path[-1]]))
    return float(value[path[0]]), np.array(path[::-1])


def welfare_bruteforce(curve: VirtualWeightCurve, cost: RescueCost) -> BruteForceReport:
    """Check the solver's ironed cap rule on a curve against a lattice DP that shares no code with it.

    The instance is every ``(n - 1) // _LATTICE_NODES``-th node, weighted by
    its cell's probability mass, so it never weighs nothing.  For a convex C,
    the pointwise rule on the PAV-ironed psi (``iron_weights`` then
    ``caps_from_targets``) minimizes sum_i w_i [C(b_i) - psi_i b_i] over
    nondecreasing caps in [0, b_bar]: the generalized isotonic-regression
    theorem.  ``_lattice_min`` minimizes it on ``_LATTICE_LEVELS`` levels.
    Rounding the solver's caps to the nearest level moves a pooled block as
    one, so the first-order terms cancel: the DP's cost exceeds the solver's
    by at most (s/2) step^2, s the steepest secant of C' between levels.
    Both sides allow ``rounding``, n ulps of sum_i w_i (|C(b_i)| + |psi_i b_i|).
    Where C' rises between all levels, the caps must agree within one level.
    """
    b_bar = float(curve.prim.b_bar)
    take = np.arange(0, curve.theta.size, max((curve.theta.size - 1) // _LATTICE_NODES, 1))
    theta, psi = curve.theta[take], curve.psi[take]
    edges = np.concatenate((theta[:1], 0.5 * (theta[1:] + theta[:-1]), curve.theta[-1:]))
    w = np.ones(1) if curve.degenerate else np.diff(curve.dist.cdf(edges))
    w = w / w.sum()
    psi_bar, flags = iron_weights(psi, w)
    solver_caps = caps_from_targets(psi_bar, cost, b_bar)
    solver_value = np.asarray(cost.value(solver_caps))
    solver_cost = float(np.sum(w * (solver_value - psi * solver_caps)))

    levels = np.linspace(0.0, b_bar, _LATTICE_LEVELS)
    best_cost, path = _lattice_min(w[:, None] * (np.asarray(cost.value(levels)) - psi[:, None] * levels))
    step = b_bar / (_LATTICE_LEVELS - 1)
    secants = np.diff(cost.marginal(levels)) / step
    gap_bound = 0.5 * float(np.max(secants)) * step**2
    rounding = float(w.size * np.finfo(float).eps * np.sum(w * (np.abs(solver_value) + np.abs(psi * solver_caps))))
    max_level_gap = float(np.max(np.abs(levels[path] - solver_caps)[w > 0.0])) / step
    passed = bool(solver_cost - rounding <= best_cost <= solver_cost + rounding + gap_bound
                  and (max_level_gap <= 1.0 or np.min(secants) <= 0.0))
    return BruteForceReport(theta, w, int(np.count_nonzero(flags)), solver_caps, solver_cost, levels[path],
                            best_cost, rounding, gap_bound, max_level_gap, passed)
