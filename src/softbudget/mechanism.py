"""Optimal rescue-cap schedules and transfer schedules.

The screening optimum equates the marginal resource cost of a higher rescue
cap with its hazard-weighted virtual benefit.  With welfare weights
(omega_T, omega_b, gamma), a multiplier lambda_T on transfer resources, and
type hazard h, the virtual weight is

    psi(theta) = gamma * omega_b(theta) / lambda_T * h(theta),

and the optimal cap solves C'(b(theta)) = psi_bar(theta) projected onto
[0, b_bar], where psi_bar is the monotone (ironed) version of psi.  Ironing
uses pool-adjacent-violators with density weights, which is the derivative
of the convex hull of the cumulative f-weighted integral of psi; pooled
stretches carry an explicit flag.  PAV works on whole runs of nodes: each
strictly decreasing run enters as one block and each nondecreasing stretch
whole, so its Python work is bounded by the number of decreasing runs, not
by the grid size (see ``iron_weights`` for its tie and zero-weight
conventions).  ``virtual_weight`` builds the curve, which
records its inputs and is the one input of every stage that needs psi; it
irons on first use, so the knife-edge test, which reads only psi, never does.
lambda_T, gamma and a constant omega_b enter psi only as a positive scale,
at which PAV pools the same blocks, so a curve derived at other weights
(``VirtualWeightCurve.at``) inherits its source's partition and re-sums the
pooled blocks: where a block mean ties its neighbour exactly, whether they
pool is decided once, by the source's PAV pass, not again at each weight.
``solve_cap`` returns a schedule that records the curve and cost it was
solved from, and is in turn the one input of every stage after the solve:
the transfers, the leader's cost, P_int and the Monte Carlo check.

The transfer schedule follows from the incentive budget identity
dT = -(omega_b / omega_T) db along the cap schedule, anchored at zero where
rescue starts, then projected onto T >= 0.  On solved (nondecreasing)
schedules the pre-projection values are nonpositive, so limited liability
binds wherever the cap is rising; on the no-rescue stretch below the lower
cutoff the level of T is not pinned down by the first-order conditions and
the module returns zero with an explicit flag rather than guessing.

Cutoffs:

* ``theta_min``    -- lowest type receiving a positive cap,
* ``theta_dagger`` -- lowest type whose cap hits the bound b_bar,

located in closed form on the linear interpolant of psi_bar, where it
first exceeds C'(0+) and first reaches C'(b_bar).  The
knife-edge test reports whether rescue is shut down for *all* types:
no rescue is optimal exactly when C'(0+) >= sup_theta psi(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .costs import RescueCost
from .distributions import PointMass, TypeDistribution, _grid_cell
from .errors import ParameterError
from .primitives import DEFAULT_GRID_SIZE, DEFAULT_TAIL_MASS, PolicyPrimitives

__all__ = [
    "VirtualWeightCurve",
    "CapSchedule",
    "TransferSchedule",
    "KnifeEdgeReport",
    "virtual_weight",
    "iron_weights",
    "caps_from_targets",
    "solve_cap",
    "knife_edge",
    "transfer_schedule",
    "leader_cost",
]


@dataclass(frozen=True)
class VirtualWeightCurve:
    """Raw virtual weights on a type grid, with the inputs that built them.

    Every stage that needs psi takes the curve, so the distribution,
    primitives, lambda and grid it reads are the ones psi was built from.
    ``hazard`` is h at the nodes (1 for a point mass), kept by
    ``virtual_weight`` from evaluating psi.  ``density`` (f at the nodes, the
    ironing weights; the unit mass for a point mass), ``psi_bar`` and
    ``ironed`` are computed on first use and kept: a caller that reads only
    ``psi`` never irons, and a curve irons at most once.  A curve from
    ``at`` shares its source's hazard and density and re-pools its blocks.
    """

    theta: np.ndarray
    psi: np.ndarray
    dist: TypeDistribution
    prim: PolicyPrimitives
    lambda_T: float

    def __post_init__(self):
        _finite_psi(self.psi)

    @property
    def degenerate(self) -> bool:
        return self.theta.size == 1

    @cached_property
    def hazard(self) -> np.ndarray:
        return _hazard(self.dist, self.theta)

    @cached_property
    def density(self) -> np.ndarray:
        if self.degenerate:
            return np.array([1.0])
        return self.dist.pdf(self.theta)

    @cached_property
    def _ironing(self) -> tuple[np.ndarray, np.ndarray]:
        return iron_weights(self.psi, self.density)

    @property
    def psi_bar(self) -> np.ndarray:
        """The monotone (ironed) weight."""
        return self._ironing[0]

    @property
    def ironed(self) -> np.ndarray:
        """Per-node flag marking pooled stretches of ``psi_bar``."""
        return self._ironing[1]

    def psi_bar_at(self, theta):
        """Linear interpolation of the monotone weight curve, ``np.interp`` bit for bit (``_interp``)."""
        return _interp(theta, self.theta, self.psi_bar)

    def at(self, prim: PolicyPrimitives, lambda_T: float) -> "VirtualWeightCurve":
        """The curve of the same distribution and grid at other weights.

        It shares theta, the hazard and the density with this curve, and its
        psi is the expression ``virtual_weight`` evaluates, bit for bit.  The
        weights differ only by a positive scale, which keeps every comparison
        of means PAV makes, so the curve inherits this curve's partition
        (ironing this curve if it has not yet) and sums each pooled block at
        its own psi as ``iron_weights`` does, with no PAV pass; a block of
        zero weight keeps its value, rescaled.  Another omega_b curve is no
        scale, and is rejected.
        """
        lam, psi, ironing = self._repooled(prim, lambda_T)
        curve = replace(self, psi=psi, prim=prim, lambda_T=lam)
        curve.__dict__.update(hazard=self.hazard, density=self.density, _ironing=ironing)
        return curve

    def _repooled(self, prim: PolicyPrimitives, lambda_T: float) -> tuple[float, np.ndarray, "_Ironing"]:
        """``at``'s lambda, psi and ironing, with its checks and no curve: a fixed-point evaluation reads psi_bar."""
        lam = _check_lambda(lambda_T)
        if prim.omega_b is not self.prim.omega_b and not (prim.omega_b_constant and self.prim.omega_b_constant):
            raise ParameterError("a curve at other weights keeps its omega_b curve; only a constant omega_b may change")
        starts, pooled = self._ironing.starts, self._ironing.pooled
        psi = _finite_psi(_weight(prim, lam, self.theta, self.hazard))
        first = self.theta[starts[pooled]]
        scale = _weight(prim, lam, first, 1.0) / _weight(self.prim, self.lambda_T, first, 1.0) if first.size else 1.0
        return lam, psi, _pool(psi, self.density, starts, pooled, self.psi_bar[starts[pooled]] * scale)


@dataclass(frozen=True)
class CapSchedule:
    """Solved rescue-cap schedule with regime cutoffs, and the curve and cost it was solved from.

    ``b_star`` holds the caps on ``curve.theta``; the grid, the pooling
    flags, the distribution, the primitives (b_bar among them) and lambda_T
    are the curve's.  ``theta_min`` / ``theta_dagger`` are None when the
    corresponding boundary does not occur on the (truncated) support.
    ``regime`` is ``no-rescue`` when the cap is identically zero, ``mixed``
    when the cap reaches b_bar somewhere, and ``interior`` otherwise.
    """

    curve: VirtualWeightCurve = field(repr=False)
    cost: RescueCost
    b_star: np.ndarray
    theta_min: Optional[float]
    theta_dagger: Optional[float]
    regime: str

    def cap_at(self, theta):
        """Cap level interpolated from the solved grid, ``np.interp`` bit for bit (``_interp``)."""
        return _interp(theta, self.curve.theta, self.b_star)


@dataclass(frozen=True)
class TransferSchedule:
    """Transfer schedule along the cap schedule ``cap``, on its grid.

    ``t_pre`` is the unprojected integral of -(omega_b/omega_T) db;
    ``t_star`` is its projection onto T >= 0.  ``ll_binding`` marks points
    where the projection is active, ``unpinned`` marks the no-rescue
    stretch where the first-order conditions leave the transfer level free
    (reported as zero by convention).
    """

    cap: CapSchedule = field(repr=False)
    t_pre: np.ndarray
    t_star: np.ndarray
    ll_binding: np.ndarray
    unpinned: np.ndarray


@dataclass(frozen=True)
class KnifeEdgeReport:
    """Result of the all-types no-rescue test."""

    no_rescue: bool
    margin: float
    sup_virtual_weight: float
    marginal_cost_at_zero: float
    truncated_support: bool
    lambda_T: float


def _finite_psi(psi: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(psi)):
        raise ParameterError("virtual weight is not finite on the grid; tighten the truncation")
    return psi


def _check_lambda(lambda_T: float) -> float:
    if not (isinstance(lambda_T, (int, float)) and math.isfinite(lambda_T) and lambda_T > 0.0):
        raise ParameterError("lambda_T must be positive and finite")
    return float(lambda_T)


def iron_weights(psi: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pool-adjacent-violators projection onto nondecreasing sequences.

    Pooling averages with the supplied weights, so the weighted integral of
    the output over every pooled block equals that of the input exactly.
    Returns the monotone sequence and a per-point flag marking pooled
    stretches, as an ``_Ironing`` pair that also records the partition.

    Values and weights must be finite, and weights nonnegative; a NaN
    would compare false in every merge test and an infinity would pool
    into NaN.

    Already-nondecreasing input (``psi[1:] >= psi[:-1]`` everywhere) is
    returned as a copy with no flags, after the inputs are validated: PAV
    merges only on a strict decrease, so on such input it pools nothing.

    Otherwise PAV runs on whole runs of nodes rather than node by node.
    Each maximal strictly decreasing run of positive-weight nodes must pool,
    so it enters as one block (sums of w and w*psi); the nondecreasing
    stretches between runs enter whole.  Each run's block then absorbs the
    stack top while that has a higher mean, and the head of the next
    stretch while it has a lower one, alternately until neither side
    changes.  Along a nondecreasing stretch the merged mean moves one way
    only, so the first node that stops the block stops it for good:
    ``_reach`` finds it with cumulative sums.  The Python work is a few
    steps per decreasing run plus the logarithm of each reach, not a step
    per node.  Conventions:

    * blocks merge only when the later mean is strictly lower, so ties do
      not pool and a one-ulp drop does;
    * a block flags only when it holds more than one node, and nodes left
      alone keep their exact value;
    * a pooled block's value is its weighted mean, summed over the block
      once the partition is known, and clamped where that sum rounds it past
      a neighbour (``_pool``), so the output is nondecreasing bit for bit;
    * a block of zero total weight takes the plain average
      ``0.5 * (left + right)`` at each merge, in the order a node-by-node
      pass would merge; zero-weight nodes therefore enter one at a time.
    """
    psi = np.asarray(psi, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if psi.shape != weights.shape or psi.ndim != 1:
        raise ParameterError("iron_weights needs matching 1-d value and weight arrays")
    if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(weights))):
        raise ParameterError("ironing values and weights must be finite")
    if np.any(weights < 0.0):
        raise ParameterError("ironing weights must be nonnegative")
    n = psi.size
    drop = psi[1:] < psi[:-1]  # drop[i]: node i + 1 lies strictly below node i
    if not bool(drop.any()):
        return _pool(psi, weights, np.zeros(1, dtype=np.intp), np.zeros(1, dtype=bool), ())
    mass = weights * psi
    positive = weights > 0.0
    # violations: each maximal strictly decreasing run of positive-weight
    # nodes (link[i]: node i + 1 pools with node i), and each node that
    # drops below its neighbour without such a link (one of the two weighs
    # nothing) and starts no run
    link = drop & positive[1:] & positive[:-1]
    edges = np.flatnonzero(np.diff(link, prepend=False, append=False))
    single = np.flatnonzero(drop & ~link & ~np.append(link[1:], False)) + 1
    los = np.concatenate((edges[::2], single))
    his = np.concatenate((edges[1::2] + 1, single + 1))
    order = np.argsort(los, kind="stable")
    los, his = los[order], his[order]
    bounds = np.union1d(los, his)
    bounds = bounds[bounds < n]
    at = np.searchsorted(bounds, los)
    run_mass = np.add.reduceat(mass, bounds)[at].tolist()
    run_weight = np.add.reduceat(weights, bounds)[at].tolist()
    los, his = los.tolist(), his.tolist()

    # stack entries [lo, hi, mean, S, W] tile the nodes seen so far with
    # nondecreasing means; mean None marks a stretch of untouched nodes
    stack: list[list] = [[0, los[0], None, 0.0, 0.0]] if los[0] > 0 else []
    for lo, hi, total, weight, stretch_end in zip(los, his, run_mass, run_weight, los[1:] + [n]):
        mean = total / weight if weight > 0.0 else psi.item(lo)
        while True:
            # absorb from the left while the stack top lies above the block
            while stack:
                top = stack[-1]
                if top[2] is not None:  # a pooled block
                    if not top[2] > mean:
                        break
                    stack.pop()
                    lo, total, weight = top[0], total + top[3], weight + top[4]
                    mean = total / weight if weight > 0.0 else 0.5 * (top[2] + mean)
                    continue
                first, last = top[0], top[1]
                if not psi.item(last - 1) > mean:
                    break
                left = slice(last - 1, first - 1 if first > 0 else None, -1)
                count, total, weight, mean = _reach(psi[left], mass[left], weights[left], total, weight, mean, True)
                lo = last - count
                if lo > first:
                    top[1] = lo
                    break
                stack.pop()
            # then the head of the next stretch while it lies below the block
            if hi < stretch_end and psi.item(hi) < mean:
                right = slice(hi, stretch_end)
                count, total, weight, mean = _reach(psi[right], mass[right], weights[right], total, weight, mean, False)
                hi += count
                continue
            break
        stack.append([lo, hi, mean, total, weight])
        if hi < stretch_end:
            stack.append([hi, stretch_end, None, 0.0, 0.0])

    # the entries tile [0, n): sum each once, now that the partition is known
    starts = np.array([entry[0] for entry in stack])
    pooled = np.array([entry[2] is not None for entry in stack]) & (np.diff(np.append(starts, n)) > 1)
    return _pool(psi, weights, starts, pooled, [entry[2] for entry, keep in zip(stack, pooled.tolist()) if keep])


class _Ironing(tuple):
    """``(psi_bar, flags)`` as ``iron_weights`` returns it, with the partition it pooled.

    ``starts`` holds the first node of each block (the blocks tile the
    nodes), and ``pooled`` marks the blocks that pool.
    """


def _pool(psi: np.ndarray, weights: np.ndarray, starts: np.ndarray, pooled: np.ndarray, fill) -> _Ironing:
    """Each pooled block at its weighted mean, summed once, or at its ``fill`` entry if it weighs nothing."""
    sizes = np.diff(np.append(starts, psi.size))
    ironing = _Ironing((psi.copy(), np.repeat(pooled, sizes)))
    ironing.starts, ironing.pooled = starts, pooled
    if pooled.any():
        out, flags = ironing
        block_weight = np.add.reduceat(weights, starts)[pooled]
        block_mass = np.add.reduceat(weights * psi, starts)[pooled]
        values = np.divide(block_mass, block_weight, out=np.array(fill, dtype=float), where=block_weight > 0.0)
        out[flags] = np.repeat(values, sizes[pooled])
        # a sum that rounds past a neighbour: cap at the next unpooled node, then take the running maximum
        if np.any(out[1:] < out[:-1]):
            np.minimum(out, np.minimum.accumulate(np.where(flags, np.inf, out)[::-1])[::-1], out=out)
            np.maximum.accumulate(out, out=out)
    return ironing


_REACH_SCALAR_STEPS = 8  # values taken one at a time before scanning in chunks
_REACH_CHUNK = 16


def _reach(values, mass, weights, total, weight, mean, leftward):
    """How many of ``values``, met in order, a block absorbs; and its new state.

    The block (sum ``total`` of w*psi, weight ``weight``, mean ``mean``)
    absorbs the next value while it lies strictly above the mean when met
    leftward, strictly below when met rightward.  The values are monotone in
    the order met and each absorption moves the mean towards them, so the
    first value that stops the block stops it for good.  Most reaches are
    short, so the first few values are taken one at a time; the rest are
    scanned through cumulative sums in chunks of doubling size, so the work
    grows with the reach, not with the stretch.  A block of zero weight
    takes the plain average of its mean and the value; met rightward, it
    then returns, so the caller re-checks the left side first, as a
    node-by-node pass would.
    """
    count, size = 0, values.size
    while count < size and (count < _REACH_SCALAR_STEPS or weight == 0.0):
        value = values.item(count)
        if not (value > mean if leftward else value < mean):
            return count, total, weight, mean
        total += mass.item(count)
        weight += weights.item(count)
        count += 1
        if weight > 0.0:
            mean = total / weight
        else:
            mean = 0.5 * (value + mean)
            if not leftward:
                return count, total, weight, mean
    chunk = _REACH_CHUNK
    while count < size:
        part = slice(count, count + chunk)
        totals = total + mass[part].cumsum()
        weights_so_far = weight + weights[part].cumsum()
        # the mean each value meets: the block's, with the values before it
        means = np.concatenate(([mean], totals[:-1] / weights_so_far[:-1]))
        stop = values[part] <= means if leftward else values[part] >= means
        taken = int(stop.argmax())
        if not stop[taken]:
            taken = stop.size
        if taken:
            total, weight = totals.item(taken - 1), weights_so_far.item(taken - 1)
            mean = total / weight
            count += taken
        if taken < stop.size:
            break
        chunk *= 2
    return count, total, weight, mean


def virtual_weight(
    dist: TypeDistribution,
    prim: PolicyPrimitives,
    lambda_T: float,
    grid_size: int = DEFAULT_GRID_SIZE,
    tail_mass: float = DEFAULT_TAIL_MASS,
) -> VirtualWeightCurve:
    """Hazard-weighted virtual weight curve psi = gamma*omega_b/lambda_T * h.

    A point mass has a single node and no hazard: its curve carries the bare
    weight gamma*omega_b/lambda_T, for oracle tests against single-type
    optima.  Nothing is ironed here; see ``VirtualWeightCurve``.
    """
    lam = _check_lambda(lambda_T)
    theta = dist.grid(grid_size, tail_mass)
    hazard = _hazard(dist, theta)
    curve = VirtualWeightCurve(theta, _weight(prim, lam, theta, hazard), dist, prim, lam)
    curve.__dict__["hazard"] = hazard
    return curve


def _hazard(dist: TypeDistribution, theta: np.ndarray) -> np.ndarray:
    """Hazard at the given types; a point mass has none and weighs 1."""
    return np.ones_like(theta) if isinstance(dist, PointMass) else dist.hazard(theta)


def _weight(prim: PolicyPrimitives, lam: float, theta: np.ndarray, hazard) -> np.ndarray | float:
    """psi = gamma * omega_b / lambda * h: the one expression every curve evaluates, a constant omega_b as a float."""
    omega_b = float(prim.omega_b) if prim.omega_b_constant else np.asarray(prim.omega_b_at(theta), dtype=float)
    return prim.gamma * omega_b / lam * hazard


def _psi_on(dist: TypeDistribution, prim: PolicyPrimitives, lam: float, theta: np.ndarray) -> np.ndarray:
    """Raw virtual weight at the given types; a point mass bypasses the hazard."""
    return _weight(prim, lam, theta, _hazard(dist, theta))


def _interp(x, xp: np.ndarray, fp: np.ndarray):
    """``np.interp(x, xp, fp)`` bit for bit on a strictly increasing grid and finite fp.

    The cell comes from ``_grid_cell``, not a binary search, and the value
    is np.interp's expression (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]) *
    (x - xp[j]) + fp[j] with its cases: fp[j] at a node, fp[0] below the
    grid, fp[-1] from its last node up.  A 1-node grid or an unbracketed
    query takes ``np.interp`` itself.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    j = _grid_cell(flat, xp)
    if j is None:
        return np.interp(x, xp, fp)
    xj, fj = xp.take(j), fp.take(j)
    out = (fp[1:].take(j) - fj) / (xp[1:].take(j) - xj) * (flat - xj) + fj
    np.copyto(out, fj, where=flat == xj)
    out[flat < xp[0]] = fp[0]
    out[flat >= xp[-1]] = fp[-1]
    return out.reshape(arr.shape)[()]


def _leftmost_crossing(theta: np.ndarray, values: np.ndarray, target: float, strict: bool) -> Optional[float]:
    """Smallest theta where the piecewise-linear interpolant of ``values`` exceeds (``strict``) or reaches target.

    ``values`` must be nondecreasing, as every curve's ``psi_bar`` is bit
    for bit, so one binary search finds the first node past the target.  On
    the cell [x0, x1] it closes the interpolant is a line, whose crossing is
    returned clamped to the cell (x0 where v0 meets a strict target): a
    smooth function of the parameters, as the finite-difference statics
    harness needs.
    """
    i = int(np.searchsorted(values, target, side="right" if strict else "left"))
    if i == values.size:
        return None
    if i == 0:
        return float(theta[0])
    x0, x1 = float(theta[i - 1]), float(theta[i])
    v0, v1 = float(values[i - 1]), float(values[i])
    return min(max(x0 + (target - v0) / (v1 - v0) * (x1 - x0), x0), x1)


def caps_from_targets(psi_values: np.ndarray, cost: RescueCost, b_bar: float) -> np.ndarray:
    """Pointwise caps clip(C'^{-1}(psi), 0, b_bar) for an array of targets.

    Targets at or above C'(b_bar) map straight to b_bar; the inversion sees
    them clipped to C'(b_bar), so tabulated costs never see a target above
    their table, and the select on ``psi >= C'(b_bar)`` runs only when
    clip(C'^{-1}(C'(b_bar)), 0, b_bar) rounds off b_bar (some quadratic costs).
    """
    psi_values = np.asarray(psi_values, dtype=float)
    c_top = float(cost.marginal(b_bar))
    caps = cost.inverse_marginal(np.minimum(psi_values, c_top))  # a fresh array: clipped in place
    np.clip(caps, 0.0, b_bar, out=caps)
    if float(np.clip(cost.inverse_marginal(c_top), 0.0, b_bar)) != b_bar:
        caps = np.where(psi_values >= c_top, float(b_bar), caps)  # masked writes in place take longer
    return caps


def _crossings(theta: np.ndarray, psi_bar: np.ndarray, cost: RescueCost,
               b_bar: float) -> tuple[Optional[float], Optional[float]]:
    """theta_min and theta_dagger: where the monotone weights psi_bar first exceed C'(0+) and first reach C'(b_bar).

    The grid and weights need not belong to a curve.  With no theta_min both are None.
    """
    theta_min = _leftmost_crossing(theta, psi_bar, cost.marginal_at_zero, strict=True)
    if theta_min is None:
        return None, None
    return theta_min, _leftmost_crossing(theta, psi_bar, float(cost.marginal(b_bar)), strict=False)


def solve_cap(curve: VirtualWeightCurve, cost: RescueCost) -> CapSchedule:
    """Project the pointwise optimality condition onto [0, b_bar].

    Each grid point solves C'(b) = psi_bar, with b = 0 where the target sits
    below C'(0+) and b = b_bar (``curve.prim.b_bar``) where it exceeds
    C'(b_bar); the cutoffs are ``_crossings``' on ``curve.psi_bar``.
    """
    theta_min, theta_dagger = _crossings(curve.theta, curve.psi_bar, cost, float(curve.prim.b_bar))
    regime = "no-rescue" if theta_min is None else "interior" if theta_dagger is None else "mixed"
    return CapSchedule(curve, cost, caps_from_targets(curve.psi_bar, cost, float(curve.prim.b_bar)),
                       theta_min, theta_dagger, regime)


def knife_edge(curve: VirtualWeightCurve, cost: RescueCost) -> KnifeEdgeReport:
    """Test whether shutting rescue down entirely is optimal.

    No rescue is optimal exactly when C'(0+) >= sup_theta psi(theta).  The
    supremum is taken on the grid, and ``truncated_support`` reports that
    the grid stops short of the support at either end, as a grid that ends
    at a quantile below 1 does on every kind but a point mass: the grid sup
    may then understate the true one, which is infinite for a hazard that
    grows without bound.  The test reads only the raw weight psi, so
    nothing is ironed.
    """
    sup_psi = float(np.max(curve.psi))
    c_origin = float(cost.marginal_at_zero)
    margin = c_origin - sup_psi
    lower, upper = curve.dist.support
    return KnifeEdgeReport(
        no_rescue=margin >= 0.0,
        margin=margin,
        sup_virtual_weight=sup_psi,
        marginal_cost_at_zero=c_origin,
        truncated_support=bool(curve.theta[0] > lower or curve.theta[-1] < upper),
        lambda_T=curve.lambda_T,
    )


def transfer_schedule(cap: CapSchedule) -> TransferSchedule:
    """Integrate dT = -(omega_b/omega_T) db along the cap schedule.

    The integral is accumulated through the exact cap increments (the
    trapezoid rule in the db measure) from zero at the first node, then
    projected onto T >= 0.  The weights are the primitives of the curve the
    schedule was solved on.
    """
    theta, prim = cap.curve.theta, cap.curve.prim
    b = cap.b_star
    mid = 0.5 * (theta[:-1] + theta[1:])
    ratio = np.asarray(prim.omega_b_at(mid), dtype=float) / prim.omega_T
    increments = -ratio * np.diff(b)
    # below the lower cutoff every cap is zero, so the sum is +-0 there and T = 0 is already anchored
    # where the cap first turns positive; adding 0.0 turns each -0.0 of that plateau into 0.0
    t_pre = np.concatenate([[0.0], np.cumsum(increments)]) + 0.0
    t_star = np.maximum(t_pre, 0.0)
    ll_binding = t_pre < 0.0
    unpinned = b <= 0.0
    return TransferSchedule(cap=cap, t_pre=t_pre, t_star=t_star, ll_binding=ll_binding, unpinned=unpinned)


def leader_cost(transfers: TransferSchedule) -> float:
    """Expected authority objective E[C(b(theta)) + gamma * T(theta)].

    Everything else is read through ``transfers.cap``: its cost prices the
    caps, and the density of the curve it was solved on weights the
    trapezoid quadrature over the grid (a direct sum for degenerate
    supports) while that curve's primitives give gamma.
    """
    cap = transfers.cap
    curve = cap.curve
    pointwise = np.asarray(cap.cost.value(cap.b_star), dtype=float) + curve.prim.gamma * transfers.t_star
    if curve.degenerate:
        return float(pointwise[0])
    return float(np.trapezoid(pointwise * curve.density, curve.theta))
