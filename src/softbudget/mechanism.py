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
stretches carry an explicit flag.

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

located by bisection on the interpolated monotone weight curve.  The
knife-edge test reports whether rescue is shut down for *all* types:
no rescue is optimal exactly when C'(0+) >= sup_theta psi(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .costs import RescueCost
from .distributions import PointMass, TypeDistribution
from .errors import GridMismatchError, ParameterError
from .primitives import PolicyPrimitives

__all__ = [
    "VirtualWeightCurve",
    "CapSchedule",
    "TransferSchedule",
    "KnifeEdgeReport",
    "virtual_weight",
    "iron_weights",
    "check_curve",
    "caps_from_targets",
    "solve_cap",
    "knife_edge",
    "transfer_schedule",
    "leader_cost",
]

DEFAULT_GRID_SIZE = 4097
DEFAULT_TAIL_MASS = 1e-10

_CUTOFF_TOL = 1e-14  # bisection width, well inside the 1e-8 contract


@dataclass(frozen=True)
class VirtualWeightCurve:
    """Raw and ironed virtual weights on a type grid.

    ``density`` holds f(theta) at the nodes (the ironing weights); for a
    degenerate single-type grid it holds the unit point mass.
    """

    theta: np.ndarray
    psi: np.ndarray
    psi_bar: np.ndarray
    ironed: np.ndarray
    density: np.ndarray
    lambda_T: float

    @property
    def degenerate(self) -> bool:
        return self.theta.size == 1

    def psi_bar_at(self, theta):
        """Linear interpolation of the monotone weight curve."""
        return np.interp(theta, self.theta, self.psi_bar)


@dataclass(frozen=True)
class CapSchedule:
    """Solved rescue-cap schedule with regime cutoffs.

    ``theta_min`` / ``theta_dagger`` are None when the corresponding
    boundary does not occur on the (truncated) support.  ``regime`` is
    ``no-rescue`` when the cap is identically zero, ``mixed`` when the cap
    reaches ``b_bar`` somewhere, and ``interior`` otherwise.
    """

    theta: np.ndarray
    b_star: np.ndarray
    ironed: np.ndarray
    theta_min: Optional[float]
    theta_dagger: Optional[float]
    regime: str
    lambda_T: float
    b_bar: float

    def cap_at(self, theta):
        """Cap level interpolated from the solved grid."""
        return np.interp(theta, self.theta, self.b_star)


@dataclass(frozen=True)
class TransferSchedule:
    """Transfer schedule paired with a cap schedule.

    ``t_pre`` is the unprojected integral of -(omega_b/omega_T) db;
    ``t_star`` is its projection onto T >= 0.  ``ll_binding`` marks points
    where the projection is active, ``unpinned`` marks the no-rescue
    stretch where the first-order conditions leave the transfer level free
    (reported as zero by convention).
    """

    theta: np.ndarray
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


def _check_lambda(lambda_T: float) -> float:
    if not (isinstance(lambda_T, (int, float)) and math.isfinite(lambda_T) and lambda_T > 0.0):
        raise ParameterError("lambda_T must be positive and finite")
    return float(lambda_T)


def iron_weights(psi: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pool-adjacent-violators projection onto nondecreasing sequences.

    Pooling averages with the supplied weights, so the weighted integral of
    the output over every pooled block equals that of the input exactly.
    Returns the monotone sequence and a per-point flag marking pooled
    stretches.

    Values and weights must be finite, and weights nonnegative; a NaN
    would compare false in every merge test and an infinity would pool
    into NaN.

    Already-nondecreasing input (``psi[1:] >= psi[:-1]`` everywhere) is
    returned as a copy with no flags, after the inputs are validated and
    without entering the merge loop: the loop merges only on a strict
    decrease, so on such input it would pool nothing and return the input
    values unchanged.
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
    if bool(np.all(psi[1:] >= psi[:-1])):
        return psi.copy(), np.zeros(n, dtype=bool)
    # blocks as (mean, weight, count); merge while the tail violates monotonicity
    means: list[float] = []
    wts: list[float] = []
    counts: list[int] = []
    for i in range(n):
        means.append(float(psi[i]))
        wts.append(float(weights[i]))
        counts.append(1)
        while len(means) > 1 and means[-1] < means[-2]:
            w_hi, w_lo = wts[-1], wts[-2]
            total = w_hi + w_lo
            if total > 0.0:
                merged = (means[-2] * w_lo + means[-1] * w_hi) / total
            else:  # zero-density stretch: plain average keeps the projection defined
                merged = 0.5 * (means[-2] + means[-1])
            means[-2], wts[-2], counts[-2] = merged, total, counts[-2] + counts[-1]
            means.pop(), wts.pop(), counts.pop()
    out = np.empty(n)
    flags = np.zeros(n, dtype=bool)
    pos = 0
    for mean, count in zip(means, counts):
        if count == 1:
            out[pos] = psi[pos]  # untouched points keep their exact value
        else:
            out[pos : pos + count] = mean
            flags[pos : pos + count] = True
        pos += count
    return out, flags


def virtual_weight(
    dist: TypeDistribution,
    prim: PolicyPrimitives,
    lambda_T: float,
    grid_size: int = DEFAULT_GRID_SIZE,
    tail_mass: float = DEFAULT_TAIL_MASS,
) -> VirtualWeightCurve:
    """Hazard-weighted virtual weight curve psi = gamma*omega_b/lambda_T * h.

    For a degenerate (point-mass) type the hazard is bypassed and the curve
    carries the bare weight gamma*omega_b/lambda_T on a single node; this
    path exists for oracle tests against single-type optima.
    """
    lam = _check_lambda(lambda_T)
    theta, psi = _raw_weights(dist, prim, lam, grid_size, tail_mass)
    if isinstance(dist, PointMass):
        return VirtualWeightCurve(
            theta=theta,
            psi=psi,
            psi_bar=psi.copy(),
            ironed=np.array([False]),
            density=np.array([1.0]),
            lambda_T=lam,
        )
    dens = np.asarray(dist.pdf(theta), dtype=float)
    psi_bar, flags = iron_weights(psi, dens)
    return VirtualWeightCurve(theta=theta, psi=psi, psi_bar=psi_bar, ironed=flags, density=dens, lambda_T=lam)


def check_curve(
    curve: VirtualWeightCurve,
    dist: TypeDistribution,
    prim: PolicyPrimitives,
    lambda_T: float,
    grid_size: int = DEFAULT_GRID_SIZE,
    tail_mass: float = DEFAULT_TAIL_MASS,
) -> VirtualWeightCurve:
    """Return ``curve`` if it was built from these inputs, else raise.

    For callers that take a prebuilt curve instead of rebuilding it.  The
    check is cheap: the lambda, the whole type grid (which fixes the
    distribution's truncated support, the grid size and the tail mass) and
    the raw weight at both ends of the grid (which fixes gamma and omega_b
    there).  Interior nodes are not recomputed.
    """
    if curve.lambda_T != lambda_T:
        raise ParameterError("curve was built at a different lambda_T")
    theta = _type_grid(dist, grid_size, tail_mass)
    if not np.array_equal(curve.theta, theta):
        raise ParameterError("curve was built on a different type grid")
    ends = theta[[0, -1]]
    if not np.allclose(curve.psi[[0, -1]], _psi_on(dist, prim, lambda_T, ends), rtol=1e-12, atol=0.0):
        raise ParameterError("curve was built for different weights (gamma or omega_b)")
    return curve


def _type_grid(dist: TypeDistribution, grid_size: int, tail_mass: float) -> np.ndarray:
    """The type grid: the single type of a point mass, else the truncated uniform grid."""
    if isinstance(dist, PointMass):
        return np.array([dist.value])
    return dist.grid(grid_size, tail_mass)


def _psi_on(dist: TypeDistribution, prim: PolicyPrimitives, lam: float, theta: np.ndarray) -> np.ndarray:
    """Raw virtual weight at the given types; a point mass bypasses the hazard."""
    # the hazard first: its temporaries are freed before the weight array is
    # built, which matters when mc_run passes millions of sampled types
    hazard = 1.0 if isinstance(dist, PointMass) else np.asarray(dist.hazard(theta), dtype=float)
    return prim.gamma * np.asarray(prim.omega_b_at(theta), dtype=float) / lam * hazard


def _raw_weights(
    dist: TypeDistribution, prim: PolicyPrimitives, lam: float, grid_size: int, tail_mass: float
) -> tuple[np.ndarray, np.ndarray]:
    """Type grid and the raw (unironed) virtual weight on it."""
    theta = _type_grid(dist, grid_size, tail_mass)
    psi = _psi_on(dist, prim, lam, theta)
    if not np.all(np.isfinite(psi)):
        raise ParameterError("virtual weight is not finite on the grid; tighten the truncation")
    return theta, psi


def _leftmost_crossing(theta: np.ndarray, values: np.ndarray, target: float, strict: bool) -> Optional[float]:
    """Smallest theta where the piecewise-linear interpolant exceeds target.

    ``values`` must be nondecreasing.  Bisection on the predicate keeps the
    cutoff a smooth function of the underlying parameters, which the
    finite-difference statics harness relies on.
    """
    above = values > target if strict else values >= target
    if not bool(np.any(above)):
        return None
    i = int(np.argmax(above))
    if i == 0:
        return float(theta[0])
    lo, hi = float(theta[i - 1]), float(theta[i])
    x0, x1 = lo, hi
    v0, v1 = float(values[i - 1]), float(values[i])
    span = x1 - x0
    for _ in range(200):
        if hi - lo <= _CUTOFF_TOL * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        val = v0 + (v1 - v0) * (mid - x0) / span
        ok = val > target if strict else val >= target
        if ok:
            hi = mid
        else:
            lo = mid
    return hi


def caps_from_targets(psi_values: np.ndarray, cost: RescueCost, b_bar: float) -> np.ndarray:
    """Pointwise caps clip(C'^{-1}(psi), 0, b_bar) for an array of targets.

    Targets at or above C'(b_bar) map straight to b_bar, so tabulated costs
    never see an out-of-range inversion.
    """
    psi_values = np.asarray(psi_values, dtype=float)
    c_top = float(cost.marginal(b_bar))
    at_cap = psi_values >= c_top
    b = np.full(psi_values.shape, float(b_bar))
    if not np.all(at_cap):
        inv = cost.inverse_marginal(psi_values[~at_cap])
        b[~at_cap] = np.clip(inv.payout, 0.0, b_bar)
    return b


def solve_cap(curve: VirtualWeightCurve, cost: RescueCost, b_bar: float) -> CapSchedule:
    """Project the pointwise optimality condition onto [0, b_bar].

    Each grid point solves C'(b) = psi_bar, with b = 0 where the target sits
    below C'(0+) and b = b_bar where it exceeds C'(b_bar).  The cutoffs are
    located by bisection on the interpolated weight curve.
    """
    if not (isinstance(b_bar, (int, float)) and math.isfinite(b_bar) and b_bar > 0.0):
        raise ParameterError("b_bar must be positive and finite")
    b_bar = float(b_bar)
    c_origin = cost.marginal_at_zero
    c_top = float(cost.marginal(b_bar))
    psi_bar = curve.psi_bar
    at_cap = psi_bar >= c_top
    b = caps_from_targets(psi_bar, cost, b_bar)
    if curve.degenerate:
        positive = b[0] > 0.0
        theta_min = float(curve.theta[0]) if positive else None
        theta_dagger = float(curve.theta[0]) if bool(at_cap[0]) else None
    else:
        theta_min = _leftmost_crossing(curve.theta, psi_bar, c_origin, strict=True)
        theta_dagger = _leftmost_crossing(curve.theta, psi_bar, c_top, strict=False)
    if theta_min is None:
        regime = "no-rescue"
        theta_dagger = None
    elif theta_dagger is not None:
        regime = "mixed"
    else:
        regime = "interior"
    return CapSchedule(
        theta=curve.theta,
        b_star=b,
        ironed=curve.ironed,
        theta_min=theta_min,
        theta_dagger=theta_dagger,
        regime=regime,
        lambda_T=curve.lambda_T,
        b_bar=b_bar,
    )


def knife_edge(
    dist: TypeDistribution,
    prim: PolicyPrimitives,
    cost: RescueCost,
    lambda_T: Optional[float] = None,
    grid_size: int = DEFAULT_GRID_SIZE,
    tail_mass: float = DEFAULT_TAIL_MASS,
    curve: Optional[VirtualWeightCurve] = None,
) -> KnifeEdgeReport:
    """Test whether shutting rescue down entirely is optimal.

    No rescue is optimal exactly when C'(0+) >= sup_theta psi(theta).  For
    unbounded supports the supremum is taken on the truncated grid and the
    report flags the truncation: a hazard that grows without bound can
    never satisfy the inequality, and the flag warns that the grid sup
    understates the true one.

    The test reads only the raw weight psi, so nothing is ironed.  A caller
    that already holds the curve for these inputs passes it as ``curve``
    (vetted by ``check_curve``) and its ``psi`` is read instead of being
    recomputed.
    """
    lam = _check_lambda(prim.omega_T if lambda_T is None else lambda_T)
    if curve is None:
        _, psi = _raw_weights(dist, prim, lam, grid_size, tail_mass)
    else:
        psi = check_curve(curve, dist, prim, lam, grid_size, tail_mass).psi
    sup_psi = float(np.max(psi))
    c_origin = float(cost.marginal_at_zero)
    margin = c_origin - sup_psi
    truncated = not math.isfinite(dist.support[1])
    return KnifeEdgeReport(
        no_rescue=margin >= 0.0,
        margin=margin,
        sup_virtual_weight=sup_psi,
        marginal_cost_at_zero=c_origin,
        truncated_support=truncated,
        lambda_T=lam,
    )


def transfer_schedule(cap: CapSchedule, prim: PolicyPrimitives) -> TransferSchedule:
    """Integrate dT = -(omega_b/omega_T) db along the cap schedule.

    The integral is accumulated through the exact cap increments (the
    trapezoid rule in the db measure), anchored at zero where the cap first
    turns positive, then projected onto T >= 0.
    """
    theta = cap.theta
    b = cap.b_star
    if theta.size == 1:
        t_pre = np.zeros(1)
    else:
        mid = 0.5 * (theta[:-1] + theta[1:])
        ratio = np.asarray(prim.omega_b_at(mid), dtype=float) / prim.omega_T
        increments = -ratio * np.diff(b)
        t_pre = np.concatenate([[0.0], np.cumsum(increments)])
        # anchor T = 0 at the lower cutoff; below it the cap is flat at zero
        # so the anchored curve is zero there as well.  Anchoring at the last
        # zero-cap node keeps the low-type plateau exactly zero instead of
        # leaving an O(grid-spacing) offset from interpolating inside the
        # cell that straddles the cutoff.
        if cap.theta_min is not None and theta[0] < cap.theta_min:
            at_zero = np.flatnonzero((b <= 0.0) & (theta <= cap.theta_min))
            if at_zero.size:
                anchor = float(t_pre[int(at_zero[-1])])
            else:
                anchor = float(np.interp(cap.theta_min, theta, t_pre))
            t_pre = t_pre - anchor
    t_star = np.maximum(t_pre, 0.0)
    ll_binding = t_pre < 0.0
    unpinned = b <= 0.0
    return TransferSchedule(theta=theta, t_pre=t_pre, t_star=t_star, ll_binding=ll_binding, unpinned=unpinned)


def leader_cost(
    cap: CapSchedule,
    transfers: TransferSchedule,
    dist: TypeDistribution,
    cost: RescueCost,
    prim: PolicyPrimitives,
) -> float:
    """Expected authority objective E[C(b(theta)) + gamma * T(theta)].

    Uses the cap-binding benchmark payout b(theta) and trapezoid quadrature
    over the schedule grid (a direct sum for degenerate supports).
    """
    if cap.theta.shape != transfers.theta.shape or np.any(cap.theta != transfers.theta):
        raise GridMismatchError("cap and transfer schedules were built on different grids")
    pointwise = np.asarray(cost.value(cap.b_star), dtype=float) + prim.gamma * transfers.t_star
    if cap.theta.size == 1:
        return float(pointwise[0])
    dens = np.asarray(dist.pdf(cap.theta), dtype=float)
    return float(np.trapezoid(pointwise * dens, cap.theta))
