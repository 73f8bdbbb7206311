"""Discretionary rescue rules and the credibility fixed point.

Without commitment, the authority chooses the rescue ex post after seeing
the audited gap signal.  With quadratic rescue cost C(x) = alpha*x +
kappa/2 x^2 and weight chi on second-period recipient welfare, the ex-post
rule is threshold-linear-capped in the signal:

    beta(G_hat) = clip( (chi*G_hat - alpha) / (kappa + chi), 0, b_bar ),

a zero payout below the threshold alpha/chi, slope m = chi/(kappa+chi) on
the interior branch, and a flat cap at b_bar.

Anticipated discretion feeds back into the screening problem through the
effective multiplier on transfer resources:

    lambda_T = omega_T - omega_b * m * P(0 < b*(theta) < b_bar),

where the interior probability is computed from the cap schedule solved at
that same lambda_T.  lambda_T enters the virtual weight only as the scale
1/lambda_T, so an evaluation re-sums the commitment curve's pooled blocks
on psi at lambda, the psi_bar of the curve at lambda (``VirtualWeightCurve.at``)
bit for bit, and reads the two cutoffs off that array, building no curve.
A credible lambda_T is a root of

    g(lambda) = omega_T - omega_b * m * P_int(lambda) - lambda.

Because P_int lies in [0, 1], g >= 0 at the floor omega_T - omega_b*m and
g <= 0 at omega_T, so [omega_T - omega_b*m, omega_T] brackets every root
without evaluating either end.  ``fixed_point`` solves g = 0 inside that
bracket by a safeguarded secant method (Dekker/Brent style): it evaluates
first at omega_T on the caller's commitment curve, then at the Picard image
of omega_T, then at the secant point of the last two evaluations, falling
back to the bracket midpoint whenever the secant point leaves the open
bracket or the bracket has not halved over the last two evaluations, so
the bracket halves at least every three evaluations and every evaluation
stays inside it.  The search ends at a root or at a jump, and at nothing
else: P_int can jump (for a point mass it is 0 or 1), and then g may change
sign without a root; the bracket then collapses onto adjacent floats with
|g| > tol at both ends, and the solver reports the jump by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .costs import QuadraticCost, RescueCost
from .distributions import TypeDistribution
from .errors import ParameterError
from .mechanism import CapSchedule, VirtualWeightCurve, _crossings, solve_cap
from .primitives import PolicyPrimitives

__all__ = [
    "SignalRule",
    "DiscretionSolution",
    "Jump",
    "fixed_point_failure",
    "effective_lambda",
    "interior_probability",
    "fixed_point",
]

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class SignalRule:
    """The discretionary payout rule over audited gap signals (threshold-linear-cap).

    Zero below the ``threshold`` signal, slope ``slope`` on the interior
    branch, flat at ``cap``.
    """

    threshold: float
    cap: float
    slope: float

    def __post_init__(self):
        for name in ("threshold", "cap", "slope"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"signal rule field {name} must be finite")
        if self.cap <= 0.0:
            raise ParameterError("signal rule cap must be positive")
        if not (0.0 <= self.slope < 1.0):
            raise ParameterError("interior slope must lie in [0, 1)")

    @classmethod
    def discretionary(cls, prim: PolicyPrimitives, cost: RescueCost) -> "SignalRule":
        """Ex-post optimal rule for the quadratic cost technology."""
        if not isinstance(cost, QuadraticCost):
            raise ParameterError("the discretionary rule is derived for quadratic costs only")
        return cls(threshold=cost.alpha / prim.chi, cap=prim.b_bar, slope=prim.chi / (cost.kappa + prim.chi))

    def payout(self, g_hat):
        """Rule payout at signal value(s); nondecreasing in the signal."""
        out = np.clip(self.slope * (np.asarray(g_hat, dtype=float) - self.threshold), 0.0, self.cap)
        return float(out) if out.ndim == 0 else out


class Jump(NamedTuple):
    """A sign change of g across a jump of P_int, with no root between.

    ``at`` is the upper of the two adjacent floats that bracket the jump;
    ``p_int_below`` and ``p_int_above`` are P_int at the lower and upper one.
    """

    at: float
    p_int_below: float
    p_int_above: float


@dataclass(frozen=True)
class DiscretionSolution:
    """A credibility fixed point, or the jump of P_int that leaves none.

    ``trace`` lists the evaluated (lambda, p_int) pairs in order.
    ``bracket`` is the final (lo, hi) with g(lo) >= 0 >= g(hi).  ``jump`` is
    set when the bracket collapsed onto a jump of P_int, so that no fixed
    point exists; otherwise the search ended at a root.  ``lambda_T`` and
    ``p_int`` are the evaluated point with the smallest |g| (the one with
    |g| <= tol when ``converged``), and ``schedule`` is the cap schedule at
    that ``lambda_T``, solved on the curve ``schedule.curve``.
    """

    lambda_T: float
    p_int: float
    trace: tuple
    bracket: tuple
    schedule: CapSchedule = field(repr=False)
    jump: Optional[Jump] = None

    @property
    def converged(self) -> bool:
        """True when the search ended at a root: it ends at a root or at a jump."""
        return self.jump is None

    @property
    def iterations(self) -> int:
        """The number of evaluations of P_int."""
        return len(self.trace)


def fixed_point_failure(sol: DiscretionSolution) -> str:
    """Why a fixed point that did not converge has no root: the jump of P_int, with g on each side."""
    prim = sol.schedule.curve.prim
    at, below, above = sol.jump
    lo = sol.bracket[0]
    g_below = effective_lambda(prim, below) - lo
    g_above = effective_lambda(prim, above) - at
    return (f"no discretionary fixed point: P_int jumps from {below:.10g} to {above:.10g} at "
            f"lambda_T = {at:.10g}, where g = omega_T - omega_b*m*P_int - lambda_T changes sign "
            f"between adjacent floats, from {g_below:.10g} to {g_above:.10g}")


def effective_lambda(prim: PolicyPrimitives, p_int: float) -> float:
    """Effective transfer multiplier omega_T - omega_b * m * p_int."""
    if not prim.omega_b_constant:
        raise ParameterError("effective lambda requires a constant omega_b")
    if not (0.0 <= p_int <= 1.0):
        raise ParameterError("interior probability must lie in [0, 1]")
    return prim.omega_T - float(prim.omega_b) * prim.m * p_int


def interior_probability(cap: CapSchedule) -> float:
    """P(0 < b*(theta) < b_bar) from the schedule cutoffs and the exact CDF of its curve's distribution.

    A point mass has one type, so the probability is 1 when its cap is
    interior and 0 otherwise; the survivor P(type > theta_min) would miss
    the atom at theta_min.
    """
    return _interior(cap.theta_min, cap.theta_dagger, cap.curve.dist, cap.curve.degenerate)


def _interior(theta_min: Optional[float], theta_dagger: Optional[float], dist: TypeDistribution,
              degenerate: bool) -> float:
    if theta_min is None:
        return 0.0
    if degenerate:
        return 1.0 if theta_dagger is None else 0.0
    upper_surv = 0.0 if theta_dagger is None else float(dist.survivor(theta_dagger))
    return float(dist.survivor(theta_min)) - upper_surv


def _interior_probability_at(curve: VirtualWeightCurve, cost: RescueCost, lam: float) -> float:
    """``interior_probability`` of the schedule solved at ``lam``: the cutoffs of psi_bar at ``lam``.

    That psi_bar is ``curve.at(curve.prim, lam)``'s, bit for bit, with its
    checks (``VirtualWeightCurve._repooled``); no curve, PAV pass or cap array is built.
    """
    _, _, (psi_bar, _) = curve._repooled(curve.prim, lam)
    return _interior(*_crossings(curve.theta, psi_bar, cost, float(curve.prim.b_bar)), curve.dist, curve.degenerate)


def fixed_point(curve: VirtualWeightCurve, cost: RescueCost, tol: float = DEFAULT_TOL) -> DiscretionSolution:
    """Solve g(lambda) = omega_T - omega_b*m*P_int(lambda) - lambda = 0.

    ``curve`` is the commitment curve (lambda_T = omega_T), the first
    evaluation; the distribution, primitives and grid are read from it.
    Each evaluation reads the interior probability off the curve derived at
    one lambda (see the module docstring); the cap schedule is solved once,
    at the returned lambda_T.  The search keeps the bracket
    [omega_T - omega_b*m, omega_T] (g >= 0 at its lower end, g <= 0 at its
    upper end; see the module docstring) and evaluates, in turn, omega_T,
    its Picard image omega_T + g(omega_T), and then the secant point of the
    last two evaluations.  A secant point outside the open bracket, or a
    bracket that has not halved over the last two evaluations, is replaced
    by the bracket midpoint, so every evaluation lies strictly inside the
    bracket and shrinks it.

    Stops when |g| <= ``tol`` at the evaluated point, so the returned
    (lambda_T, p_int) pair satisfies the fixed-point identity to that
    tolerance.  When the bracket shrinks to adjacent floats with
    |g| > ``tol`` at both ends, g changes sign across a jump of P_int there
    and no fixed point exists: the result has ``converged=False`` and names
    the ``jump``.  No other ending exists, so no evaluation budget is needed.

    Termination bound: with widths W_j after evaluation j, the midpoint rule
    gives W_{j+1} <= W_{j-2}/2 (up to rounding of the midpoint), so the
    bracket halves at least every three evaluations.  The floor
    omega_T - omega_b*m is a positive float difference, at least
    omega_T * 2**-54, so the float spacing anywhere in the bracket is at
    least omega_T * 2**-107 while the first width is below omega_T: the
    bracket reaches adjacent floats within 107 halvings, and the search ends
    within about 3*107 + 3 evaluations (one more when it evaluates the
    floor).  The most measured is 78: bimodal tabulated densities, 39 seeds,
    4,097 nodes, m = 0.5, tol 1e-300.
    """
    prim = curve.prim
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ParameterError("tol must be positive and finite")
    floor = effective_lambda(prim, 1.0)
    if floor <= 0.0:
        raise ParameterError("fixed point requires omega_T > omega_b * m")
    if curve.lambda_T != prim.omega_T:
        raise ParameterError("the fixed point starts from the commitment curve (lambda_T = omega_T)")

    lo, hi = floor, prim.omega_T
    p_lo = p_hi = None  # the floor is known to have g >= 0 without an evaluation
    widths = [hi - lo]
    trace: list[tuple[float, float]] = []
    residuals: list[float] = []
    best = None
    jump = None
    lam = prim.omega_T
    while True:
        p = _interior_probability_at(curve, cost, lam)
        target = effective_lambda(prim, p)
        g = target - lam
        trace.append((lam, p))
        residuals.append(g)
        if best is None or abs(g) < abs(best[0]):
            best = (g, lam, p)
        if abs(g) <= tol:
            break
        if g > 0.0:
            lo, p_lo = lam, p
        else:
            hi, p_hi = lam, p
        widths.append(hi - lo)
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            if p_lo is None:  # g may vanish exactly at the unevaluated floor
                lam = lo
                continue
            jump = Jump(hi, p_lo, p_hi)
            break
        lam = mid
        if len(trace) == 1:
            lam = target  # the Picard image of omega_T
        elif widths[-1] <= 0.5 * widths[-3] and residuals[-1] != residuals[-2]:
            (x0, _), (x1, _) = trace[-2:]
            g0, g1 = residuals[-2:]
            secant = x1 - g1 * (x1 - x0) / (g1 - g0)
            if lo < secant < hi:
                lam = secant
    _, lam, p = best
    return DiscretionSolution(lam, p, tuple(trace), (lo, hi), solve_cap(curve.at(prim, lam), cost), jump)
