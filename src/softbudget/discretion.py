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
1/lambda_T, and ironing commutes with a positive scale, so the cutoffs at
any lambda are crossings of the commitment curve's ironed weight psi_bar
at targets C'(0) * lambda / omega_T and C'(b_bar) * lambda / omega_T: an
evaluation of P_int costs two crossings and two survivor calls.  A
credible lambda_T is a root of

    g(lambda) = omega_T - omega_b * m * P_int(lambda) - lambda.

Because P_int lies in [0, 1], g >= 0 at the floor omega_T - omega_b*m and
g <= 0 at omega_T, so [omega_T - omega_b*m, omega_T] brackets every root
without evaluating either end.  ``fixed_point`` solves g = 0 inside that
bracket by a safeguarded secant method (Dekker/Brent style): it evaluates
first at omega_T on the caller's commitment curve, then at the Picard image
of omega_T, then at the secant point of the last two evaluations, falling
back to the bracket midpoint whenever the secant point leaves the open
bracket or the bracket has not halved over the last two evaluations, so
the bracket shrinks geometrically and every evaluation stays inside it.
P_int can jump (for a point mass it is 0 or 1), and then g may change sign
without a root; the bracket then collapses onto adjacent floats with
|g| > tol at both ends, and the solver reports the jump by name instead of
running out of evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .costs import QuadraticCost, RescueCost
from .distributions import TypeDistribution
from .errors import ParameterError, UnsupportedRuleError
from .mechanism import CapSchedule, VirtualWeightCurve, _rescaled_crossing, solve_cap
from .primitives import PolicyPrimitives

__all__ = [
    "SignalRule",
    "DiscretionSolution",
    "Jump",
    "effective_lambda",
    "interior_probability",
    "fixed_point",
]

THRESHOLD = "threshold"
THRESHOLD_LINEAR_CAP = "threshold-linear-cap"

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 1000


@dataclass(frozen=True)
class SignalRule:
    """Payout rule over audited gap signals.

    ``threshold`` shape pays a flat ``level`` above the threshold signal and
    nothing below (slope zero almost everywhere).  ``threshold-linear-cap``
    is the discretionary shape: zero below the threshold, slope ``slope`` on
    the interior branch, flat at ``cap``.
    """

    shape: str
    threshold: float
    cap: float
    slope: float = 0.0
    level: float = 0.0

    def __post_init__(self):
        if self.shape not in (THRESHOLD, THRESHOLD_LINEAR_CAP):
            raise ParameterError(f"unknown signal-rule shape '{self.shape}'")
        for name in ("threshold", "cap", "slope", "level"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"signal rule field {name} must be finite")
        if self.cap <= 0.0:
            raise ParameterError("signal rule cap must be positive")
        if self.shape == THRESHOLD:
            if self.slope != 0.0:
                raise ParameterError("threshold rules have slope 0")
            if not (0.0 <= self.level <= self.cap):
                raise ParameterError("threshold rule level must lie in [0, cap]")
        else:
            if not (0.0 <= self.slope < 1.0):
                raise ParameterError("interior slope must lie in [0, 1)")
            if self.level != 0.0:
                raise ParameterError("threshold-linear-cap rules do not take a level")

    @classmethod
    def discretionary(cls, prim: PolicyPrimitives, cost: RescueCost) -> "SignalRule":
        """Ex-post optimal rule for the quadratic cost technology."""
        if not isinstance(cost, QuadraticCost):
            raise UnsupportedRuleError("discretionary rule is derived for quadratic costs only")
        slope = prim.chi / (cost.kappa + prim.chi)
        return cls(
            shape=THRESHOLD_LINEAR_CAP,
            threshold=cost.alpha / prim.chi,
            cap=prim.b_bar,
            slope=slope,
        )

    def payout(self, g_hat):
        """Rule payout at signal value(s); nondecreasing in the signal."""
        arr = np.asarray(g_hat, dtype=float)
        if self.shape == THRESHOLD:
            out = np.where(arr >= self.threshold, self.level, 0.0)
        else:
            out = np.clip(self.slope * (arr - self.threshold), 0.0, self.cap)
        return float(out) if arr.ndim == 0 else out


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
    """Converged (or best-effort) credibility fixed point.

    ``trace`` lists the evaluated (lambda, p_int) pairs in order and
    ``iterations`` counts them.  ``bracket`` is the final (lo, hi) with
    g(lo) >= 0 >= g(hi).  ``jump`` is set when the bracket collapsed onto a
    jump of P_int, so that no fixed point exists.  ``lambda_T`` and ``p_int``
    are the evaluated point with the smallest |g| (the one with
    |g| <= tol when ``converged``), and ``curve`` and ``schedule`` are the
    virtual-weight curve and cap schedule at that ``lambda_T``.
    """

    lambda_T: float
    p_int: float
    iterations: int
    converged: bool
    trace: tuple
    bracket: tuple
    schedule: CapSchedule = field(repr=False)
    curve: VirtualWeightCurve = field(repr=False)
    jump: Optional[Jump] = None


def effective_lambda(prim: PolicyPrimitives, p_int: float) -> float:
    """Effective transfer multiplier omega_T - omega_b * m * p_int."""
    if not prim.omega_b_constant:
        raise ParameterError("effective lambda requires a constant omega_b")
    if not (0.0 <= p_int <= 1.0):
        raise ParameterError("interior probability must lie in [0, 1]")
    return prim.omega_T - float(prim.omega_b) * prim.m * p_int


def interior_probability(cap: CapSchedule, dist: TypeDistribution) -> float:
    """P(0 < b*(theta) < b_bar) from the schedule cutoffs and the exact CDF.

    A point mass has one type, so the probability is 1 when its cap is
    interior and 0 otherwise; the survivor P(type > theta_min) would miss
    the atom at theta_min.
    """
    return _interior(cap.theta_min, cap.theta_dagger, dist, cap.theta.size == 1)


def _interior(theta_min: Optional[float], theta_dagger: Optional[float], dist: TypeDistribution,
              degenerate: bool) -> float:
    if theta_min is None:
        return 0.0
    if degenerate:
        return 1.0 if theta_dagger is None else 0.0
    upper_surv = 0.0 if theta_dagger is None else float(dist.survivor(theta_dagger))
    return float(dist.survivor(theta_min)) - upper_surv


def _interior_probability_at(curve: VirtualWeightCurve, cost: RescueCost, lam: float) -> float:
    """``interior_probability`` of the schedule solved at ``lam``, read off the commitment ``curve``.

    Both cutoffs are rescaled crossings of ``curve.psi_bar``, equal to the
    ones ``solve_cap`` finds on the curve at ``lam``; no curve, ironing or
    cap array is built.
    """
    prim = curve.prim
    theta_min = _rescaled_crossing(curve, lam, cost.marginal_at_zero, strict=True)
    theta_dagger = None if theta_min is None else _rescaled_crossing(curve, lam, float(cost.marginal(prim.b_bar)),
                                                                      strict=False)
    return _interior(theta_min, theta_dagger, curve.dist, curve.degenerate)


def fixed_point(
    curve: VirtualWeightCurve,
    cost: RescueCost,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DiscretionSolution:
    """Solve g(lambda) = omega_T - omega_b*m*P_int(lambda) - lambda = 0.

    ``curve`` is the commitment curve (lambda_T = omega_T), the first
    evaluation; the distribution, primitives and grid are read from it.
    Each evaluation finds the interior probability at one lambda from two
    crossings of the commitment curve's psi_bar at rescaled targets (see the
    module docstring); the curve and cap schedule are built once, at the
    returned lambda_T.  The search keeps the bracket
    [omega_T - omega_b*m, omega_T] (g >= 0 at its lower end, g <= 0 at its
    upper end; see the module docstring) and evaluates, in turn, omega_T,
    its Picard image omega_T + g(omega_T), and then the secant point of the
    last two evaluations.  A secant point outside the open bracket, or a
    bracket that has not halved over the last two evaluations, is replaced
    by the bracket midpoint, so every evaluation lies inside the bracket
    and the search ends.

    Stops when |g| <= ``tol`` at the evaluated point, so the returned
    (lambda_T, p_int) pair satisfies the fixed-point identity to that
    tolerance.  When the bracket shrinks to adjacent floats with
    |g| > ``tol`` at both ends, g changes sign across a jump of P_int there
    and no fixed point exists: the result has ``converged=False`` and names
    the ``jump``.  Exhausting ``max_iter`` evaluations also returns
    ``converged=False``, with the best point found, rather than raising.
    """
    prim = curve.prim
    if not prim.omega_b_constant:
        raise ParameterError("the credibility fixed point requires a constant omega_b")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ParameterError("tol must be positive and finite")
    if max_iter < 1:
        raise ParameterError("max_iter must be at least 1")
    floor = prim.omega_T - float(prim.omega_b) * prim.m
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
        if len(trace) == max_iter:
            break
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
    g, lam, p = best
    curve = curve.at(prim, lam)
    return DiscretionSolution(lam, p, len(trace), abs(g) <= tol, tuple(trace), (lo, hi),
                              solve_cap(curve, cost, prim.b_bar), curve, jump)
