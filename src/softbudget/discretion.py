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
that same lambda_T.  ``fixed_point`` iterates this map (starting from the
commitment value lambda_T = omega_T) and returns the full trace;
the map sends [omega_T - omega_b*m, omega_T] into itself, so iterates stay
in that interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .costs import QuadraticCost, RescueCost
from .distributions import TypeDistribution
from .errors import ParameterError, UnsupportedRuleError
from .mechanism import CapSchedule, VirtualWeightCurve, solve_cap, virtual_weight
from .primitives import PolicyPrimitives

__all__ = [
    "SignalRule",
    "DiscretionSolution",
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


@dataclass(frozen=True)
class DiscretionSolution:
    """Converged (or best-effort) credibility fixed point.

    ``curve`` and ``schedule`` are the last evaluation's virtual-weight
    curve and cap schedule, both at ``lambda_T`` when ``converged``.
    """

    lambda_T: float
    p_int: float
    iterations: int
    converged: bool
    trace: tuple
    schedule: CapSchedule = field(repr=False)
    curve: VirtualWeightCurve = field(repr=False)


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
    if cap.theta.size == 1:
        return 1.0 if cap.regime == "interior" else 0.0
    if cap.theta_min is None:
        return 0.0
    upper_surv = 0.0 if cap.theta_dagger is None else float(dist.survivor(cap.theta_dagger))
    return float(dist.survivor(cap.theta_min)) - upper_surv


def fixed_point(
    curve: VirtualWeightCurve,
    cost: RescueCost,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DiscretionSolution:
    """Iterate lambda -> omega_T - omega_b*m*P_int(lambda) to a fixed point.

    ``curve`` is the commitment curve (lambda_T = omega_T), the start of the
    iteration; the distribution, primitives and grid are read from it.  Each
    iteration solves the full cap schedule at the current lambda to evaluate
    the interior probability.  Stops when the residual |map(lambda) - lambda|
    falls below ``tol``, so the returned (lambda_T, p_int) pair satisfies the
    fixed-point identity to that tolerance.  Exhausting ``max_iter`` returns
    the best iterate with ``converged=False`` rather than raising.
    """
    dist, prim = curve.dist, curve.prim
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

    lam = prim.omega_T
    trace: list[tuple[float, float]] = []
    p = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if curve.lambda_T != lam:
            curve = virtual_weight(dist, prim, lam, curve.grid_size, curve.tail_mass)
        schedule = solve_cap(curve, cost, prim.b_bar)
        p = interior_probability(schedule, dist)
        trace.append((lam, p))
        target = effective_lambda(prim, p)
        residual = target - lam
        if abs(residual) <= tol:
            converged = True
            break
        lam = lam + residual
    return DiscretionSolution(lam, p, iterations, converged, tuple(trace), schedule, curve)
