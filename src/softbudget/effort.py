"""The recipient's effort problem under a threshold rescue rule.

The screening solver reduces the three-stage problem to one-dimensional
screening: the recipient's effort stage is solved away, and no command reads
this module.  It keeps that stage as a checked model of its own.
``solve_effort`` solves the recipient's effort condition

    R_e(e, theta) * (1 + phi_d * Lambda(e)) = phi_e,

for a :class:`ThresholdRule` (slope zero almost everywhere), where
Lambda(e) = E[f_eta(G_hat - beta(G_hat))] is the expected noise density at
the post-rescue residual gap.  With Gaussian audit noise the expectation has
an exact Gaussian-product form per rule branch, which this module uses
directly: node-based quadrature cannot meet the stated residual tolerance
across the rule's jump.  With phi_d = 0 the condition collapses to the
closed form e* = rho(theta)/phi_e - 1.

An :class:`EffortParameters` bundle holds the effort problem's parameters:

* ``phi_e``, ``phi_d`` -- marginal effort disutility and default welfare
  loss,
* ``eta_scale`` -- standard deviation of the audit noise on the fiscal gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import NumericalError, ParameterError

__all__ = ["EffortParameters", "ThresholdRule", "RevenueModel", "EffortSolution", "gap_density_at_rule",
           "solve_effort"]


@dataclass(frozen=True)
class EffortParameters:
    """Validated parameters of the recipient's effort problem."""

    phi_e: float = 1.0
    phi_d: float = 0.0
    eta_scale: float = 0.1

    def __post_init__(self):
        for name in ("phi_e", "eta_scale"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ParameterError(f"{name} must be positive and finite")
        if not (self.phi_d >= 0.0 and math.isfinite(self.phi_d)):
            raise ParameterError("phi_d must be nonnegative and finite")


@dataclass(frozen=True)
class ThresholdRule:
    """A threshold rescue rule over audited gap signals: a flat ``level`` at or above ``threshold``, nothing below."""

    threshold: float
    cap: float
    level: float

    def __post_init__(self):
        for name in ("threshold", "cap", "level"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"threshold rule field {name} must be finite")
        if self.cap <= 0.0:
            raise ParameterError("threshold rule cap must be positive")
        if not (0.0 <= self.level <= self.cap):
            raise ParameterError("threshold rule level must lie in [0, cap]")


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


def gap_density_at_rule(gap: float, rule: ThresholdRule, noise_scale: float) -> float:
    """E_eta[ f_eta(G_hat - rule(G_hat)) ] for Gaussian audit noise.

    The observed signal is G_hat = gap + eta with eta ~ N(0, noise_scale^2).
    On each branch of a threshold rule the integrand is a product of two
    Gaussians, so per branch

        integral = pdf(gap - level; sqrt(2)*scale) * Gaussian mass of the
                   branch around (gap + level)/2,

    which this function assembles exactly.  The expectation is continuous in
    the gap, which the effort solver's tolerance contract requires.
    """
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
    params: EffortParameters,
    rule: ThresholdRule,
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
    if report_cap is not None and report_cap < 0.0:
        raise ParameterError("report_cap must be nonnegative")
    rho = revenue.rho(theta)
    phi_e, phi_d, scale = params.phi_e, params.phi_d, params.eta_scale

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
    # Lambda(e) is an expectation of the noise density, so Lambda <= lam_peak and foc(e) <= 0 for e >= e_hi
    e_hi = max(e_hi, 1e-6)
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
