"""Comparative statics of the solved cap schedule.

Two local quantities summarize the schedule: the lower cutoff ``theta_min``
(the neediest type still denied rescue) and the interior cap level
``b_max`` at the reference type theta_ref where the hazard equals one,

    h(theta_min) = alpha * lambda_T / (gamma * omega_b),
    b_max        = (psi_bar(theta_ref) - alpha) / kappa,

where psi_bar(theta_ref), the ironed weight the solver reads there, is
gamma * omega_b / lambda_T when theta_ref is unpooled (h(theta_ref) = 1),
and the pooled level, which a positive scale keeps proportional to
gamma * omega_b / lambda_T, when it lies on a pooled stretch.  Implicit
differentiation of the first identity (denominator h'(theta_min)) and
direct differentiation of the second give seven analytic partials:

    d theta_min / d alpha    = (1/h') * lambda_T / (gamma * omega_b)        > 0
    d theta_min / d omega_b  = -(1/h') * alpha * lambda_T / (gamma omega_b^2) < 0
    d theta_min / d lambda_T = (1/h') * alpha / (gamma * omega_b)           > 0
    d theta_min / d gamma    = -(1/h') * alpha * lambda_T / (gamma^2 omega_b) < 0
    d b_max / d kappa        = -(psi_bar(theta_ref) - alpha) / kappa^2      < 0
    d b_max / d lambda_T     = -psi_bar(theta_ref) / (kappa * lambda_T)     < 0
    d b_max / d gamma        = psi_bar(theta_ref) / (kappa * gamma)         > 0

with the stated signs valid whenever gamma*omega_b/lambda_T > alpha (an
interior lower cutoff exists).  An unpooled theta_ref keeps the b_max
partials in their gamma*omega_b/lambda_T forms.  A lower cutoff on or next
to a pooled stretch is rejected: psi_bar there follows the block mean, not h.

``fd_certify`` re-solves the full pipeline at centrally perturbed
parameters and reports relative errors plus a sign table; perturbed solves
that cross a regime boundary are flagged instead of silently differenced.
``m_sensitivity`` differentiates through the discretionary fixed point in
the rule-sensitivity parameter m, with analytic chain-rule values for
comparison.

These formulas are specific to quadratic costs and a constant omega_b;
other configurations are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .costs import QuadraticCost, RescueCost
from .discretion import fixed_point
from .errors import IllPosedError, ParameterError
from .mechanism import CapSchedule, VirtualWeightCurve, solve_cap
from .primitives import PolicyPrimitives

__all__ = [
    "StaticsRow", "StaticsReport", "analytic_partials", "fd_certify", "m_sensitivity", "statics_failures",
    "FD_STEP_DEFAULT", "STATICS_REL_TOL", "CHAIN_GAP_TOL",
]

_SLOPE_TOL = 1e-12

FD_STEP_DEFAULT = 1e-5  # relative step for central differences

STATICS_REL_TOL = 1e-4  # worst unflagged relative error a certification accepts
CHAIN_GAP_TOL = 1e-3  # largest fixed-point chain-rule gap it accepts

FLAG_OK = ""
FLAG_REGIME_BOUNDARY = "regime-boundary"
FLAG_NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class StaticsRow:
    partial: str
    analytic: float
    finite_difference: float
    rel_error: float
    sign_expected: int
    sign_ok: bool
    flag: str = FLAG_OK


@dataclass(frozen=True)
class StaticsReport:
    rows: tuple
    theta_min: float
    b_max: float
    theta_ref: float
    lambda_T: float
    chain_gap: Optional[float] = None

    @property
    def all_ok(self) -> bool:
        """Every unflagged row has the expected sign; flagged rows are exempt."""
        return all(r.sign_ok for r in self.rows if r.flag == FLAG_OK)

    @property
    def max_rel_error(self) -> float:
        errs = [r.rel_error for r in self.rows if r.flag == FLAG_OK]
        return max(errs) if errs else math.nan


def statics_failures(report: StaticsReport, m_report: Optional[StaticsReport]) -> list[str]:
    """One phrase per failed certification check; empty when every check passes.

    The worst unflagged relative error of ``report`` must be within
    STATICS_REL_TOL, every unflagged row of both reports must have its
    expected sign, and the fixed point's chain gap must be within
    CHAIN_GAP_TOL.
    """
    failures = []
    worst = report.max_rel_error
    if worst > STATICS_REL_TOL:
        name = next(r.partial for r in report.rows if r.flag == FLAG_OK and r.rel_error == worst)
        failures.append(f"{name} rel_error {worst:.3e} > STATICS_REL_TOL {STATICS_REL_TOL:g}")
    reports = [report] if m_report is None else [report, m_report]
    failures += [f"{r.partial} has the wrong sign (expected {r.sign_expected:+d})"
                 for rep in reports for r in rep.rows if r.flag == FLAG_OK and not r.sign_ok]
    if m_report is not None and not m_report.chain_gap <= CHAIN_GAP_TOL:
        failures.append(f"chain_gap {m_report.chain_gap:.3e} > CHAIN_GAP_TOL {CHAIN_GAP_TOL:g}")
    return failures


def _require_quadratic_scalar(prim: PolicyPrimitives, cost: RescueCost) -> QuadraticCost:
    if not isinstance(cost, QuadraticCost):
        raise ParameterError("comparative statics are derived for quadratic costs only")
    if not prim.omega_b_constant:
        raise ParameterError("comparative statics require a constant omega_b")
    return cost


def _interior_theta_min(sched: CapSchedule) -> Optional[float]:
    """Lower cutoff, or None when it is absent or stuck at the grid edge."""
    if sched.theta_min is None:
        return None
    if sched.theta_min <= float(sched.theta[0]):
        return None
    return sched.theta_min


def _pooled_stretch(sched: CapSchedule, theta: float) -> Optional[tuple[float, float]]:
    """First and last type of the pooled stretch psi_bar interpolates at ``theta``, or None."""
    i = int(np.searchsorted(sched.theta, theta))
    cell = np.flatnonzero(sched.ironed[max(i - 1, 0):i + 1])
    if not cell.size:
        return None
    node = max(i - 1, 0) + int(cell[0])
    unpooled = np.flatnonzero(~sched.ironed)
    k = int(np.searchsorted(unpooled, node))
    first = int(unpooled[k - 1]) + 1 if k else 0
    last = int(unpooled[k]) - 1 if k < unpooled.size else sched.theta.size - 1
    return float(sched.theta[first]), float(sched.theta[last])


def _hazard_reference(curve: VirtualWeightCurve) -> Optional[float]:
    """Type where the hazard crosses one on the curve's grid: the anchor for b_max."""
    dist, grid = curve.dist, curve.theta
    above = curve.hazard >= 1.0
    if bool(above[0]) or not bool(np.any(above)):
        return None
    i = int(np.argmax(above))
    lo, hi = float(grid[i - 1]), float(grid[i])
    for _ in range(200):
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if float(dist.hazard(mid)) >= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def analytic_partials(curve: VirtualWeightCurve, cost: RescueCost) -> dict:
    """The seven closed-form partials at the point solved on ``curve``.

    Raises
    ------
    IllPosedError
        If the hazard slope at the lower cutoff is zero to tolerance (the
        implicit-function denominator vanishes, e.g. constant hazards), or
        the lower cutoff lies on or next to a pooled stretch of psi_bar.
    ParameterError
        If there is no interior lower cutoff, the cost is not quadratic, or
        omega_b is type-dependent.
    """
    qcost = _require_quadratic_scalar(curve.prim, cost)
    return _partials_at(curve, solve_cap(curve, cost, curve.prim.b_bar), qcost, _hazard_reference(curve))


def _partials_at(curve: VirtualWeightCurve, sched: CapSchedule, qcost: QuadraticCost,
                 theta_ref: Optional[float]) -> dict:
    """``analytic_partials`` at the schedule already solved on ``curve``."""
    dist, prim, lam = curve.dist, curve.prim, curve.lambda_T
    theta_min = _interior_theta_min(sched)
    if theta_min is None:
        raise ParameterError("no interior lower cutoff at these parameters; statics not applicable")
    block = _pooled_stretch(sched, theta_min)
    if block is not None:
        raise IllPosedError(f"lower cutoff theta_min = {theta_min:.10g} lies on or next to the pooled stretch "
                            f"[{block[0]:.10g}, {block[1]:.10g}] of psi_bar, which moves it instead of "
                            "h'(theta_min); cutoff statics ill-posed")
    h_slope = float(dist.hazard_slope(theta_min))
    h_val = float(dist.hazard(theta_min))
    if not (h_slope > _SLOPE_TOL * max(1.0, abs(h_val))):
        raise IllPosedError("hazard slope at the lower cutoff is zero to tolerance; cutoff statics ill-posed")
    alpha, kappa = qcost.alpha, qcost.kappa
    omega_b, gamma = float(prim.omega_b), prim.gamma
    base = 1.0 / h_slope
    out = {
        "d_theta_min_d_alpha": base * lam / (gamma * omega_b),
        "d_theta_min_d_omega_b": -base * alpha * lam / (gamma * omega_b**2),
        "d_theta_min_d_lambda_T": base * alpha / (gamma * omega_b),
        "d_theta_min_d_gamma": -base * alpha * lam / (gamma**2 * omega_b),
        "d_b_max_d_kappa": -(gamma * omega_b / lam - alpha) / kappa**2,
        "d_b_max_d_lambda_T": -gamma * omega_b / (kappa * lam**2),
        "d_b_max_d_gamma": omega_b / (kappa * lam),
    }
    level = gamma * omega_b / lam
    if theta_ref is not None and _pooled_stretch(sched, theta_ref) is not None:
        level = float(curve.psi_bar_at(theta_ref))
        out.update(d_b_max_d_kappa=-(level - alpha) / kappa**2, d_b_max_d_lambda_T=-level / (kappa * lam),
                   d_b_max_d_gamma=level / (kappa * gamma))
    out["theta_min"] = theta_min
    out["b_max"] = (level - alpha) / kappa
    out["lambda_T"] = lam
    return out


_SIGNS = {
    "d_theta_min_d_alpha": +1,
    "d_theta_min_d_omega_b": -1,
    "d_theta_min_d_lambda_T": +1,
    "d_theta_min_d_gamma": -1,
    "d_b_max_d_kappa": -1,
    "d_b_max_d_lambda_T": -1,
    "d_b_max_d_gamma": +1,
}


def fd_certify(curve: VirtualWeightCurve, cost: RescueCost, step: float = FD_STEP_DEFAULT) -> StaticsReport:
    """Certify the analytic partials with central differences of the solver.

    The base point is the schedule solved on ``curve``.  ``step`` is
    relative to each parameter's magnitude.  Cutoff partials difference
    ``theta_min``; cap partials difference the solved schedule evaluated at
    the hazard-one reference type.  Each distinct virtual weight curve is
    built once, from the base curve's hazard (``VirtualWeightCurve.at``):
    the cost perturbations reuse the base curve, and the cutoff and cap
    partials share each lambda and gamma perturbation.
    """
    prim, lam = curve.prim, curve.lambda_T
    qcost = _require_quadratic_scalar(prim, cost)
    if not (0.0 < step < 1e-1):
        raise ParameterError("fd step must lie in (0, 0.1)")
    # keyed by the (omega_b, gamma, lambda) perturbation; the cost does not enter the curve
    curves = {(0.0, 0.0, 0.0): curve}
    base = solve_cap(curve, cost, prim.b_bar)
    if _interior_theta_min(base) is None:
        # no interior lower cutoff at the base point: report every partial
        # as not applicable instead of raising
        rows = tuple(
            StaticsRow(name, math.nan, math.nan, math.nan, expected, False, FLAG_NOT_APPLICABLE)
            for name, expected in _SIGNS.items()
        )
        return StaticsReport(rows=rows, theta_min=math.nan, b_max=math.nan, theta_ref=math.nan, lambda_T=lam)
    theta_ref = _hazard_reference(curve)
    analytic = _partials_at(curve, base, qcost, theta_ref)

    def solve_variant(d_alpha=0.0, d_kappa=0.0, d_omega_b=0.0, d_gamma=0.0, d_lambda=0.0):
        key = (d_omega_b, d_gamma, d_lambda)
        if key not in curves:
            p = replace(prim, omega_b=float(prim.omega_b) + d_omega_b, gamma=prim.gamma + d_gamma)
            curves[key] = curve.at(p, lam + d_lambda)
        c = QuadraticCost(qcost.alpha + d_alpha, qcost.kappa + d_kappa)
        return solve_cap(curves[key], c, prim.b_bar)

    def cutoff_of(sched: CapSchedule) -> Optional[float]:
        return _interior_theta_min(sched)

    def cap_ref_of(sched: CapSchedule) -> Optional[float]:
        if theta_ref is None:
            return None
        val = float(sched.cap_at(theta_ref))
        if not (1e-12 < val < sched.b_bar - 1e-12):
            return None
        return val

    # (name, perturbation keyword, base magnitude, quantity extractor)
    specs = [
        ("d_theta_min_d_alpha", "d_alpha", qcost.alpha, cutoff_of),
        ("d_theta_min_d_omega_b", "d_omega_b", float(prim.omega_b), cutoff_of),
        ("d_theta_min_d_lambda_T", "d_lambda", lam, cutoff_of),
        ("d_theta_min_d_gamma", "d_gamma", prim.gamma, cutoff_of),
        ("d_b_max_d_kappa", "d_kappa", qcost.kappa, cap_ref_of),
        ("d_b_max_d_lambda_T", "d_lambda", lam, cap_ref_of),
        ("d_b_max_d_gamma", "d_gamma", prim.gamma, cap_ref_of),
    ]
    rows = []
    for name, kw, magnitude, extract in specs:
        expected = _SIGNS[name]
        an = analytic[name]
        if extract is cap_ref_of and theta_ref is None:
            rows.append(StaticsRow(name, an, math.nan, math.nan, expected, False, FLAG_NOT_APPLICABLE))
            continue
        h = step * abs(magnitude)
        if h == 0.0:
            h = step
        hi = extract(solve_variant(**{kw: +h}))
        lo = extract(solve_variant(**{kw: -h}))
        if hi is None or lo is None:
            rows.append(StaticsRow(name, an, math.nan, math.nan, expected, False, FLAG_REGIME_BOUNDARY))
            continue
        fd = (hi - lo) / (2.0 * h)
        rel = abs(fd - an) / max(abs(an), 1e-12)
        sign_ok = (fd > 0) if expected > 0 else (fd < 0)
        rows.append(StaticsRow(name, an, fd, rel, expected, bool(sign_ok)))
    return StaticsReport(
        rows=tuple(rows),
        theta_min=analytic["theta_min"],
        b_max=analytic["b_max"],
        theta_ref=math.nan if theta_ref is None else theta_ref,
        lambda_T=lam,
    )


def m_sensitivity(
    curve: VirtualWeightCurve,
    cost: RescueCost,
    step: float = FD_STEP_DEFAULT,
    fp_tol: float = 1e-13,
) -> StaticsReport:
    """Sensitivity of the discretionary solution to the rule slope m.

    Differentiates the converged fixed point in m by central differences
    (the inner iteration runs at ``fp_tol`` so the difference quotient is
    not dominated by fixed-point noise).  Analytic columns come from the
    implicit-function chain

        d lambda / d m   = -omega_b * p / (1 + omega_b * m * dp/dlambda),
        d theta_min / dm = (d theta_min / d lambda) * (d lambda / d m),
        d b_max / d m    = (d b_max    / d lambda) * (d lambda / d m),

    with dp/dlambda assembled from the cutoff partials and the density at
    the cutoffs.  ``chain_gap`` reports the relative gap between the FD
    cutoff sensitivity and the chain-rule product built from the FD lambda
    sensitivity.

    ``curve`` is the commitment curve (lambda_T = omega_T).  m does not
    enter psi, so the three fixed points start from copies of it that
    differ only in m and share its ironing.
    """
    dist, prim = curve.dist, curve.prim
    qcost = _require_quadratic_scalar(prim, cost)
    if prim.m <= 0.0:
        raise ParameterError("m sensitivity needs m > 0")
    h = step * prim.m

    def solve_at(m_val: float):
        sol = fixed_point(curve.at(replace(prim, m=m_val), curve.lambda_T), cost, tol=fp_tol)
        if not sol.converged:
            raise IllPosedError("fixed point did not converge during m perturbation")
        return sol

    base = solve_at(prim.m)
    up, dn = solve_at(prim.m + h), solve_at(prim.m - h)
    theta_ref = _hazard_reference(curve)

    lam0 = base.lambda_T
    fd_lambda = (up.lambda_T - dn.lambda_T) / (2.0 * h)
    tm_up, tm_dn = _interior_theta_min(up.schedule), _interior_theta_min(dn.schedule)
    if tm_up is None or tm_dn is None:
        raise ParameterError("m perturbation crossed a regime boundary; shrink the step")
    fd_theta_min = (tm_up - tm_dn) / (2.0 * h)
    if theta_ref is None:
        fd_b_max = math.nan
    else:
        fd_b_max = (float(up.schedule.cap_at(theta_ref)) - float(dn.schedule.cap_at(theta_ref))) / (2.0 * h)

    an = _partials_at(base.curve, base.schedule, qcost, theta_ref)
    theta_min0 = an["theta_min"]
    theta_dag0 = base.schedule.theta_dagger
    dp_dlam = -float(dist.pdf(theta_min0)) * an["d_theta_min_d_lambda_T"]
    if theta_dag0 is not None:
        slope_dag = float(dist.hazard_slope(theta_dag0))
        if slope_dag > _SLOPE_TOL:
            d_theta_dag_d_lambda = (qcost.alpha + qcost.kappa * prim.b_bar) / (prim.gamma * float(prim.omega_b) * slope_dag)
            dp_dlam += float(dist.pdf(theta_dag0)) * d_theta_dag_d_lambda
    an_lambda = -float(prim.omega_b) * base.p_int / (1.0 + float(prim.omega_b) * prim.m * dp_dlam)
    an_theta_min = an["d_theta_min_d_lambda_T"] * an_lambda
    an_b_max = an["d_b_max_d_lambda_T"] * an_lambda

    chain_fd = an["d_theta_min_d_lambda_T"] * fd_lambda
    chain_gap = abs(fd_theta_min - chain_fd) / max(abs(fd_theta_min), 1e-12)

    def row(name, analytic_value, fd_value, expected):
        if math.isnan(fd_value):
            return StaticsRow(name, analytic_value, math.nan, math.nan, expected, False, FLAG_NOT_APPLICABLE)
        rel = abs(fd_value - analytic_value) / max(abs(analytic_value), 1e-12)
        sign_ok = (fd_value > 0) if expected > 0 else (fd_value < 0)
        return StaticsRow(name, analytic_value, fd_value, rel, expected, bool(sign_ok))

    rows = (
        row("d_lambda_T_d_m", an_lambda, fd_lambda, -1),
        row("d_theta_min_d_m", an_theta_min, fd_theta_min, -1),
        row("d_b_max_d_m", an_b_max, fd_b_max, +1),
    )
    return StaticsReport(
        rows=rows,
        theta_min=theta_min0,
        b_max=an["b_max"],
        theta_ref=math.nan if theta_ref is None else theta_ref,
        lambda_T=lam0,
        chain_gap=chain_gap,
    )
