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
Unless alpha < psi_bar(theta_ref) <= C'(b_bar), the cap at theta_ref is 0 or
b_bar, so b_max is NaN and its partials are not applicable.

``fd_certify`` re-solves the full pipeline at centrally perturbed
parameters and reports relative errors plus a sign table; perturbed solves
that cross a regime boundary (for the cap rows: a cap of 0 or b_bar on
either node around theta_ref, where the schedule kinks), or a perturbation
that leaves its parameter's domain (alpha - h < 0 at alpha = 0), are
flagged instead of differenced.  A report that certifies no row fails.
``m_sensitivity`` differentiates through the discretionary fixed point in
the rule-sensitivity parameter m, with analytic chain-rule values for
comparison.  Its rows follow the same flag rules, with one difference
helper for all ten rows: a fixed point at m +- h with a jump of P_int or
no interior lower cutoff crosses a regime boundary, and ``chain_gap`` is
None when either of its two rows is flagged.

These formulas are specific to quadratic costs and a constant omega_b;
other configurations are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .costs import QuadraticCost, RescueCost
from .discretion import DiscretionSolution, fixed_point, fixed_point_failure
from .errors import IllPosedError, NumericalError, ParameterError
from .mechanism import CapSchedule, VirtualWeightCurve, solve_cap
from .primitives import PolicyPrimitives

__all__ = [
    "StaticsRow", "StaticsReport", "analytic_partials", "fd_certify", "m_sensitivity", "statics_failures",
    "FD_STEP", "FIXED_POINT_TOL", "STATICS_REL_TOL", "CHAIN_GAP_TOL",
]

_SLOPE_TOL = 1e-12

FD_STEP = 1e-5  # relative step for central differences, read at each call
FIXED_POINT_TOL = 1e-13  # |g| to which m_sensitivity solves the fixed points it differences

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
    def max_rel_error(self) -> float:
        errs = [r.rel_error for r in self.rows if r.flag == FLAG_OK]
        return max(errs) if errs else math.nan


def statics_failures(report: StaticsReport, m_report: Optional[StaticsReport]) -> list[str]:
    """One phrase per failed certification check; empty when every check passes.

    Some row of the two reports must be unflagged (certified); every
    unflagged row of ``report`` must have a relative error within
    STATICS_REL_TOL; every unflagged row of both reports must have its
    expected sign; and the fixed point's chain gap, where both of its rows
    are certified, must be within CHAIN_GAP_TOL.
    """
    reports = [report] if m_report is None else [report, m_report]
    failures = [] if any(r.flag == FLAG_OK for rep in reports for r in rep.rows) else ["no partial was certified"]
    failures += [f"{r.partial} rel_error {r.rel_error:.3e} > STATICS_REL_TOL {STATICS_REL_TOL:g}"
                 for r in report.rows if r.flag == FLAG_OK and r.rel_error > STATICS_REL_TOL]
    failures += [f"{r.partial} has the wrong sign (expected {r.sign_expected:+d})"
                 for rep in reports for r in rep.rows if r.flag == FLAG_OK and not r.sign_ok]
    gap = None if m_report is None else m_report.chain_gap
    if gap is not None and not gap <= CHAIN_GAP_TOL:
        failures.append(f"chain_gap {gap:.3e} > CHAIN_GAP_TOL {CHAIN_GAP_TOL:g}")
    return failures


def _require_quadratic_scalar(prim: PolicyPrimitives, cost: RescueCost) -> QuadraticCost:
    if not isinstance(cost, QuadraticCost):
        raise ParameterError("comparative statics are derived for quadratic costs only")
    if not prim.omega_b_constant:
        raise ParameterError("comparative statics require a constant omega_b")
    return cost


def _interior_theta_min(sched: CapSchedule) -> Optional[float]:
    """Lower cutoff, or None when it is absent or stuck at the grid edge."""
    theta_min = sched.theta_min
    return None if theta_min is None or theta_min <= float(sched.curve.theta[0]) else theta_min


def _pooled_stretch(curve: VirtualWeightCurve, theta: float) -> Optional[tuple[float, float]]:
    """First and last type of the pooled stretch psi_bar interpolates at ``theta``, or None."""
    i = int(np.searchsorted(curve.theta, theta))
    cell = np.flatnonzero(curve.ironed[max(i - 1, 0):i + 1])
    if not cell.size:
        return None
    node = max(i - 1, 0) + int(cell[0])
    unpooled = np.flatnonzero(~curve.ironed)
    k = int(np.searchsorted(unpooled, node))
    first = int(unpooled[k - 1]) + 1 if k else 0
    last = int(unpooled[k]) - 1 if k < unpooled.size else curve.theta.size - 1
    return float(curve.theta[first]), float(curve.theta[last])


def _hazard_reference(curve: VirtualWeightCurve) -> Optional[float]:
    """Type where the hazard crosses one, bisected on the exact hazard in its grid cell: the anchor for b_max."""
    above = curve.hazard >= 1.0
    if bool(above[0]) or not bool(np.any(above)):
        return None
    i = int(np.argmax(above))
    lo, hi = float(curve.theta[i - 1]), float(curve.theta[i])
    while hi - lo > 1e-15 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if float(curve.dist.hazard(mid)) >= 1.0:
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
    return _partials_at(solve_cap(curve, cost), qcost, _hazard_reference(curve))


def _partials_at(sched: CapSchedule, qcost: QuadraticCost, theta_ref: Optional[float]) -> dict:
    """``analytic_partials`` at a schedule already solved."""
    curve = sched.curve
    dist, prim, lam = curve.dist, curve.prim, curve.lambda_T
    theta_min = _interior_theta_min(sched)
    if theta_min is None:
        raise ParameterError("no interior lower cutoff at these parameters; statics not applicable")
    block = _pooled_stretch(curve, theta_min)
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
    if theta_ref is not None and _pooled_stretch(curve, theta_ref) is not None:
        level = float(curve.psi_bar_at(theta_ref))
        out.update(d_b_max_d_kappa=-(level - alpha) / kappa**2, d_b_max_d_lambda_T=-level / (kappa * lam),
                   d_b_max_d_gamma=level / (kappa * gamma))
    out["theta_min"] = theta_min
    out["b_max"] = (level - alpha) / kappa if alpha < level <= alpha + kappa * prim.b_bar else math.nan
    out["lambda_T"] = lam
    return out


# the expected sign of every certified partial: the seven commitment partials, then the three in m
_SIGNS = {
    "d_theta_min_d_alpha": +1,
    "d_theta_min_d_omega_b": -1,
    "d_theta_min_d_lambda_T": +1,
    "d_theta_min_d_gamma": -1,
    "d_b_max_d_kappa": -1,
    "d_b_max_d_lambda_T": -1,
    "d_b_max_d_gamma": +1,
    "d_lambda_T_d_m": -1,
    "d_theta_min_d_m": -1,
    "d_b_max_d_m": +1,
}


def _central(name: str, analytic: float, h: float,
             quantity: Optional[Callable[[float], Optional[float]]]) -> StaticsRow:
    """The row of ``name``: ``analytic`` against the central difference of ``quantity`` at +h and -h.

    With no quantity the row is not applicable.  A side whose quantity is
    None, or whose perturbed parameter leaves its domain (ParameterError, as
    alpha - h does at alpha = 0), lies across a regime boundary: the row is
    flagged instead of differenced.
    """
    expected = _SIGNS[name]
    if quantity is None:
        return StaticsRow(name, analytic, math.nan, math.nan, expected, False, FLAG_NOT_APPLICABLE)
    try:
        hi, lo = quantity(+h), quantity(-h)
    except ParameterError:
        hi = lo = None
    if hi is None or lo is None:
        return StaticsRow(name, analytic, math.nan, math.nan, expected, False, FLAG_REGIME_BOUNDARY)
    fd = (hi - lo) / (2.0 * h)
    rel = abs(fd - analytic) / max(abs(analytic), 1e-12)
    return StaticsRow(name, analytic, fd, rel, expected, bool(fd > 0 if expected > 0 else fd < 0))


def _not_applicable(names, lambda_T: float) -> StaticsReport:
    """The report at a base point without an interior lower cutoff: every row not applicable."""
    rows = tuple(_central(name, math.nan, math.nan, None) for name in names)
    return StaticsReport(rows=rows, theta_min=math.nan, b_max=math.nan, theta_ref=math.nan, lambda_T=lambda_T)


def _cap_ref_of(sched: CapSchedule, theta_ref: float) -> Optional[float]:
    """The cap at ``theta_ref``; None where a cap of 0 or b_bar on either node around it puts a kink in its cell."""
    j = int(np.searchsorted(sched.curve.theta, theta_ref))
    caps = sched.b_star[max(j - 1, 0):j + 1]
    return float(sched.cap_at(theta_ref)) if np.all((caps > 0.0) & (caps < sched.curve.prim.b_bar)) else None


def fd_certify(curve: VirtualWeightCurve, cost: RescueCost) -> StaticsReport:
    """Certify the analytic partials with central differences of the solver.

    The base point is the schedule solved on ``curve``.  The step is
    ``FD_STEP`` relative to each parameter's magnitude.  Cutoff partials difference
    ``theta_min``; cap partials difference the solved schedule evaluated at
    the hazard-one reference type.  Each distinct virtual weight curve is
    built once, from the base curve's hazard and pooled blocks
    (``VirtualWeightCurve.at``): the cost perturbations reuse the base
    curve, and the cutoff and cap partials share each lambda and gamma
    perturbation.
    """
    prim, lam = curve.prim, curve.lambda_T
    qcost = _require_quadratic_scalar(prim, cost)
    # keyed by the (omega_b, gamma, lambda) perturbation; the cost does not enter the curve
    curves = {(0.0, 0.0, 0.0): curve}
    base = solve_cap(curve, cost)
    if _interior_theta_min(base) is None:
        return _not_applicable(tuple(_SIGNS)[:7], lam)
    theta_ref = _hazard_reference(curve)
    analytic = _partials_at(base, qcost, theta_ref)

    def solve_variant(d_alpha=0.0, d_kappa=0.0, d_omega_b=0.0, d_gamma=0.0, d_lambda=0.0):
        key = (d_omega_b, d_gamma, d_lambda)
        if key not in curves:
            p = replace(prim, omega_b=float(prim.omega_b) + d_omega_b, gamma=prim.gamma + d_gamma)
            curves[key] = curve.at(p, lam + d_lambda)
        c = QuadraticCost(qcost.alpha + d_alpha, qcost.kappa + d_kappa)
        return solve_cap(curves[key], c)

    has_b_max = theta_ref is not None and not math.isnan(analytic["b_max"])
    cap_ref_of = (lambda sched: _cap_ref_of(sched, theta_ref)) if has_b_max else None

    # (name, perturbation keyword, base magnitude, quantity extractor)
    specs = [
        ("d_theta_min_d_alpha", "d_alpha", qcost.alpha, _interior_theta_min),
        ("d_theta_min_d_omega_b", "d_omega_b", float(prim.omega_b), _interior_theta_min),
        ("d_theta_min_d_lambda_T", "d_lambda", lam, _interior_theta_min),
        ("d_theta_min_d_gamma", "d_gamma", prim.gamma, _interior_theta_min),
        ("d_b_max_d_kappa", "d_kappa", qcost.kappa, cap_ref_of),
        ("d_b_max_d_lambda_T", "d_lambda", lam, cap_ref_of),
        ("d_b_max_d_gamma", "d_gamma", prim.gamma, cap_ref_of),
    ]
    rows = tuple(_central(name, analytic[name], FD_STEP * abs(magnitude) or FD_STEP,
                          None if extract is None else (lambda d, kw=kw, ex=extract: ex(solve_variant(**{kw: d}))))
                 for name, kw, magnitude, extract in specs)
    return StaticsReport(rows=rows, theta_min=analytic["theta_min"], b_max=analytic["b_max"],
                         theta_ref=math.nan if theta_ref is None else theta_ref, lambda_T=lam)


def m_sensitivity(curve: VirtualWeightCurve, cost: RescueCost) -> StaticsReport:
    """Sensitivity of the discretionary solution to the rule slope m.

    Differentiates the converged fixed point in m by central differences of
    relative step ``FD_STEP`` (each fixed point is solved to ``FIXED_POINT_TOL`` so the difference
    quotient is not dominated by fixed-point noise).  Analytic columns come
    from the implicit-function chain

        d lambda / d m   = -omega_b * p / (1 + omega_b * m * dp/dlambda),
        d theta_min / dm = (d theta_min / d lambda) * (d lambda / d m),
        d b_max / d m    = (d b_max    / d lambda) * (d lambda / d m),

    with dp/dlambda assembled from the cutoff partials and the density at
    the cutoffs.  ``chain_gap`` reports the relative gap between the FD
    cutoff sensitivity and the chain-rule product built from the FD lambda
    sensitivity; it is None when either of those rows is flagged.

    The rows follow ``fd_certify``'s rules.  A fixed point at m +- h with a
    jump of P_int or no interior lower cutoff lies across a regime boundary
    (lambda(m) kinks there) and flags all three rows; no fixed point at m
    itself raises NumericalError, naming the jump.  At m = 0 the rule has no
    slope to perturb within its domain, and the three rows are not applicable.

    ``curve`` is the commitment curve (lambda_T = omega_T).  The three fixed
    points start from curves derived from it that differ only in m, and
    every curve they derive inherits its pooled blocks; each is solved once.
    """
    dist, prim = curve.dist, curve.prim
    qcost = _require_quadratic_scalar(prim, cost)
    h = FD_STEP * prim.m
    solutions = {}

    def solved(dm: float) -> Optional[DiscretionSolution]:
        """The fixed point at m + dm, solved once; None across a regime boundary."""
        if dm not in solutions:
            sol = fixed_point(curve.at(replace(prim, m=prim.m + dm), curve.lambda_T), cost, tol=FIXED_POINT_TOL)
            if not sol.converged and dm == 0.0:
                raise NumericalError(fixed_point_failure(sol))
            solutions[dm] = sol
        sol = solutions[dm]
        return sol if sol.converged and _interior_theta_min(sol.schedule) is not None else None

    def of(read):
        return lambda dm: None if solved(dm) is None else read(solved(dm))

    base = solved(0.0)
    if base is None or h == 0.0:
        return _not_applicable(tuple(_SIGNS)[7:], solutions[0.0].lambda_T)
    theta_ref = _hazard_reference(curve)
    an = _partials_at(base.schedule, qcost, theta_ref)
    theta_min0 = an["theta_min"]
    theta_dag0 = base.schedule.theta_dagger
    dp_dlam = -float(dist.pdf(theta_min0)) * an["d_theta_min_d_lambda_T"]
    if theta_dag0 is not None:
        slope_dag = float(dist.hazard_slope(theta_dag0))
        if slope_dag > _SLOPE_TOL:
            d_theta_dag_d_lambda = (qcost.alpha + qcost.kappa * prim.b_bar) / (prim.gamma * float(prim.omega_b) * slope_dag)
            dp_dlam += float(dist.pdf(theta_dag0)) * d_theta_dag_d_lambda
    an_lambda = -float(prim.omega_b) * base.p_int / (1.0 + float(prim.omega_b) * prim.m * dp_dlam)
    has_b_max = theta_ref is not None and not math.isnan(an["b_max"])

    rows = (
        _central("d_lambda_T_d_m", an_lambda, h, of(lambda sol: sol.lambda_T)),
        _central("d_theta_min_d_m", an["d_theta_min_d_lambda_T"] * an_lambda, h,
                 of(lambda sol: sol.schedule.theta_min)),
        _central("d_b_max_d_m", an["d_b_max_d_lambda_T"] * an_lambda, h,
                 of(lambda sol: _cap_ref_of(sol.schedule, theta_ref)) if has_b_max else None),
    )
    chain_gap = None
    if rows[0].flag == FLAG_OK and rows[1].flag == FLAG_OK:
        fd_lambda, fd_theta_min = rows[0].finite_difference, rows[1].finite_difference
        chain_fd = an["d_theta_min_d_lambda_T"] * fd_lambda
        chain_gap = abs(fd_theta_min - chain_fd) / max(abs(fd_theta_min), 1e-12)
    return StaticsReport(rows=rows, theta_min=theta_min0, b_max=an["b_max"],
                         theta_ref=math.nan if theta_ref is None else theta_ref, lambda_T=base.lambda_T,
                         chain_gap=chain_gap)
