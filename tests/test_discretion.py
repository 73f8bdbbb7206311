import numpy as np
import pytest

from softbudget import (
    Exponential,
    ParameterError,
    PointMass,
    PolicyPrimitives,
    QuadraticCost,
    SignalRule,
    TabulatedCost,
    UnsupportedRuleError,
    effective_lambda,
    fixed_point,
    interior_probability,
    solve_cap,
    virtual_weight,
)
from conftest import BENCH


# -- ex-post rule -----------------------------------------------------------


def test_discretionary_payout_branches(bench_cost, bench_prim):
    # chi = 1, alpha = 0.2, kappa = 1: payout = clip((g - 0.2)/2, 0, 0.8)
    rule = SignalRule.discretionary(bench_prim, bench_cost)
    assert rule.payout(0.2) == 0.0
    assert rule.payout(1.0) == pytest.approx(0.4, abs=1e-15)
    assert rule.payout(10.0) == 0.8
    arr = rule.payout(np.array([0.0, 1.0, 5.0]))
    assert np.allclose(arr, [0.0, 0.4, 0.8])


def test_discretionary_payout_needs_quadratic_cost(bench_prim):
    tab = TabulatedCost([0.0, 1.0], [0.1, 0.5])
    with pytest.raises(UnsupportedRuleError):
        SignalRule.discretionary(bench_prim, tab)


def test_discretionary_rule_shape(bench_cost, bench_prim):
    rule = SignalRule.discretionary(bench_prim, bench_cost)
    assert rule.shape == "threshold-linear-cap"
    assert rule.threshold == pytest.approx(0.2, abs=1e-15)
    assert rule.slope == pytest.approx(0.5, abs=1e-15)
    assert rule.cap == 0.8
    # the rule reproduces the closed-form payout (chi*g - alpha)/(kappa + chi)
    # projected to [0, b_bar], and is continuous
    grid = np.linspace(0.0, 3.0, 1201)
    chi, alpha, kappa = bench_prim.chi, bench_cost.alpha, bench_cost.kappa
    closed_form = np.clip((chi * grid - alpha) / (kappa + chi), 0.0, bench_prim.b_bar)
    assert np.allclose(rule.payout(grid), closed_form, atol=1e-14)
    assert np.max(np.abs(np.diff(rule.payout(grid)))) <= 0.51 * (grid[1] - grid[0])
    # finite-difference slope on the interior branch
    fd = (rule.payout(1.0 + 1e-6) - rule.payout(1.0 - 1e-6)) / 2e-6
    assert fd == pytest.approx(0.5, abs=1e-9)


def test_signal_rule_validation():
    with pytest.raises(ParameterError):
        SignalRule(shape="bogus", threshold=0.1, cap=0.5)
    with pytest.raises(ParameterError):
        SignalRule(shape="threshold", threshold=0.1, cap=0.5, slope=0.3)
    with pytest.raises(ParameterError):
        SignalRule(shape="threshold", threshold=0.1, cap=0.5, level=0.9)
    with pytest.raises(ParameterError):
        SignalRule(shape="threshold-linear-cap", threshold=0.1, cap=0.5, slope=1.0)
    with pytest.raises(ParameterError):
        SignalRule(shape="threshold-linear-cap", threshold=0.1, cap=0.5, slope=0.4, level=0.2)
    rule = SignalRule(shape="threshold", threshold=0.5, cap=0.8, level=0.4)
    assert rule.payout(0.49) == 0.0 and rule.payout(0.51) == 0.4


# -- effective multiplier ---------------------------------------------------


def test_effective_lambda_values(bench_prim):
    assert effective_lambda(bench_prim, 0.0) == 1.0
    assert effective_lambda(bench_prim, 1.0) == pytest.approx(0.6, abs=1e-15)
    assert effective_lambda(bench_prim, 0.258) == pytest.approx(1.0 - 0.4 * 0.258, abs=1e-15)
    with pytest.raises(ParameterError):
        effective_lambda(bench_prim, 1.5)


def test_interior_probability_commitment(bench_dist, bench_cost, bench_prim):
    curve = virtual_weight(bench_dist, bench_prim, 1.0)
    sched = solve_cap(curve, bench_cost, bench_prim.b_bar)
    p = interior_probability(sched, bench_dist)
    assert p == pytest.approx(BENCH["p_int"], abs=1e-9)


def test_interior_probability_no_rescue(bench_prim):
    dist = Exponential(1.0)
    curve = virtual_weight(dist, bench_prim, 1.0, grid_size=257)
    sched = solve_cap(curve, QuadraticCost(1.0, 1.0), bench_prim.b_bar)
    assert interior_probability(sched, dist) == 0.0


def test_interior_probability_point_mass(bench_cost, bench_prim):
    # the one type's weight 0.8 sets C'(b) = 0.2 + b = 0.8: an interior cap of 0.6
    point = PointMass(0.5)
    cases = [
        (bench_cost, bench_prim.b_bar, "interior", 1.0),
        (bench_cost, 0.5, "mixed", 0.0),  # the cap binds at b_bar
        (QuadraticCost(1.0, 1.0), bench_prim.b_bar, "no-rescue", 0.0),
    ]
    for cost, b_bar, regime, expected in cases:
        sched = solve_cap(virtual_weight(point, bench_prim, 1.0), cost, b_bar)
        assert sched.regime == regime
        assert interior_probability(sched, point) == expected


def test_cutoffs_scale_with_lambda(bench_dist, bench_cost, bench_prim):
    # hazard 2*theta makes the lower cutoff alpha*lambda/(2*gamma*omega_b),
    # i.e. 0.125 * lambda on the benchmark
    for lam in (0.7, 0.85, 1.0, 1.2, 1.6):
        curve = virtual_weight(bench_dist, bench_prim, lam)
        sched = solve_cap(curve, bench_cost, bench_prim.b_bar)
        assert sched.theta_min == pytest.approx(0.125 * lam, abs=1e-8)
        assert sched.theta_dagger == pytest.approx(0.625 * lam, abs=1e-8)


# -- credibility fixed point ------------------------------------------------


def test_fixed_point_benchmark(bench_dist, bench_cost, bench_prim):
    sol = fixed_point(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost, tol=1e-8)
    assert sol.converged
    assert sol.lambda_T == pytest.approx(BENCH["disc_lambda"], abs=1e-6)
    assert sol.p_int == pytest.approx(BENCH["disc_p_int"], abs=1e-6)
    # the pair satisfies the credibility identity to the stated tolerance
    resid = sol.lambda_T - effective_lambda(bench_prim, sol.p_int)
    assert abs(resid) <= 1e-8
    assert sol.schedule.theta_min == pytest.approx(BENCH["disc_theta_min"], abs=1e-6)
    assert sol.schedule.theta_dagger == pytest.approx(BENCH["disc_theta_dagger"], abs=1e-6)


def test_fixed_point_trace_stays_in_bracket(bench_dist, bench_cost, bench_prim):
    sol = fixed_point(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost)
    lo = bench_prim.omega_T - bench_prim.omega_b * bench_prim.m
    for lam, p in sol.trace:
        assert lo - 1e-12 <= lam <= bench_prim.omega_T + 1e-12
        assert 0.0 <= p <= 1.0
    assert sol.trace[0][0] == bench_prim.omega_T


def test_fixed_point_m_zero_is_commitment(bench_dist, bench_cost, bench_prim):
    prim = PolicyPrimitives(omega_T=1.0, omega_b=0.8, gamma=1.0, b_bar=0.8, m=0.0, chi=1.0)
    sol = fixed_point(virtual_weight(bench_dist, prim, 1.0), bench_cost)
    assert sol.converged
    assert sol.iterations == 1
    assert sol.lambda_T == 1.0
    assert sol.p_int == pytest.approx(BENCH["p_int"], abs=1e-9)


def test_fixed_point_omega_b_zero(bench_dist, bench_cost):
    prim = PolicyPrimitives(omega_T=1.0, omega_b=0.0, gamma=1.0, b_bar=0.8, m=0.5, chi=1.0)
    sol = fixed_point(virtual_weight(bench_dist, prim, 1.0), bench_cost)
    assert sol.converged
    assert sol.lambda_T == 1.0


def test_discretion_weakens_discipline(bench_dist, bench_cost, bench_prim):
    # anticipating rescue lowers the effective transfer multiplier, which
    # pulls both cutoffs down: intervention starts earlier and saturates
    # earlier than under commitment
    sol = fixed_point(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost)
    assert sol.lambda_T < bench_prim.omega_T
    assert sol.schedule.theta_min < BENCH["theta_min"]
    assert sol.schedule.theta_dagger < BENCH["theta_dagger"]


def test_fixed_point_exhaustion_reports_not_converged(bench_dist, bench_cost, bench_prim):
    sol = fixed_point(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost, max_iter=2, tol=1e-14)
    assert not sol.converged
    assert sol.iterations == 2


def test_fixed_point_keeps_last_curve_and_accepts_commitment_curve(bench_dist, bench_cost, bench_prim):
    commitment = virtual_weight(bench_dist, bench_prim, bench_prim.omega_T)
    sol = fixed_point(commitment, bench_cost)
    assert sol.curve.lambda_T == sol.lambda_T
    assert sol.curve.dist is bench_dist and sol.curve.prim is bench_prim
    assert np.array_equal(solve_cap(sol.curve, bench_cost, bench_prim.b_bar).b_star, sol.schedule.b_star)
    assert sol.trace[0] == (bench_prim.omega_T, interior_probability(
        solve_cap(commitment, bench_cost, bench_prim.b_bar), bench_dist))
    # the iteration starts at omega_T: a curve at another lambda is not a start
    with pytest.raises(ParameterError):
        fixed_point(sol.curve, bench_cost)


def test_fixed_point_validation(bench_dist, bench_cost, bench_prim):
    with pytest.raises(ParameterError):
        fixed_point(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost, tol=-1.0)
    with pytest.raises(ParameterError):
        fixed_point(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost, max_iter=0)
    # a multiplier floor at or below zero leaves no admissible lambda
    heavy = PolicyPrimitives(omega_T=0.5, omega_b=0.8, gamma=1.0, b_bar=0.8, m=0.9, chi=1.0)
    with pytest.raises(ParameterError):
        fixed_point(virtual_weight(bench_dist, heavy, 0.5), bench_cost)
    with pytest.raises(ParameterError):
        PolicyPrimitives(omega_T=1.0, omega_b=0.8, gamma=1.0, b_bar=0.8, m=1.3, chi=1.0)
