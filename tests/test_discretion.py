from dataclasses import replace

import numpy as np
import pytest

from softbudget import (
    Exponential,
    ParameterError,
    PointMass,
    PolicyPrimitives,
    QuadraticCost,
    SignalRule,
    Tabulated,
    TabulatedCost,
    Weibull,
    effective_lambda,
    fixed_point,
    interior_probability,
    load_config,
    solve_cap,
    virtual_weight,
)
from softbudget import discretion, statics
from conftest import (
    BENCH, ROOT, PlateauHazard, config_commitment, irregular_config, irregular_tabulated, pooled_config,
)


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
    with pytest.raises(ParameterError, match="quadratic costs only"):
        SignalRule.discretionary(bench_prim, tab)


def test_discretionary_rule_is_threshold_linear_cap(bench_cost, bench_prim):
    rule = SignalRule.discretionary(bench_prim, bench_cost)
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
    for fields in (
        dict(threshold=0.1, cap=0.5, slope=1.0),
        dict(threshold=0.1, cap=0.5, slope=-0.1),
        dict(threshold=0.1, cap=0.0, slope=0.4),
        dict(threshold=float("nan"), cap=0.5, slope=0.4),
        dict(threshold=0.1, cap=float("inf"), slope=0.4),
    ):
        with pytest.raises(ParameterError):
            SignalRule(**fields)
    rule = SignalRule(threshold=0.5, cap=0.8, slope=0.5)
    assert rule.payout(0.49) == 0.0 and rule.payout(1.5) == 0.5 and rule.payout(3.0) == 0.8


# -- effective multiplier ---------------------------------------------------


def test_effective_lambda_values(bench_prim):
    assert effective_lambda(bench_prim, 0.0) == 1.0
    assert effective_lambda(bench_prim, 1.0) == pytest.approx(0.6, abs=1e-15)
    assert effective_lambda(bench_prim, 0.258) == pytest.approx(1.0 - 0.4 * 0.258, abs=1e-15)
    with pytest.raises(ParameterError):
        effective_lambda(bench_prim, 1.5)


def test_interior_probability_commitment(bench_dist, bench_cost, bench_prim):
    curve = virtual_weight(bench_dist, bench_prim, 1.0)
    sched = solve_cap(curve, bench_cost)
    p = interior_probability(sched)
    assert p == pytest.approx(BENCH["p_int"], abs=1e-9)


def test_interior_probability_no_rescue(bench_prim):
    dist = Exponential(1.0)
    curve = virtual_weight(dist, bench_prim, 1.0, grid_size=257)
    sched = solve_cap(curve, QuadraticCost(1.0, 1.0))
    assert interior_probability(sched) == 0.0


def test_interior_probability_point_mass(bench_cost, bench_prim):
    # the one type's weight 0.8 sets C'(b) = 0.2 + b = 0.8: an interior cap of 0.6
    point = PointMass(0.5)
    cases = [
        (bench_cost, bench_prim.b_bar, "interior", 1.0),
        (bench_cost, 0.5, "mixed", 0.0),  # the cap binds at b_bar
        (QuadraticCost(1.0, 1.0), bench_prim.b_bar, "no-rescue", 0.0),
    ]
    for cost, b_bar, regime, expected in cases:
        sched = solve_cap(virtual_weight(point, replace(bench_prim, b_bar=b_bar), 1.0), cost)
        assert sched.regime == regime
        assert interior_probability(sched) == expected


def test_cutoffs_scale_with_lambda(bench_dist, bench_cost, bench_prim):
    # hazard 2*theta makes the lower cutoff alpha*lambda/(2*gamma*omega_b),
    # i.e. 0.125 * lambda on the benchmark
    for lam in (0.7, 0.85, 1.0, 1.2, 1.6):
        curve = virtual_weight(bench_dist, bench_prim, lam)
        sched = solve_cap(curve, bench_cost)
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


def steep_case():
    # P_int rises steeply in lambda near the root, and plain Picard iteration
    # 2-cycles between lambda ~ 0.1924 and ~ 0.9991 instead of converging
    prim = PolicyPrimitives(omega_T=1.0, omega_b=0.9, gamma=1.0, b_bar=5.0, m=0.9, chi=1.0)
    return virtual_weight(Weibull(1.01, 1.0), prim, 1.0, grid_size=4097), QuadraticCost(0.5, 0.2)


def assert_trace_in_bracket(sol):
    prim = sol.schedule.curve.prim
    floor = prim.omega_T - prim.omega_b * prim.m
    lo, hi = sol.bracket
    assert floor <= lo <= hi <= prim.omega_T
    for lam, p in sol.trace:
        assert floor <= lam <= prim.omega_T
        assert 0.0 <= p <= 1.0
    assert sol.trace[0][0] == prim.omega_T
    if sol.converged:
        assert lo <= sol.lambda_T <= hi


def test_fixed_point_trace_stays_in_bracket(bench_dist, bench_cost, bench_prim):
    assert_trace_in_bracket(fixed_point(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost))
    assert_trace_in_bracket(fixed_point(*steep_case()))
    assert_trace_in_bracket(fixed_point(virtual_weight(PointMass(0.5), bench_prim, 1.0), bench_cost))


def test_fixed_point_benchmark_evaluations(bench_dist, bench_cost, bench_prim):
    # omega_T, its Picard image, then secant steps: plain Picard iteration
    # took 11 evaluations at tol 1e-8 and 18 at 1e-13
    commitment = virtual_weight(bench_dist, bench_prim, 1.0)
    for tol in (1e-8, 1e-13):
        sol = fixed_point(commitment, bench_cost, tol=tol)
        assert sol.converged and len(sol.trace) == sol.iterations <= 6
        assert abs(effective_lambda(bench_prim, sol.p_int) - sol.lambda_T) <= tol
    assert sol.trace[1][0] == effective_lambda(bench_prim, sol.trace[0][1])


def test_m_sensitivity_fixed_points_take_few_evaluations(monkeypatch, bench_dist, bench_cost, bench_prim):
    calls = []

    def counted(*args, **kwargs):
        sol = fixed_point(*args, **kwargs)
        calls.append((kwargs["tol"], sol.converged, sol.iterations))
        return sol

    monkeypatch.setattr(statics, "fixed_point", counted)
    statics.m_sensitivity(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost)
    assert len(calls) == 3
    assert all(tol == 1e-13 and converged and iterations <= 8 for tol, converged, iterations in calls)


def test_fixed_point_steep_case_converges():
    curve, cost = steep_case()
    sol = fixed_point(curve, cost, tol=1e-8)
    assert sol.converged and sol.jump is None
    assert sol.lambda_T == pytest.approx(0.6036508928, abs=1e-8)
    assert abs(effective_lambda(curve.prim, sol.p_int) - sol.lambda_T) <= 1e-8
    assert sol.iterations <= 12


def test_fixed_point_point_mass_jump_has_no_root(bench_cost, bench_prim):
    # P_int of one type is 0 or 1: here it jumps from 0 to 1 at lambda = 0.8,
    # where g = omega_T - omega_b*m*P_int - lambda drops from +0.2 to -0.2
    sol = fixed_point(virtual_weight(PointMass(0.5), bench_prim, 1.0), bench_cost)
    assert not sol.converged
    lo, hi = sol.bracket
    assert hi == np.nextafter(lo, np.inf)
    assert sol.jump == (hi, 0.0, 1.0)
    assert sol.jump.at == pytest.approx(0.8, abs=1e-15)
    assert (lo, 0.0) in sol.trace and (hi, 1.0) in sol.trace
    assert sol.iterations < 100
    # the best evaluated point comes back with its own curve and schedule
    assert sol.lambda_T in (lo, hi) and sol.schedule.curve.lambda_T == sol.lambda_T


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


def test_fixed_point_evaluates_the_floor_before_naming_a_jump(monkeypatch, bench_dist, bench_cost, bench_prim):
    # a synthetic P_int, 1 below lambda = 0.9 and 1/2 above: every evaluation
    # above the floor 0.6 has g < 0, and with a tol below float resolution
    # the bracket collapses onto the floor, which has g = 0 but was never
    # evaluated, so the solver evaluates it rather than report a jump
    monkeypatch.setattr(discretion, "_interior_probability_at", lambda curve, cost, lam: 1.0 if lam < 0.9 else 0.5)
    sol = fixed_point(virtual_weight(bench_dist, bench_prim, 1.0, grid_size=257), bench_cost, tol=1e-300)
    assert sol.converged and sol.jump is None
    assert sol.lambda_T == sol.trace[-1][0] == 0.6 and sol.p_int == 1.0
    assert sol.bracket == (0.6, np.nextafter(0.6, 1.0))


def flat_root_p_int(curve, cost, lam):
    # g = -0.04 sign(x) |x / 0.4|^9, x = lambda - 0.65, on the benchmark weights
    x = lam - 0.65
    return (1.0 - lam + 0.04 * np.sign(x) * abs(x / 0.4) ** 9) / 0.4


def test_fixed_point_bracket_halves_at_a_flat_root(monkeypatch, bench_dist, bench_cost, bench_prim):
    # the synthetic P_int's g is flat at its root: secant steps creep towards
    # it from one side, and took 37 evaluations at tol 1e-13 without the rule
    # that the bracket halve over every two evaluations
    monkeypatch.setattr(discretion, "_interior_probability_at", flat_root_p_int)
    sol = fixed_point(virtual_weight(bench_dist, bench_prim, 1.0, grid_size=257), bench_cost, tol=1e-13)
    assert sol.converged and sol.iterations <= 12
    assert_trace_in_bracket(sol)


# the bracket halves at least every three evaluations and reaches adjacent
# floats within 107 halvings; one more evaluation may check the floor
EVALUATION_BOUND = 3 * 107 + 4


def assert_ends_at_a_root_or_a_jump(sol, tol):
    assert 1 <= sol.iterations == len(sol.trace) <= EVALUATION_BOUND
    prim = sol.schedule.curve.prim
    lo, hi = sol.bracket
    if sol.converged:
        assert abs(effective_lambda(prim, sol.p_int) - sol.lambda_T) <= tol
    else:
        # no budget to run out of: an unconverged search stopped on adjacent floats
        assert hi == np.nextafter(lo, np.inf) and sol.jump.at == hi
        assert (lo, sol.jump.p_int_below) in sol.trace and (hi, sol.jump.p_int_above) in sol.trace
        assert abs(effective_lambda(prim, sol.jump.p_int_below) - lo) > tol
        assert abs(effective_lambda(prim, sol.jump.p_int_above) - hi) > tol


def test_fixed_point_ends_within_its_bound_without_a_budget(monkeypatch, bench_cost, bench_prim):
    point = fixed_point(virtual_weight(PointMass(0.5), bench_prim, 1.0), bench_cost)
    assert point.iterations == 53 and point.jump is not None
    assert_ends_at_a_root_or_a_jump(point, discretion.DEFAULT_TOL)
    steep = fixed_point(*steep_case(), tol=1e-300)
    assert_ends_at_a_root_or_a_jump(steep, 1e-300)
    monkeypatch.setattr(discretion, "_interior_probability_at", flat_root_p_int)
    flat = fixed_point(virtual_weight(Weibull(2.0, 1.0), bench_prim, 1.0, grid_size=257), bench_cost, tol=1e-300)
    assert_ends_at_a_root_or_a_jump(flat, 1e-300)


def test_fixed_point_steep_case_converges_at_the_statics_tolerance():
    # m_sensitivity solves its fixed points to FIXED_POINT_TOL = 1e-13; the
    # steep case still converges a decade below it
    curve, cost = steep_case()
    for tol, evaluations in ((statics.FIXED_POINT_TOL, 11), (1e-14, 12)):
        sol = fixed_point(curve, cost, tol=tol)
        assert sol.converged and sol.iterations == evaluations
        assert sol.lambda_T == pytest.approx(0.6036508928, abs=1e-9)


def test_fixed_point_steep_case_converges_below_the_statics_tolerance():
    # cutoffs bisected to a width of 1e-14 left a staircase in P_int(lambda):
    # at tol 1e-15 and 1e-16 the search read a jump at 0.6036508927691434,
    # P_int 0.4893198854701879 -> ...981.  The closed-form crossing has no
    # staircase, and the root is the one found at 1e-14
    curve, cost = steep_case()
    for tol in (1e-15, 1e-16):
        sol = fixed_point(curve, cost, tol=tol)
        assert sol.converged and sol.jump is None and sol.iterations == 12
        assert sol.lambda_T == pytest.approx(0.6036508928, abs=1e-8)


def test_fixed_point_trace_on_the_discretion_config_is_pinned():
    # the evaluated (lambda, P_int) pairs of `discretion` on the benchmark
    # config, at the CLI's tolerance and at m_sensitivity's, to the bit
    cfg = load_config(str(ROOT / "configs" / "discretion_benchmark.json"))
    trace = (
        (1.0, 0.3078625908436795),
        (0.8768549636625282, 0.24749304750215118),
        (0.8970438850474554, 0.2572283068674138),
        (0.8970982006800503, 0.25725460172499137),
        (0.8970981660214611, 0.25725458494617637),
    )
    for tol in (discretion.DEFAULT_TOL, statics.FIXED_POINT_TOL):
        sol = fixed_point(config_commitment(cfg), cfg.cost, tol=tol)
        assert sol.trace == trace and sol.iterations == 5
        assert (sol.lambda_T, sol.p_int) == trace[-1] and sol.bracket == (trace[2][0], trace[3][0])


def test_fixed_point_keeps_last_curve_and_accepts_commitment_curve(bench_dist, bench_cost, bench_prim):
    commitment = virtual_weight(bench_dist, bench_prim, bench_prim.omega_T)
    sol = fixed_point(commitment, bench_cost)
    assert sol.schedule.curve.lambda_T == sol.lambda_T
    assert sol.schedule.curve.dist is bench_dist and sol.schedule.curve.prim is bench_prim
    assert sol.schedule.cost is bench_cost
    assert np.array_equal(solve_cap(sol.schedule.curve, bench_cost).b_star, sol.schedule.b_star)
    assert sol.trace[0] == (bench_prim.omega_T, interior_probability(solve_cap(commitment, bench_cost)))
    # the iteration starts at omega_T: a curve at another lambda is not a start
    with pytest.raises(ParameterError):
        fixed_point(sol.schedule.curve, bench_cost)


def test_fixed_point_validation(bench_dist, bench_cost, bench_prim):
    with pytest.raises(ParameterError):
        fixed_point(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost, tol=-1.0)
    # a multiplier floor at or below zero leaves no admissible lambda
    heavy = PolicyPrimitives(omega_T=0.5, omega_b=0.8, gamma=1.0, b_bar=0.8, m=0.9, chi=1.0)
    with pytest.raises(ParameterError):
        fixed_point(virtual_weight(bench_dist, heavy, 0.5), bench_cost)
    with pytest.raises(ParameterError):
        PolicyPrimitives(omega_T=1.0, omega_b=0.8, gamma=1.0, b_bar=0.8, m=1.3, chi=1.0)


# -- evaluations as rescaled crossings on the commitment curve -------------


class ZeroWeightStretch(Tabulated):
    """``irregular_tabulated`` with its ironing weight, the density, set to 0 on [0.2, 1.5].

    The hazard is left as it is, so on that stretch psi rises to a peak and
    falls into a dip while weighing nothing: PAV pools it into one block of
    zero weight, whose value is a plain average of its nodes, and a curve at
    other weights takes that value rescaled (the ``fill`` of ``_pool``).
    """

    def __init__(self):
        base = irregular_tabulated()
        super().__init__(base.nodes, base.density)

    def _pdf(self, arr):
        return np.where((arr >= 0.2) & (arr <= 1.5), 0.0, super()._pdf(arr))


def rescaled_cases():
    """Commitment curves and costs the rescaled P_int is checked on."""
    bench_prim = PolicyPrimitives(omega_T=1.0, omega_b=0.8, gamma=1.0, b_bar=0.8, m=0.5, chi=1.0)
    pooled = pooled_config()
    irregular = irregular_config(1, 4097, discretion=True)
    return {
        "benchmark": (virtual_weight(Weibull(2.0, 1.0), bench_prim, 1.0), QuadraticCost(0.2, 1.0)),
        "pooled": (config_commitment(pooled), pooled.cost),
        # C'(0) = 4.1 puts the lower cutoff next to the pooled block near
        # lambda = 0.8, where the nodes around it take the block's mean
        "pooled-edge": (config_commitment(pooled), QuadraticCost(4.1, 1.0)),
        "steep": steep_case(),
        "point-mass": (virtual_weight(PointMass(0.5), bench_prim, 1.0), QuadraticCost(0.2, 1.0)),
        # the bimodal density of the irregular workload, under discretion
        "irregular": (config_commitment(irregular), irregular.cost),
        # at 129 nodes psi_bar steps from 0.0524 to the zero-weight block's
        # 0.0636 at lambda = 1, so C'(0) = 0.07 puts the lower cutoff in that
        # cell for lambda in (0.75, 0.91]
        "zero-weight": (virtual_weight(ZeroWeightStretch(), bench_prim, 1.0, grid_size=129), QuadraticCost(0.07, 1.0)),
    }


RESCALED_CASES = ["benchmark", "pooled", "pooled-edge", "steep", "point-mass", "irregular", "zero-weight"]


@pytest.mark.parametrize("case", RESCALED_CASES)
def test_rescaled_p_int_equals_the_full_evaluation(case):
    # P_int read off the commitment curve's psi_bar rescaled to lambda is the
    # P_int of the schedule solved on the curve derived at lambda (``at``),
    # to the bit, across the bracket; lambda = 0.8 (the point mass's jump)
    # and its neighbours included.  It is also that of a fresh curve at
    # lambda, except on a block of zero weight: PAV averages its nodes again
    # there, while ``at`` rescales the commitment curve's average
    curve, cost = rescaled_cases()[case]
    prim, dist = curve.prim, curve.dist
    floor = prim.omega_T - prim.omega_b * prim.m
    lams = np.append(np.linspace(floor, prim.omega_T, 201), np.nextafter(0.8, [0.0, 0.8, 1.0]))
    starts, pooled = curve._ironing.starts, curve._ironing.pooled
    zero_weight = starts[pooled & (np.add.reduceat(curve.density, starts) == 0.0)]
    cutoff_cells_pooled = cutoff_cells_zero_weight = 0
    for lam in lams.tolist():
        p_int = discretion._interior_probability_at(curve, cost, lam)
        derived = solve_cap(curve.at(prim, lam), cost)
        assert p_int == interior_probability(derived), lam
        if not zero_weight.size:
            fresh = virtual_weight(dist, prim, lam, curve.theta.size)  # every case is on the default tail mass
            assert np.array_equal(fresh.ironed, curve.ironed)  # a positive scale pools the same blocks
            assert p_int == interior_probability(solve_cap(fresh, cost)), lam
        if derived.theta_min is not None:
            i = int(np.searchsorted(curve.theta, derived.theta_min))
            cutoff_cells_pooled += bool(curve.ironed[max(i - 1, 0):i + 1].any())
            cutoff_cells_zero_weight += i in zero_weight
    assert np.any(curve.ironed) == (case in ("pooled", "pooled-edge", "irregular", "zero-weight"))
    assert (cutoff_cells_pooled > 0) == (case in ("pooled-edge", "zero-weight"))
    assert (cutoff_cells_zero_weight > 0) == (zero_weight.size > 0) == (case == "zero-weight")


def test_rescaled_p_int_keeps_the_checks_of_a_derived_curve(bench_dist, bench_cost, bench_prim):
    # the evaluation builds no curve, but rejects what ``at`` rejects, with
    # its message: a lambda that is not positive and finite, and one so small
    # that psi is not finite on the grid
    curve = virtual_weight(bench_dist, bench_prim, 1.0)
    for lam in (0.0, -0.5, float("nan"), float("inf"), "0.9", 5e-324):
        with pytest.raises(ParameterError) as derived, np.errstate(all="ignore"):
            curve.at(bench_prim, lam)
        with pytest.raises(ParameterError) as evaluated, np.errstate(all="ignore"):
            discretion._interior_probability_at(curve, bench_cost, lam)
        assert str(evaluated.value) == str(derived.value)
    assert "not finite" in str(derived.value)


@pytest.mark.parametrize("case", RESCALED_CASES)
def test_fixed_point_p_int_is_that_of_its_schedule(case):
    # the evaluations read P_int off curves derived from the commitment
    # curve; the returned P_int is the returned schedule's, to the bit
    curve, cost = rescaled_cases()[case]
    sol = fixed_point(curve, cost)
    assert sol.p_int == interior_probability(sol.schedule)
    assert sol.schedule.curve.lambda_T == sol.lambda_T


@pytest.mark.parametrize("pooled", [False, True])
def test_fixed_point_curve_matches_a_fresh_build(pooled, bench_dist, bench_cost, bench_prim):
    # the returned curve and schedule, derived from the commitment curve's
    # hazard, are those a fresh build at lambda_T gives, bit for bit
    if pooled:
        cfg = pooled_config()
        commitment, cost = config_commitment(cfg), cfg.cost
    else:
        commitment, cost = virtual_weight(bench_dist, bench_prim, 1.0), bench_cost
    sol = fixed_point(commitment, cost)
    assert sol.converged and sol.lambda_T < commitment.lambda_T
    assert sol.schedule.curve.hazard is commitment.hazard and sol.schedule.curve.density is commitment.density
    prim = commitment.prim
    fresh = virtual_weight(commitment.dist, prim, sol.lambda_T, commitment.theta.size)
    for name in ("psi", "psi_bar", "ironed"):
        assert getattr(sol.schedule.curve, name).tobytes() == getattr(fresh, name).tobytes(), name
    sched = solve_cap(fresh, cost)
    assert sol.schedule.b_star.tobytes() == sched.b_star.tobytes()
    assert (sol.schedule.theta_min, sol.schedule.theta_dagger) == (sched.theta_min, sched.theta_dagger)
    assert sol.p_int == interior_probability(sched)
    assert np.any(sol.schedule.curve.ironed) == pooled


def test_rescaled_p_int_equals_the_full_evaluation_on_a_flat_hazard():
    # the hazard is flat at 0.25 on [0.4, 0.6], so psi is flat there on 84
    # nodes; C'(0) set to that level at lambda puts every plateau node within
    # an ulp of the rescaled target, and the nodes recomputed at lambda must
    # span the whole plateau (P_int read 0 instead of 0.552 at lambda 0.76
    # when only the nodes next to the first rescaled crossing were)
    prim = PolicyPrimitives(omega_T=1.0, omega_b=0.8, gamma=1.0, b_bar=0.8, m=0.5, chi=1.0)
    dist = PlateauHazard()
    curve = virtual_weight(dist, prim, 1.0)
    for lam in np.linspace(0.6, 0.99, 40).tolist():
        level = prim.gamma * prim.omega_b / lam * 0.25
        for alpha in np.nextafter(level, [0.0, level, 1.0]).tolist():
            cost = QuadraticCost(alpha, 1.0)
            full = interior_probability(solve_cap(virtual_weight(dist, prim, lam), cost))
            assert discretion._interior_probability_at(curve, cost, lam) == full, (lam, alpha)
