import ast
import itertools
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from softbudget import (
    Exponential,
    NumericalError,
    ParameterError,
    PointMass,
    QuadraticCost,
    TabulatedCost,
    Uniform,
    Weibull,
    WeightCurve,
    capmin_oracle,
    interior_probability,
    mc_run,
    parse_config,
    solve_cap,
    virtual_weight,
    welfare_bruteforce,
)
from softbudget import effort, mechanism, simulation
from softbudget.effort import EffortParameters, RevenueModel, ThresholdRule, gap_density_at_rule, solve_effort
from softbudget.distributions import SAMPLE_BLOCK, sample_types
from softbudget.mechanism import _psi_on, caps_from_targets
from softbudget.reporting import format_float
from conftest import BENCH, config_commitment, irregular_tabulated, pooled_steep_cost_doc

THRESHOLD_RULE = ThresholdRule(threshold=0.5, cap=0.8, level=0.4)


# -- Monte Carlo cap verification --------------------------------------------


def test_mc_run_deterministic(bench_dist, bench_cost, bench_prim):
    a = mc_run(solve_cap(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost), 5000, seed=42, bins=10)
    b = mc_run(solve_cap(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost), 5000, seed=42, bins=10)
    assert a.theta_min_hat == b.theta_min_hat
    assert a.p_int_hat == b.p_int_hat
    assert np.array_equal(a.bin_edges, b.bin_edges)
    assert np.array_equal(a.bin_means, b.bin_means, equal_nan=True)
    assert np.array_equal(a.bin_counts, b.bin_counts)


def test_mc_run_reuses_a_given_curve(monkeypatch, bench_dist, bench_cost, bench_prim):
    # mc_run samples against the schedule it is given, on that schedule's curve, and solves nothing
    sched = solve_cap(virtual_weight(bench_dist, bench_prim, 0.9), bench_cost)
    for module in (mechanism, simulation):
        monkeypatch.setattr(module, "solve_cap", None, raising=False)
    a = mc_run(sched, 5000, seed=42, bins=10)
    b = mc_run(sched, 5000, seed=42, bins=10)
    assert (a.theta_min_hat, a.theta_dagger_hat, a.p_int_hat) == (b.theta_min_hat, b.theta_dagger_hat, b.p_int_hat)
    assert np.array_equal(a.bin_means, b.bin_means, equal_nan=True)
    assert a.schedule is sched and sched.curve.lambda_T == 0.9


def test_mc_run_validation(bench_dist, bench_cost, bench_prim):
    sched = solve_cap(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost)
    with pytest.raises(ParameterError):
        mc_run(sched, 999, seed=1)
    with pytest.raises(ParameterError):
        mc_run(sched, 5000, seed=1, bins=1)


def test_mc_run_estimates_near_analytic(bench_dist, bench_cost, bench_prim):
    sched = solve_cap(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost)
    rep = mc_run(sched, 200_000, seed=20260814)
    assert sched.regime == "mixed"
    assert sched.theta_min == pytest.approx(BENCH["theta_min"], abs=1e-6)
    assert sched.theta_dagger == pytest.approx(BENCH["theta_dagger"], abs=1e-6)
    assert interior_probability(sched) == pytest.approx(BENCH["p_int"], abs=1e-9)
    # sample estimates sit on top of the analytic values
    assert rep.theta_min_hat == pytest.approx(BENCH["theta_min"], abs=0.005)
    assert rep.theta_dagger_hat == pytest.approx(BENCH["theta_dagger"], abs=0.005)
    assert rep.p_int_hat == pytest.approx(BENCH["p_int"], abs=0.005)
    # sample cutoffs can only overshoot the true boundaries
    assert rep.theta_min_hat >= sched.theta_min - 1e-12
    assert rep.theta_dagger_hat >= sched.theta_dagger - 1e-12


def test_mc_binned_means_match_conditional_expectation(bench_dist, bench_cost, bench_prim):
    sched = solve_cap(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost)
    rep = mc_run(sched, 200_000, seed=20260814)
    checked = 0
    for i in range(rep.bins):
        count = int(rep.bin_counts[i])
        se = float(rep.bin_stderr[i])
        if count < 50 or not math.isfinite(se) or se == 0.0:
            continue
        lo, hi = float(rep.bin_edges[i]), float(rep.bin_edges[i + 1])
        t = np.linspace(lo, hi, 4001)
        f = np.asarray(bench_dist.pdf(t))
        oracle = float(np.trapezoid(sched.cap_at(t) * f, t) / np.trapezoid(f, t))
        assert abs(float(rep.bin_means[i]) - oracle) <= 3.5 * se
        checked += 1
    assert checked >= 5


def test_mc_p_int_stable_across_seeds(bench_dist, bench_cost, bench_prim):
    sched = solve_cap(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost)
    vals = [mc_run(sched, 200_000, seed=s).p_int_hat for s in range(10)]
    assert max(vals) - min(vals) < 0.01
    assert abs(float(np.mean(vals)) - BENCH["p_int"]) < 0.002


# -- Monte Carlo binning against the whole-array reference --------------------


def whole_array_reference(dist, prim, cost, curve, theta_s, bins):
    """mc_run's estimates computed on whole arrays, bins counted by np.histogram."""
    if bool(np.any(curve.ironed)):
        psi_s = curve.psi_bar_at(theta_s)
    else:
        psi_s = _psi_on(dist, prim, curve.lambda_T, theta_s)
    b_s = caps_from_targets(psi_s, cost, prim.b_bar)
    positive = b_s > 0.0
    at_cap = b_s >= prim.b_bar
    cutoffs = (
        float(np.min(theta_s[positive])) if bool(np.any(positive)) else None,
        float(np.min(theta_s[at_cap])) if bool(np.any(at_cap)) else None,
        float(np.mean(positive & ~at_cap)),
    )
    edges = np.linspace(float(np.min(theta_s)), float(np.max(theta_s)), bins + 1)
    counts, _ = np.histogram(theta_s, bins=edges)
    return cutoffs, edges, counts, b_s


def assert_matches_reference(rep, dist, prim, cost, curve, theta_s):
    cutoffs, edges, counts, b_s = whole_array_reference(dist, prim, cost, curve, theta_s, rep.bins)
    assert (rep.theta_min_hat, rep.theta_dagger_hat, rep.p_int_hat) == cutoffs
    assert np.array_equal(rep.bin_edges, edges)
    assert np.array_equal(rep.bin_counts, counts)
    which = np.minimum(np.searchsorted(edges, theta_s, side="right") - 1, rep.bins - 1)
    for i in range(rep.bins):
        caps = b_s[which == i]
        mean, se = float(rep.bin_means[i]), float(rep.bin_stderr[i])
        assert caps.size == counts[i]
        if caps.size == 0:
            assert math.isnan(mean) and math.isnan(se)
            continue
        assert mean == pytest.approx(math.fsum(caps) / caps.size, rel=1e-12, abs=0.0)
        if caps.size == 1:
            assert mean == caps[0] and math.isnan(se)
        elif caps.min() == caps.max():  # constant caps: exact mean, zero spread
            assert mean == caps[0] and se == 0.0
        else:
            wide = caps.astype(np.longdouble)
            var = np.sum((wide - np.sum(wide) / caps.size) ** 2) / (caps.size - 1)
            assert se == pytest.approx(float(np.sqrt(var / caps.size)), rel=1e-9, abs=0.0)


# (distribution, omega_b curve, cost) beside the benchmark's constant omega_b and quadratic cost;
# the Weibull's weight is exact at the types, the bimodal density's pooled and interpolated
MC_CASES = {
    "exact-psi": (Weibull(2.0, 1.0), None, None),
    "pooled": (irregular_tabulated(), None, None),
    "weight-curve": (Weibull(2.0, 1.0), WeightCurve([0.0, 1.0, 3.0], [0.6, 0.9, 1.0]), None),
    "tabulated-cost": (irregular_tabulated(), None, TabulatedCost([0.0, 0.3, 0.8, 2.0], [0.2, 0.45, 1.0, 2.5])),
}


@pytest.mark.parametrize("n", [1000, 65_536, 65_537, 200_000])
@pytest.mark.parametrize("case", MC_CASES)
def test_mc_run_matches_whole_array_reference(n, case, bench_cost, bench_prim, monkeypatch):
    dist, omega_b, cost = MC_CASES[case]
    prim = bench_prim if omega_b is None else replace(bench_prim, omega_b=omega_b)
    cost = cost or bench_cost
    curve = virtual_weight(dist, prim, 1.0)
    assert bool(np.any(curve.ironed)) == (dist.kind == "tabulated")
    bins = 30
    theta_s = sample_types(dist, n, 20260814)
    # put types exactly on every inner edge, next to it, and at the maximum
    edges = np.linspace(float(np.min(theta_s)), float(np.max(theta_s)), bins + 1)
    planted = np.concatenate([edges[1:-1], np.nextafter(edges[1:-1], -np.inf), edges[[-1, -1]]])
    positions = np.random.default_rng(n).choice(n, planted.size, replace=False)
    theta_s[positions] = planted
    monkeypatch.setattr(simulation, "sample_types", lambda *args: theta_s.copy())
    rep = mc_run(solve_cap(curve, cost), n, seed=20260814, bins=bins)
    assert np.array_equal(rep.bin_edges, edges)
    assert_matches_reference(rep, dist, prim, cost, curve, theta_s)
    assert np.count_nonzero(rep.bin_stderr == 0.0) >= 2  # the zero-cap and the b_bar bins


def test_mc_run_point_mass_fills_the_last_bin(bench_cost, bench_prim):
    dist = PointMass(0.5)
    n = 70_000  # two sample blocks
    rep = mc_run(solve_cap(virtual_weight(dist, bench_prim, 1.0), bench_cost), n, seed=3, bins=30)
    theta_s = sample_types(dist, n, 3)
    assert np.all(rep.bin_edges == 0.5)
    assert rep.bin_counts[-1] == n and not np.any(rep.bin_counts[:-1])
    assert rep.bin_means[-1] == pytest.approx(0.6, abs=1e-15) and rep.bin_stderr[-1] == 0.0
    assert_matches_reference(rep, dist, bench_prim, bench_cost, virtual_weight(dist, bench_prim, 1.0), theta_s)


def test_mc_run_holds_no_sample_sized_array_but_the_types(bench_dist, bench_cost, bench_prim):
    # the types plus a working set of a few blocks, with the exact and the
    # interpolated virtual weight.  Blocks beyond the types at a million
    # draws, read with numpy 2.4: sampling 1.8 (Weibull, inverted in place)
    # and 4.1 (tabulated, cell lookup and quadratic solve); mc_run 3.8 (the
    # exact weight) and 5.0 (interpolated).  Each bound is its reading plus
    # one block, rounded up
    n = 1_000_000
    blocks = {"weibull": (3, 5), "tabulated": (6, 7)}  # (sampling, mc_run)
    for dist in (bench_dist, irregular_tabulated()):
        curve = virtual_weight(dist, bench_prim, 1.0)
        assert bool(np.any(curve.ironed)) is (dist is not bench_dist)
        sampling_bound, run_bound = (8 * n + k * SAMPLE_BLOCK * 8 for k in blocks[dist.kind])
        tracemalloc.start()
        try:
            sample_types(dist, n, 7)
            sampling_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            mc_run(solve_cap(curve, bench_cost), n, seed=7)
            run_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert sampling_peak <= sampling_bound and run_peak <= run_bound


# -- audit-density expectation ------------------------------------------------


def quadrature_gap_density(gap, rule, scale, points=50_001):
    total = 0.0
    t = rule.threshold
    for (a, b), level in (((-40.0 * scale + min(gap, t), t), 0.0), ((t, max(gap, t) + 40.0 * scale), rule.level)):
        if b <= a:
            continue
        v = np.linspace(a, b, points)
        integrand = (
            np.exp(-0.5 * ((v - gap) / scale) ** 2)
            / (scale * math.sqrt(2 * math.pi))
            * np.exp(-0.5 * ((v - level) / scale) ** 2)
            / (scale * math.sqrt(2 * math.pi))
        )
        total += float(np.trapezoid(integrand, v))
    return total


@pytest.mark.parametrize("gap", [0.05, 0.3, 0.5, 0.55, 0.9, 1.4])
def test_gap_density_matches_quadrature(gap):
    closed = gap_density_at_rule(gap, THRESHOLD_RULE, 0.1)
    quad = quadrature_gap_density(gap, THRESHOLD_RULE, 0.1)
    assert closed == pytest.approx(quad, abs=1e-6)


def test_gap_density_zero_level_limit():
    rule = ThresholdRule(threshold=0.5, cap=0.8, level=0.0)
    scale = 0.1
    for gap in (0.1, 0.5, 1.0):
        expected = math.exp(-0.5 * (gap / (math.sqrt(2) * scale)) ** 2) / (
            math.sqrt(2) * scale * math.sqrt(2 * math.pi)
        )
        assert gap_density_at_rule(gap, rule, scale) == pytest.approx(expected, abs=1e-12)


def test_gap_density_validation():
    with pytest.raises(ParameterError):
        gap_density_at_rule(0.5, THRESHOLD_RULE, 0.0)


# -- effort condition -----------------------------------------------------------


def effort_prim(phi_d):
    return EffortParameters(phi_e=1.0, phi_d=phi_d, eta_scale=0.1)


def test_solve_effort_closed_form_without_default_weight():
    sol = solve_effort(0.5, effort_prim(0.0), THRESHOLD_RULE)
    # rho = 2 / 1.5; the first-order condition is rho/(1+e) = 1 exactly
    assert sol.effort == pytest.approx(2.0 / 1.5 - 1.0, abs=1e-15)
    assert sol.iterations == 0
    assert not sol.corner
    assert abs(sol.residual) <= 1e-12


def test_solve_effort_corner():
    sol = solve_effort(12.0, effort_prim(1.0), THRESHOLD_RULE)
    assert sol.corner
    assert sol.effort == 0.0
    assert sol.converged
    assert sol.residual <= 0.0


def test_solve_effort_monotone_in_default_weight():
    efforts = []
    for phi_d in (0.0, 0.5, 1.0, 1.5, 2.0):
        sol = solve_effort(0.5, effort_prim(phi_d), THRESHOLD_RULE)
        assert sol.converged
        assert abs(sol.residual) <= 1e-8
        assert sol.iterations <= 200
        efforts.append(sol.effort)
    # a larger default weight raises the marginal value of closing the gap,
    # so optimal effort strictly increases
    assert np.all(np.diff(efforts) > 0.0)


def test_solve_effort_report_invariant():
    base = solve_effort(0.5, effort_prim(1.5), THRESHOLD_RULE, report_cap=None)
    for cap in (0.0, 0.3, 0.8):
        again = solve_effort(0.5, effort_prim(1.5), THRESHOLD_RULE, report_cap=cap)
        assert again.effort == base.effort


def test_solve_effort_interior_satisfies_foc():
    prim = effort_prim(1.5)
    sol = solve_effort(0.5, prim, THRESHOLD_RULE)
    rev = sol.revenue
    lhs = rev.marginal_revenue(sol.effort, 0.5) * (
        1.0 + prim.phi_d * gap_density_at_rule(rev.gap(sol.effort, 0.5), THRESHOLD_RULE, 0.1)
    )
    assert lhs == pytest.approx(prim.phi_e, abs=1e-8)
    assert sol.bracket[0] == 0.0 and sol.bracket[1] >= sol.effort


def test_solve_effort_validation():
    with pytest.raises(ParameterError):
        solve_effort(-0.5, effort_prim(1.0), THRESHOLD_RULE)
    with pytest.raises(ParameterError):
        solve_effort(0.5, effort_prim(1.0), THRESHOLD_RULE, report_cap=-1.0)
    with pytest.raises(NumericalError):
        solve_effort(0.5, effort_prim(2.0), THRESHOLD_RULE, max_iter=1, tol=1e-14)


def test_threshold_rule_validation():
    for fields in (
        dict(threshold=0.1, cap=0.5, level=0.9),
        dict(threshold=0.1, cap=0.5, level=-0.1),
        dict(threshold=0.1, cap=0.0, level=0.0),
        dict(threshold=float("nan"), cap=0.5, level=0.4),
        dict(threshold=0.1, cap=0.5, level=float("inf")),
    ):
        with pytest.raises(ParameterError):
            ThresholdRule(**fields)
    assert ThresholdRule(threshold=0.5, cap=0.8, level=0.8).level == 0.8


def test_effort_imports_only_the_errors_of_the_package():
    tree = ast.parse(Path(effort.__file__).read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"errors"}


def test_revenue_model():
    rev = RevenueModel(rho0=2.0, base_gap=1.0)
    assert rev.gap(0.0, 0.5) == 1.0
    assert rev.gap(1.0, 0.0) < rev.gap(0.0, 0.0)
    assert rev.marginal_revenue(0.0, 0.0) == 2.0
    with pytest.raises(ParameterError):
        RevenueModel(rho0=0.0)


# -- cap-minimum oracle ---------------------------------------------------------


def test_capmin_uniform_payouts():
    rep = capmin_oracle(Uniform(0.0, 1.0), np.arange(0.1, 0.95, 0.1))
    assert rep.passed
    assert not np.any(rep.one_sided)
    assert rep.max_dev_first <= 5e-5
    assert rep.max_dev_second <= 5e-5
    # survivor of Uniform(0, 1) at 0.5
    i = int(np.argmin(np.abs(rep.b_values - 0.5)))
    assert rep.exact_first[i] == pytest.approx(0.5, abs=1e-12)
    assert rep.exact_second[i] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("payout, b", [
    (Uniform(0.0, 1.0), 1.0),
    (Uniform(0.0, 1.0), 1.2),
    (Uniform(0.0, 1.0), 1.5),
    (Uniform(0.5, 1.0), 0.5),
    (Uniform(0.5, 1.0), 0.7),
], ids=["upper-edge", "above-upper-1.2", "above-upper-1.5", "lower-edge", "above-lower"])
def test_capmin_passes_across_a_survivor_kink(payout, b):
    # the survivor kinks at a support edge; on one grid over [0, b +- step]
    # the trapezoid error at the kink differed between the two sides, and
    # the central difference read it (max_dev_first 6.25e-5 at b = 1 on
    # Uniform(0, 1)); each stretch between edges now has its own grid
    rep = capmin_oracle(payout, [b])
    assert rep.passed and not rep.one_sided[0]
    assert rep.exact_first[0] == payout.survivor(b)


def test_capmin_moments_take_one_grid_with_no_edge_inside():
    # no support edge inside (0, b): the moments are those of the one grid
    # from 0 to b, bit for bit, as the CLI's oracle points use them
    for dist, b in ((Uniform(0.0, 1.0), 0.5), (Weibull(2.0, 1.0), 0.7), (Uniform(0.5, 1.0), 0.5)):
        t = np.linspace(0.0, b, simulation.CAPMIN_QUAD_POINTS)
        surv = dist.survivor(t)
        expected = (float(np.trapezoid(surv, t)), float(np.trapezoid(2.0 * t * surv, t)))
        assert simulation._moments_continuous(dist, b) == expected


def test_capmin_discrete_atoms_flagged():
    dist = ((0.2, 0.5, 0.9), (0.3, 0.4, 0.3))
    b = np.array([0.0, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9])
    rep = capmin_oracle(dist, b)
    assert rep.passed
    # origin uses a forward difference; atoms use backward differences
    assert list(rep.one_sided) == [True, False, True, False, True, False, True]
    by_b = dict(zip(rep.b_values, rep.exact_first))
    assert by_b[0.35] == pytest.approx(0.7, abs=1e-15)
    assert by_b[0.2] == pytest.approx(1.0, abs=1e-15)  # inclusive tail at the atom
    assert by_b[0.7] == pytest.approx(0.3, abs=1e-15)
    clean = ~rep.one_sided
    assert np.max(np.abs(rep.fd_first[clean] - rep.exact_first[clean])) <= 1e-10


def test_capmin_validation():
    with pytest.raises(ParameterError):
        capmin_oracle(Uniform(0.0, 1.0), [])
    with pytest.raises(ParameterError):
        capmin_oracle(Uniform(0.0, 1.0), [-0.1])
    with pytest.raises(ParameterError):
        capmin_oracle(((0.2, 0.5), (0.3, 0.3)), [0.1])  # probs sum to 0.6
    with pytest.raises(ParameterError):
        capmin_oracle(Uniform(-1.0, 1.0), [0.1])


@pytest.mark.parametrize("payout, b", [
    (Uniform(0.0, 1.0), [0.2, math.nan]),
    (Uniform(0.0, 1.0), [0.2, math.inf]),
    (((0.2, math.nan), (0.5, 0.5)), [0.1]),
    (((0.2, math.inf), (0.5, 0.5)), [0.1]),
    (((0.2, 0.5), (0.5, math.nan)), [0.1]),
    (((0.2, 0.5), (math.inf, 0.5)), [0.1]),
], ids=["b-nan", "b-inf", "atom-nan", "atom-inf", "probability-nan", "probability-inf"])
def test_capmin_rejects_non_finite(payout, b):
    with pytest.raises(ParameterError, match="finite"):
        capmin_oracle(payout, b)


def test_capmin_point_mass_goes_in_the_pair_form():
    # the quadrature of the continuous form misses the atom at 0.5
    with pytest.raises(ParameterError, match=r"\(values, probabilities\)"):
        capmin_oracle(PointMass(0.5), [0.2, 0.8])
    rep = capmin_oracle(((0.5,), (1.0,)), [0.2, 0.5, 0.8])
    assert rep.passed and list(rep.one_sided) == [False, True, False]
    assert list(rep.exact_first) == [1.0, 1.0, 0.0]


# -- lattice check of the ironed cap rule ------------------------------------------


def _five_type_rows(prim, cost, levels):
    # five equally likely types, with discrete hazard w_i / P(type >= theta_i)
    w = np.full(5, 0.2)
    psi = prim.gamma * prim.omega_b / prim.omega_T * w / np.cumsum(w[::-1])[::-1]
    grid = np.linspace(0.0, prim.b_bar, levels)
    return grid, w[:, None] * (cost.value(grid)[None, :] - psi[:, None] * grid[None, :])


def test_welfare_bruteforce_frozen_instance(bench_prim, bench_cost):
    # a frozen five-type instance on 21 levels
    grid, rows = _five_type_rows(bench_prim, bench_cost, 21)
    best, path = simulation._lattice_min(rows)
    assert format_float(best) == "-0.04042666667"
    assert [format_float(b) for b in grid[path]] == ["0", "0", "0.08", "0.2", "0.6"]


@pytest.mark.parametrize("n", range(1, 7))
def test_bruteforce_column_totals_equal_row_sums(n):
    # the DP's totals per level give the least row sum over every nondecreasing
    # tuple, added left to right, bit for bit; the magnitudes make the order of addition visible
    rng = np.random.default_rng(4100 + n)
    for _ in range(50):
        levels = int(rng.integers(2, 22))
        rows = rng.standard_normal((n, levels)) * 10.0 ** rng.integers(-6, 7, (n, 1))
        combos = np.array(list(itertools.combinations_with_replacement(range(levels), n)), dtype=np.intp)
        totals = rows[np.arange(n)[None, :], combos].sum(axis=1)
        best, path = simulation._lattice_min(rows)
        assert np.float64(best).tobytes() == totals.min().tobytes()
        assert np.all(np.diff(path) >= 0) and 0 <= path[0] and path[-1] < levels
        assert np.float64(best).tobytes() == rows[np.arange(n), path].cumsum()[-1].tobytes()


@pytest.mark.parametrize("n", range(1, 7))
def test_welfare_bruteforce_matches_row_sum_search(n, bench_prim, bench_cost, monkeypatch):
    # on a curve of n nodes and a 21-level lattice, the oracle's best caps are
    # the argmin of one gather of the N x n index matrix and a row sum
    levels = 21
    monkeypatch.setattr(simulation, "_LATTICE_LEVELS", levels)
    rng = np.random.default_rng(20260 + n)
    dist = PointMass(float(rng.uniform(0.05, 1.5))) if n == 1 else Weibull(float(rng.uniform(1.0, 4.0)), 1.0)
    curve = virtual_weight(dist, bench_prim, float(rng.uniform(1.0, 4.0)), max(n, 2))
    rep = welfare_bruteforce(curve, bench_cost)
    assert rep.theta.size == n and rep.passed
    grid = np.linspace(0.0, bench_prim.b_bar, levels)
    rows = rep.weights[:, None] * (bench_cost.value(grid)[None, :] - curve.psi[:, None] * grid[None, :])
    combos = np.array(list(itertools.combinations_with_replacement(range(levels), n)), dtype=np.intp)
    totals = rows[np.arange(n)[None, :], combos].sum(axis=1)
    best = int(np.argmin(totals))
    assert np.float64(rep.best_cost).tobytes() == totals[best].tobytes()
    assert rep.best_caps.tobytes() == grid[combos[best]].tobytes()


def test_welfare_bruteforce_no_rescue_instance(bench_prim):
    # an exponential hazard is constant: psi = 0.8 sits below C'(0) = 1 everywhere
    rep = welfare_bruteforce(virtual_weight(Exponential(1.0), bench_prim, 1.0), QuadraticCost(1.0, 1.0))
    assert np.all(rep.solver_caps == 0.0) and np.all(rep.best_caps == 0.0)
    assert rep.solver_cost == 0.0 and rep.best_cost == 0.0
    assert rep.passed


def test_welfare_bruteforce_subsamples_any_grid_to_about_65_weighted_nodes(bench_dist, bench_prim, bench_cost):
    for size in (2, 64, 65, 66, 4000, 4097, 65537):
        curve = virtual_weight(bench_dist, bench_prim, 1.0, size)
        rep = welfare_bruteforce(curve, bench_cost)
        assert rep.theta[0] == curve.theta[0] and rep.theta.size in range(min(size, 65), 130), size
        assert np.all(rep.weights > 0.0) and abs(rep.weights.sum() - 1.0) <= 1e-15
        assert rep.passed and rep.gap_bound == pytest.approx(8e-6, rel=1e-9), size


def test_welfare_bruteforce_weighs_a_subsample_whose_densities_are_all_zero(spike_config):
    curve = virtual_weight(spike_config.dist, spike_config.prim, 1.0, spike_config.grid.size)
    rep = welfare_bruteforce(curve, spike_config.cost)
    if curve.theta.size == 4000:
        assert np.all(spike_config.dist.pdf(rep.theta) == 0.0)
    assert np.all(np.isfinite(rep.weights)) and rep.weights.sum() == pytest.approx(1.0)
    assert rep.passed
    # the allowance is n ulps of the costs, which at 4,097 nodes reach -4.3e6: a fixed 1e-12 is below one ulp there
    assert rep.rounding <= 2 * rep.theta.size * np.finfo(float).eps * max(abs(rep.solver_cost), 1.0)


def test_welfare_bruteforce_fails_a_schedule_that_is_not_ironed(monkeypatch):
    # a running maximum in place of PAV keeps the caps monotone, but not optimal
    cfg = parse_config(pooled_steep_cost_doc())
    monkeypatch.setattr(simulation, "iron_weights", lambda psi, w: (np.maximum.accumulate(psi), None))
    rep = welfare_bruteforce(config_commitment(cfg), cfg.cost)
    assert not rep.passed and rep.best_cost < rep.solver_cost - 1e-3
