import math
from dataclasses import replace

import numpy as np
import pytest

from softbudget import (
    Exponential,
    IllPosedError,
    ParameterError,
    PointMass,
    PolicyPrimitives,
    QuadraticCost,
    TabulatedCost,
    Uniform,
    WeightCurve,
    analytic_partials,
    fd_certify,
    fixed_point,
    load_config,
    m_sensitivity,
    virtual_weight,
)
from softbudget import mechanism, statics
from softbudget.mechanism import VirtualWeightCurve, solve_cap
from softbudget.statics import (
    FLAG_NOT_APPLICABLE, FLAG_OK, FLAG_REGIME_BOUNDARY, StaticsReport, StaticsRow, statics_failures,
)
from conftest import ROOT, PlateauHazard, config_commitment, irregular_config, pooled_config

FROZEN_D_LAMBDA_D_M = -0.1724158793


def test_analytic_partials_benchmark_values(bench_dist, bench_cost, bench_prim):
    out = analytic_partials(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost)
    # hazard 2*theta: slope 2 everywhere, cutoff 0.125, reference cap 0.6
    assert out["theta_min"] == pytest.approx(0.125, abs=1e-8)
    assert out["b_max"] == pytest.approx(0.6, abs=1e-12)
    assert out["d_theta_min_d_alpha"] == pytest.approx(0.625, abs=1e-10)
    assert out["d_theta_min_d_omega_b"] == pytest.approx(-0.15625, abs=1e-10)
    assert out["d_theta_min_d_lambda_T"] == pytest.approx(0.125, abs=1e-10)
    assert out["d_theta_min_d_gamma"] == pytest.approx(-0.125, abs=1e-10)
    assert out["d_b_max_d_kappa"] == pytest.approx(-0.6, abs=1e-12)
    assert out["d_b_max_d_lambda_T"] == pytest.approx(-0.8, abs=1e-12)
    assert out["d_b_max_d_gamma"] == pytest.approx(0.8, abs=1e-12)


def test_fd_certify_benchmark(bench_dist, bench_cost, bench_prim):
    report = fd_certify(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost)
    assert len(report.rows) == 7
    assert all(r.flag == FLAG_OK for r in report.rows)
    assert statics_failures(report, None) == []
    assert report.max_rel_error <= 1e-4
    assert report.theta_ref == pytest.approx(0.5, abs=1e-10)
    for r in report.rows:
        assert r.sign_ok, r.partial


def test_analytic_partials_need_an_interior_lower_cutoff(bench_dist, bench_prim):
    # no rescue at all, and a lower cutoff on the support's edge theta[0]
    for dist, cost in ((Exponential(1.0), QuadraticCost(1.0, 1.0)), (bench_dist, QuadraticCost(0.0, 1.0))):
        with pytest.raises(ParameterError, match="no interior lower cutoff"):
            analytic_partials(virtual_weight(dist, bench_prim, 1.0), cost)


def test_fd_certify_not_applicable_under_no_rescue(bench_prim):
    report = fd_certify(virtual_weight(Exponential(1.0), bench_prim, 1.0), QuadraticCost(1.0, 1.0))
    assert all(r.flag == FLAG_NOT_APPLICABLE for r in report.rows)
    assert math.isnan(report.theta_min)
    assert math.isnan(report.max_rel_error)
    assert statics_failures(report, None) == ["no partial was certified"]


def test_analytic_partials_reject_flat_hazard_cutoff(bench_prim, bench_cost):
    # benchmark weights put the cutoff at hazard 0.25, the exact plateau
    with pytest.raises(IllPosedError):
        analytic_partials(virtual_weight(PlateauHazard(), bench_prim, 1.0), bench_cost)


def test_plateau_hazard_is_consistent():
    dist = PlateauHazard()
    pts = np.linspace(0.05, 2.0, 57)
    eps = 1e-7
    fd = (dist.cdf(pts + eps) - dist.cdf(pts - eps)) / (2.0 * eps)
    assert np.max(np.abs(fd - dist.pdf(pts))) <= 1e-5
    u = np.array([0.1, 0.4, 0.9])
    assert np.max(np.abs(dist.cdf(dist.ppf(u)) - u)) <= 1e-9


def test_fd_certify_flags_regime_boundary(bench_prim):
    # weight 0.8/(1 - theta) starts a hair below alpha, so any one-sided
    # perturbation that lifts the weight curve deletes the interior cutoff
    report = fd_certify(virtual_weight(Uniform(0.0, 1.0), bench_prim, 1.0), QuadraticCost(0.8000005, 1.0))
    by_name = {r.partial: r for r in report.rows}
    assert by_name["d_theta_min_d_alpha"].flag == FLAG_REGIME_BOUNDARY
    # uniform hazard starts at one, so there is no hazard-one anchor type
    assert by_name["d_b_max_d_gamma"].flag == FLAG_NOT_APPLICABLE
    assert all(r.sign_ok for r in report.rows if r.flag == FLAG_OK)


def test_fd_certify_validation(bench_dist, bench_prim, bench_cost):
    with pytest.raises(ParameterError):
        fd_certify(virtual_weight(bench_dist, bench_prim, 1.0), TabulatedCost([0.0, 1.0], [0.1, 0.5]))
    curve_prim = PolicyPrimitives(
        omega_T=1.0,
        omega_b=WeightCurve([0.0, 1.0], [0.5, 0.9]),
        gamma=1.0,
        b_bar=0.8,
    )
    with pytest.raises(ParameterError):
        fd_certify(virtual_weight(bench_dist, curve_prim, 1.0), bench_cost)


def test_randomized_admissible_draws_certify(bench_dist):
    rng = np.random.Generator(np.random.Philox(2026))
    kept = 0
    while kept < 20:
        alpha = 0.2 * rng.uniform(0.5, 1.5)
        kappa = 1.0 * rng.uniform(0.5, 1.5)
        omega_b = 0.8 * rng.uniform(0.5, 1.5)
        gamma = rng.uniform(0.5, 1.5)
        b_ref = (gamma * omega_b - alpha) / kappa
        if not (1e-3 < b_ref < 0.8 - 1e-3):
            continue
        kept += 1
        prim = PolicyPrimitives(omega_T=1.0, omega_b=omega_b, gamma=gamma, b_bar=0.8)
        report = fd_certify(virtual_weight(bench_dist, prim, 1.0), QuadraticCost(alpha, kappa))
        clean = [r for r in report.rows if r.flag == FLAG_OK]
        assert len(clean) == 7
        assert statics_failures(report, None) == []
        assert report.max_rel_error <= 1e-4


def test_m_sensitivity_benchmark(bench_dist, bench_cost, bench_prim):
    report = m_sensitivity(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost)
    by_name = {r.partial: r for r in report.rows}
    lam_row = by_name["d_lambda_T_d_m"]
    assert lam_row.flag == FLAG_OK
    assert lam_row.analytic == pytest.approx(FROZEN_D_LAMBDA_D_M, abs=1e-6)
    assert lam_row.rel_error <= 1e-4
    # weaker rules (higher m) cut the multiplier, start rescue earlier, and
    # raise the reference cap
    assert lam_row.sign_ok and lam_row.finite_difference < 0.0
    assert by_name["d_theta_min_d_m"].sign_ok and by_name["d_theta_min_d_m"].finite_difference < 0.0
    assert by_name["d_b_max_d_m"].sign_ok and by_name["d_b_max_d_m"].finite_difference > 0.0
    assert all(r.sign_ok for r in report.rows if r.flag == FLAG_OK)
    assert report.chain_gap is not None and report.chain_gap <= 1e-3
    assert report.max_rel_error <= 1e-3


def test_statics_on_the_discretion_config_follow_the_solver():
    # bisected cutoffs put a 1e-14 staircase under the differences: the
    # cutoff rows read 2.8e-10, the m rows 1.2e-9 to 3.2e-9 and the chain
    # gap 2.0e-9; differencing the closed-form crossing, no row reads more
    # than the cap row d_b_max_d_kappa's 1.03e-10 and the chain gap is 0
    cfg = load_config(str(ROOT / "configs" / "discretion_benchmark.json"))
    commitment = config_commitment(cfg)
    report, m_report = fd_certify(commitment, cfg.cost), m_sensitivity(commitment, cfg.cost)
    rows = report.rows + m_report.rows
    assert len(rows) == 10 and all(r.flag == FLAG_OK for r in rows)
    assert max(r.rel_error for r in rows) <= 2e-10
    assert m_report.chain_gap <= 1e-12


def test_statics_reuse_a_given_commitment_curve(bench_dist, bench_cost, bench_prim):
    commitment = virtual_weight(bench_dist, bench_prim, bench_prim.omega_T)
    # both certifications read the shared curve as they read a fresh one
    assert fd_certify(commitment, bench_cost) == fd_certify(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost)
    assert m_sensitivity(commitment, bench_cost) == m_sensitivity(
        virtual_weight(bench_dist, bench_prim, 1.0), bench_cost
    )
    assert commitment.prim is bench_prim  # the m perturbations work on copies
    assert fd_certify(virtual_weight(bench_dist, bench_prim, 0.9), bench_cost).lambda_T == 0.9
    # the fixed points start at omega_T, so a curve at another lambda is refused
    with pytest.raises(ParameterError):
        m_sensitivity(virtual_weight(bench_dist, bench_prim, 0.9), bench_cost)


def test_m_sensitivity_at_zero_m_is_not_applicable(bench_dist, bench_cost):
    # m = 0 is the schema's default and the edge of its domain [0, 1): m - h leaves it
    prim = PolicyPrimitives(omega_T=1.0, omega_b=0.8, gamma=1.0, b_bar=0.8, m=0.0, chi=1.0)
    report = m_sensitivity(virtual_weight(bench_dist, prim, 1.0), bench_cost)
    assert [r.partial for r in report.rows] == ["d_lambda_T_d_m", "d_theta_min_d_m", "d_b_max_d_m"]
    assert [r.flag for r in report.rows] == [FLAG_NOT_APPLICABLE] * 3
    assert report.chain_gap is None and report.lambda_T == 1.0


def test_m_sensitivity_without_an_interior_cutoff_at_its_fixed_point_applies_nowhere(bench_prim):
    # PointMass(0.5) at m = 0.2 has its fixed point at lambda_T = 0.84, where
    # the one type's cap is interior and the cutoff is theta[0]: no m row
    # applies, as no commitment row does (it raised ParameterError)
    curve = virtual_weight(PointMass(0.5), replace(bench_prim, m=0.2), 1.0)
    report = m_sensitivity(curve, QuadraticCost(0.2, 1.0))
    assert [r.flag for r in report.rows] == [FLAG_NOT_APPLICABLE] * 3
    assert report.chain_gap is None and report.lambda_T == pytest.approx(0.84, abs=1e-12)


def test_m_sensitivity_flags_every_row_where_a_perturbed_fixed_point_jumps(monkeypatch):
    # the irregular density at seed 3 has no fixed point for m above
    # 0.36373418: at m = 0.3637333 the fixed points at m and m - h converge,
    # and the one at m + h meets the jump of P_int (it raised "did not converge")
    cfg = irregular_config(3, 4097, discretion=True)
    prim = replace(cfg.prim, m=0.3637333)
    curve = virtual_weight(cfg.dist, prim, prim.omega_T, cfg.grid.size)
    solutions = []

    def recorded(*args, **kwargs):
        solutions.append(fixed_point(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(statics, "fixed_point", recorded)
    report = m_sensitivity(curve, cfg.cost)
    assert [(sol.converged, sol.jump is None) for sol in solutions] == [(True, True), (False, False), (True, True)]
    assert [r.flag for r in report.rows] == [FLAG_REGIME_BOUNDARY] * 3
    assert report.chain_gap is None


# -- pooled curves and derived curves ---------------------------------------


@pytest.mark.parametrize("seed", [1, 7])
def test_b_max_partials_hold_where_theta_ref_is_pooled(seed):
    # the irregular workload's theta_ref lies on a pooled stretch, where the
    # solver reads psi_bar(theta_ref), not gamma*omega_b/lambda_T = 0.8: the
    # b_max partials missed their differences by 2.1e-2 (seed 1) and 6.0e-2
    # (seed 7) at every grid size before they were written in psi_bar
    cfg = irregular_config(seed, 16385)
    curve = config_commitment(cfg)
    report = fd_certify(curve, cfg.cost)
    assert statics_failures(report, None) == []
    i = int(np.searchsorted(curve.theta, report.theta_ref))
    assert curve.ironed[i - 1] and curve.ironed[i]
    level = float(curve.psi_bar_at(report.theta_ref))
    assert level < 0.79
    assert report.b_max == (level - cfg.cost.alpha) / cfg.cost.kappa
    rows = {r.partial: r for r in report.rows}
    assert rows["d_b_max_d_kappa"].rel_error < 1e-8 and rows["d_b_max_d_gamma"].analytic == level / cfg.cost.kappa


def test_m_sensitivity_holds_where_theta_min_is_next_to_a_tabulation_node():
    # on the seed-7 density the discretionary theta_min lies 1.8e-4 below a
    # node of the piecewise-linear density; a 5-point stencil of step 3e-4
    # straddled the kink there and read h' = 2.480 against 2.4574 in the
    # cell, so the chain gap was 9.1e-3 at 16,385 and 65,537 nodes
    cfg = irregular_config(7, 16385, discretion=True)
    curve = config_commitment(cfg)
    m_report = m_sensitivity(curve, cfg.cost)
    assert statics_failures(fd_certify(curve, cfg.cost), m_report) == []


def test_analytic_partials_reject_a_cutoff_on_a_pooled_stretch():
    # psi_bar pools on [0.2236, 0.6829] at 3.2845 and sits at 3.2754 just
    # below it: with C'(0) = 3.28 the lower cutoff falls in the cell that
    # rises onto the block, where it moves with the block mean, not h
    cfg = pooled_config()
    curve = config_commitment(cfg)
    cost = QuadraticCost(3.28, 1.0)
    block = r"theta_min = 0\.2235124132 lies on or next to the pooled stretch \[0\.2236327868, 0\.6828612497\]"
    with pytest.raises(IllPosedError, match=block):
        analytic_partials(curve, cost)
    with pytest.raises(IllPosedError, match=block):
        fd_certify(curve, cost)


@pytest.mark.parametrize("pooled", [False, True])
def test_fd_certify_perturbed_curves_match_fresh_builds(monkeypatch, pooled, bench_dist, bench_cost, bench_prim):
    # the six omega_b, gamma and lambda perturbations are derived from the
    # base curve's hazard; each equals a fresh build bit for bit
    if pooled:
        cfg = pooled_config()
        base, cost = config_commitment(cfg), cfg.cost
    else:
        base, cost = virtual_weight(bench_dist, bench_prim, 1.0), bench_cost
    derived = []
    at = VirtualWeightCurve.at

    def recording(self, prim, lambda_T):
        derived.append(at(self, prim, lambda_T))
        return derived[-1]

    monkeypatch.setattr(VirtualWeightCurve, "at", recording)
    fd_certify(base, cost)
    assert len(derived) == 6
    for curve in derived:
        assert curve.hazard is base.hazard and curve.theta is base.theta
        fresh = virtual_weight(curve.dist, curve.prim, curve.lambda_T, base.theta.size)
        for name in ("psi", "psi_bar", "ironed"):
            assert getattr(curve, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert solve_cap(curve, cost).b_star.tobytes() == solve_cap(fresh, cost).b_star.tobytes()
        assert np.any(curve.ironed) == pooled


def test_m_sensitivity_irons_the_commitment_curve_once(monkeypatch, bench_dist, bench_cost, bench_prim):
    # every curve of the three fixed points is derived from the commitment
    # curve and inherits its pooled blocks: one PAV pass in all
    calls = []
    original = mechanism.iron_weights
    monkeypatch.setattr(mechanism, "iron_weights", lambda psi, w: calls.append(len(psi)) or original(psi, w))
    commitment = virtual_weight(bench_dist, bench_prim, 1.0, grid_size=257)
    m_sensitivity(commitment, bench_cost)
    assert calls == [257]


def test_fixed_point_and_statics_iron_the_pooled_commitment_curve_once(monkeypatch):
    # every other curve of the fixed point, fd_certify and m_sensitivity is
    # derived from the commitment curve and inherits its pooled blocks
    cfg = pooled_config()
    calls = []
    original = mechanism.iron_weights
    monkeypatch.setattr(mechanism, "iron_weights", lambda psi, w: calls.append(len(psi)) or original(psi, w))
    curve = config_commitment(cfg)
    assert fixed_point(curve, cfg.cost).converged and cfg.prim.m == 0.5
    fd_certify(curve, cfg.cost)
    m_sensitivity(curve, cfg.cost)
    assert calls == [curve.theta.size]
    assert curve.ironed.any()


THETA_MIN_ROWS = ["d_theta_min_d_alpha", "d_theta_min_d_omega_b", "d_theta_min_d_lambda_T", "d_theta_min_d_gamma"]
B_MAX_ROWS = ["d_b_max_d_kappa", "d_b_max_d_lambda_T", "d_b_max_d_gamma"]


def test_fd_certify_flags_cap_rows_whose_cell_holds_the_kink(bench_dist, bench_cost, bench_prim):
    # omega_b = 1 puts theta_ref = theta_dagger = 0.5: the caps kink onto
    # b_bar inside theta_ref's cell, where central differences read 0.1615
    # against 0.8 (rel_error 0.798); those rows are regime boundaries, and
    # the cutoff rows still certify.  At the discretionary lambda_T < 1 the
    # cap at theta_ref is b_bar, above the b_max domain: d_b_max_d_m does
    # not apply (it read a difference of 0, "wrong sign")
    curve = virtual_weight(bench_dist, replace(bench_prim, omega_b=1.0), 1.0)
    report = fd_certify(curve, bench_cost)
    flags = {r.partial: r.flag for r in report.rows}
    assert [flags[name] for name in B_MAX_ROWS] == [FLAG_REGIME_BOUNDARY] * 3
    assert [flags[name] for name in THETA_MIN_ROWS] == [FLAG_OK] * 4
    assert report.max_rel_error < 1e-8 and report.b_max == 0.8
    m_report = m_sensitivity(curve, bench_cost)
    assert math.isnan(m_report.b_max)
    assert [r.flag for r in m_report.rows] == [FLAG_OK, FLAG_OK, FLAG_NOT_APPLICABLE]
    assert statics_failures(report, m_report) == []


def test_b_max_below_its_domain_is_not_applicable(bench_dist, bench_prim):
    # alpha = 0.9 lies above psi_bar(theta_ref) = 0.8, so the cap at theta_ref
    # is zero: b_max (-0.1 by the formula) and its three rows do not apply,
    # while the cutoff rows certify.  At the discretionary lambda_T the cap
    # there is interior again, and m_sensitivity's b_max row certifies
    curve = virtual_weight(bench_dist, bench_prim, 1.0)
    cost = QuadraticCost(0.9, 1.0)
    assert math.isnan(analytic_partials(curve, cost)["b_max"])
    report = fd_certify(curve, cost)
    assert math.isnan(report.b_max)
    flags = {r.partial: r.flag for r in report.rows}
    assert [flags[name] for name in B_MAX_ROWS] == [FLAG_NOT_APPLICABLE] * 3
    assert [flags[name] for name in THETA_MIN_ROWS] == [FLAG_OK] * 4
    assert report.max_rel_error < 1e-8
    m_report = m_sensitivity(curve, cost)
    assert m_report.b_max > 0.0 and all(r.flag == FLAG_OK for r in m_report.rows)
    assert statics_failures(report, m_report) == []


def test_statics_failures_name_a_report_that_certifies_nothing():
    flagged = StaticsRow("d_theta_min_d_alpha", 1.0, math.nan, math.nan, +1, False, FLAG_NOT_APPLICABLE)
    report = StaticsReport(rows=(flagged,), theta_min=math.nan, b_max=math.nan, theta_ref=math.nan, lambda_T=1.0)
    assert statics_failures(report, None) == ["no partial was certified"]
    certified = replace(report, rows=(StaticsRow("d_lambda_T_d_m", -1.0, -1.0, 0.0, -1, True),), chain_gap=0.0)
    assert statics_failures(report, certified) == []
