import math

import numpy as np
import pytest

from softbudget import (
    Exponential,
    IllPosedError,
    ParameterError,
    PolicyPrimitives,
    QuadraticCost,
    TabulatedCost,
    Uniform,
    WeightCurve,
    analytic_partials,
    fd_certify,
    m_sensitivity,
    virtual_weight,
)
from softbudget import mechanism
from softbudget.mechanism import VirtualWeightCurve, solve_cap
from softbudget.statics import FLAG_NOT_APPLICABLE, FLAG_OK, FLAG_REGIME_BOUNDARY, statics_failures
from conftest import PlateauHazard, config_commitment, irregular_config, pooled_config

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
    assert report.all_ok
    assert report.max_rel_error <= 1e-4
    assert report.theta_ref == pytest.approx(0.5, abs=1e-10)
    for r in report.rows:
        assert r.sign_ok, r.partial


def test_fd_certify_not_applicable_under_no_rescue(bench_prim):
    report = fd_certify(virtual_weight(Exponential(1.0), bench_prim, 1.0), QuadraticCost(1.0, 1.0))
    assert all(r.flag == FLAG_NOT_APPLICABLE for r in report.rows)
    assert math.isnan(report.theta_min)
    assert math.isnan(report.max_rel_error)
    assert report.all_ok  # vacuously: no unflagged rows


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
    assert report.all_ok


def test_fd_certify_validation(bench_dist, bench_prim, bench_cost):
    with pytest.raises(ParameterError):
        fd_certify(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost, step=0.5)
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
        assert report.all_ok
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
    assert report.all_ok
    assert report.chain_gap is not None and report.chain_gap <= 1e-3
    assert report.max_rel_error <= 1e-3


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


def test_m_sensitivity_requires_positive_m(bench_dist, bench_cost):
    prim = PolicyPrimitives(omega_T=1.0, omega_b=0.8, gamma=1.0, b_bar=0.8, m=0.0, chi=1.0)
    with pytest.raises(ParameterError):
        m_sensitivity(virtual_weight(bench_dist, prim, 1.0), bench_cost)


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
        fresh = virtual_weight(curve.dist, curve.prim, curve.lambda_T, base.grid_size, base.tail_mass)
        for name in ("psi", "psi_bar", "ironed"):
            assert getattr(curve, name).tobytes() == getattr(fresh, name).tobytes(), name
        b_bar = curve.prim.b_bar
        assert solve_cap(curve, cost, b_bar).b_star.tobytes() == solve_cap(fresh, cost, b_bar).b_star.tobytes()
        assert np.any(curve.ironed) == pooled


def test_m_sensitivity_irons_the_commitment_curve_once(monkeypatch, bench_dist, bench_cost, bench_prim):
    # m does not enter psi: the three fixed points share the commitment
    # curve's ironing, and each irons only the curve at its lambda_T
    calls = []
    original = mechanism.iron_weights
    monkeypatch.setattr(mechanism, "iron_weights", lambda psi, w: calls.append(len(psi)) or original(psi, w))
    commitment = virtual_weight(bench_dist, bench_prim, 1.0, grid_size=257)
    m_sensitivity(commitment, bench_cost)
    assert calls == [257] * 4
