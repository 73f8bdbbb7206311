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
    TypeDistribution,
    Uniform,
    WeightCurve,
    analytic_partials,
    fd_certify,
    m_sensitivity,
    virtual_weight,
)
from softbudget.statics import FLAG_NOT_APPLICABLE, FLAG_OK, FLAG_REGIME_BOUNDARY

FROZEN_D_LAMBDA_D_M = -0.1724158793


class PlateauHazard(TypeDistribution):
    """Hazard exactly flat at 0.25 on [0.4, 0.6], rising on either side.

    The benchmark weights put the lower cutoff on the plateau, where the
    implicit-function denominator (the hazard slope) is identically zero.
    """

    kind = "plateau-hazard"

    @property
    def support(self):
        return (0.0, math.inf)

    @property
    def is_ifr(self):
        return True

    def hazard(self, theta):
        arr = np.asarray(theta, dtype=float)
        out = np.where(
            arr < 0.4,
            0.05 + 0.5 * arr,
            np.where(arr <= 0.6, 0.25, 0.25 + 0.5 * (arr - 0.6)),
        )
        return float(out) if arr.ndim == 0 else out

    def hazard_slope(self, theta):
        arr = np.asarray(theta, dtype=float)
        out = np.where((arr >= 0.4) & (arr <= 0.6), 0.0, 0.5)
        return float(out) if arr.ndim == 0 else out

    def _cum_hazard(self, arr):
        low = 0.05 * np.minimum(arr, 0.4) + 0.25 * np.minimum(arr, 0.4) ** 2
        mid = 0.25 * np.clip(arr - 0.4, 0.0, 0.2)
        hi = arr - 0.6
        high = np.where(hi > 0.0, 0.25 * hi + 0.25 * hi**2, 0.0)
        return low + mid + high

    def pdf(self, theta):
        arr = np.asarray(theta, dtype=float)
        out = self.hazard(arr) * np.exp(-self._cum_hazard(arr))
        return float(out) if arr.ndim == 0 else out

    def cdf(self, theta):
        arr = np.asarray(theta, dtype=float)
        out = -np.expm1(-self._cum_hazard(arr))
        return float(out) if arr.ndim == 0 else out

    def survivor(self, theta):
        arr = np.asarray(theta, dtype=float)
        out = np.exp(-self._cum_hazard(arr))
        return float(out) if arr.ndim == 0 else out

    def ppf(self, u):
        arr = np.asarray(u, dtype=float)
        target = -np.log1p(-arr)
        lo = np.zeros_like(arr)
        hi = np.full_like(arr, 200.0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            ge = self._cum_hazard(mid) >= target
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid)
        return float(hi) if arr.ndim == 0 else hi


def test_analytic_partials_benchmark_values(bench_dist, bench_cost, bench_prim):
    out = analytic_partials(bench_dist, bench_prim, bench_cost)
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
    report = fd_certify(bench_dist, bench_prim, bench_cost)
    assert len(report.rows) == 7
    assert all(r.flag == FLAG_OK for r in report.rows)
    assert report.all_ok
    assert report.max_rel_error <= 1e-4
    assert report.theta_ref == pytest.approx(0.5, abs=1e-10)
    for r in report.rows:
        assert r.sign_ok, r.partial


def test_fd_certify_not_applicable_under_no_rescue(bench_prim):
    report = fd_certify(Exponential(1.0), bench_prim, QuadraticCost(1.0, 1.0))
    assert all(r.flag == FLAG_NOT_APPLICABLE for r in report.rows)
    assert math.isnan(report.theta_min)
    assert math.isnan(report.max_rel_error)
    assert report.all_ok  # vacuously: no unflagged rows


def test_analytic_partials_reject_flat_hazard_cutoff(bench_prim, bench_cost):
    # benchmark weights put the cutoff at hazard 0.25, the exact plateau
    with pytest.raises(IllPosedError):
        analytic_partials(PlateauHazard(), bench_prim, bench_cost)


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
    report = fd_certify(Uniform(0.0, 1.0), bench_prim, QuadraticCost(0.8000005, 1.0))
    by_name = {r.partial: r for r in report.rows}
    assert by_name["d_theta_min_d_alpha"].flag == FLAG_REGIME_BOUNDARY
    # uniform hazard starts at one, so there is no hazard-one anchor type
    assert by_name["d_b_max_d_gamma"].flag == FLAG_NOT_APPLICABLE
    assert report.all_ok


def test_fd_certify_validation(bench_dist, bench_prim, bench_cost):
    with pytest.raises(ParameterError):
        fd_certify(bench_dist, bench_prim, bench_cost, step=0.5)
    with pytest.raises(ParameterError):
        fd_certify(bench_dist, bench_prim, TabulatedCost([0.0, 1.0], [0.1, 0.5]))
    curve_prim = PolicyPrimitives(
        omega_T=1.0,
        omega_b=WeightCurve([0.0, 1.0], [0.5, 0.9]),
        gamma=1.0,
        b_bar=0.8,
    )
    with pytest.raises(ParameterError):
        fd_certify(bench_dist, curve_prim, bench_cost)


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
        report = fd_certify(bench_dist, prim, QuadraticCost(alpha, kappa))
        clean = [r for r in report.rows if r.flag == FLAG_OK]
        assert len(clean) == 7
        assert report.all_ok
        assert report.max_rel_error <= 1e-4


def test_m_sensitivity_benchmark(bench_dist, bench_cost, bench_prim):
    report = m_sensitivity(bench_dist, bench_prim, bench_cost)
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
    assert fd_certify(bench_dist, bench_prim, bench_cost, curve=commitment) == fd_certify(
        bench_dist, bench_prim, bench_cost
    )
    assert m_sensitivity(bench_dist, bench_prim, bench_cost, curve=commitment) == m_sensitivity(
        bench_dist, bench_prim, bench_cost
    )
    with pytest.raises(ParameterError):
        fd_certify(bench_dist, bench_prim, bench_cost, lambda_T=0.9, curve=commitment)
    with pytest.raises(ParameterError):
        m_sensitivity(bench_dist, bench_prim, bench_cost, curve=virtual_weight(bench_dist, bench_prim, 0.9))


def test_m_sensitivity_requires_positive_m(bench_dist, bench_cost):
    prim = PolicyPrimitives(omega_T=1.0, omega_b=0.8, gamma=1.0, b_bar=0.8, m=0.0, chi=1.0)
    with pytest.raises(ParameterError):
        m_sensitivity(bench_dist, prim, bench_cost)
