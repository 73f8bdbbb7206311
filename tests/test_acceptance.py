"""Acceptance gate: one test per release criterion, each printing a verdict line.

Every test prints exactly one ``[criterion N] PASS/FAIL - detail`` line
before asserting, so a full run (``pytest -rA``) shows the ten verdicts
together.  Tolerances are pinned here and nowhere looser than in the unit
suites; the criteria cover the closed-form benchmark table, the Monte Carlo
path, randomized optimality residuals, the no-rescue boundary, ironing
against an independent hull oracle, comparative-statics certification, the
cap-min derivative identities, the brute-force screening search, the effort
condition, and byte-level determinism of the command-line artifacts.
"""

import math
import time

import numpy as np

from softbudget import (
    Exponential,
    PolicyPrimitives,
    QuadraticCost,
    RevenueModel,
    Uniform,
    capmin_oracle,
    fd_certify,
    fixed_point,
    interior_probability,
    knife_edge,
    m_sensitivity,
    mc_run,
    solve_cap,
    solve_effort,
    virtual_weight,
    welfare_bruteforce,
)
from softbudget.cli import main
from softbudget.statics import FLAG_OK

from conftest import BENCH
from test_mechanism import NON_IFR_FIXTURES, hull_ironed
from test_simulation import THRESHOLD_RULE, effort_prim


def _report(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {verdict} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0


def test_criterion_01_closed_form_table(bench_dist, bench_prim, bench_cost):
    start = time.perf_counter()
    commit = solve_cap(virtual_weight(bench_dist, bench_prim, 1.0), bench_cost, bench_prim.b_bar)
    p_commit = interior_probability(commit, bench_dist)
    disc = fixed_point(bench_dist, bench_prim, bench_cost)
    elapsed = time.perf_counter() - start
    ok = (
        abs(commit.theta_min - 0.125) <= 1e-6
        and abs(commit.theta_dagger - 0.625) <= 1e-6
        and abs(p_commit - 0.308) <= 1e-3
        and disc.converged
        and abs(disc.lambda_T - 0.897) <= 2e-3
        and abs(disc.schedule.theta_min - 0.112) <= 2e-3
        and abs(disc.schedule.theta_dagger - 0.562) <= 2e-3
        and abs(disc.p_int - 0.258) <= 5e-3
        and elapsed < 5.0
    )
    _report(
        1,
        ok,
        "closed-form table: commitment cutoffs "
        f"({commit.theta_min:.6f}, {commit.theta_dagger:.6f}), p_int {p_commit:.4f}; "
        f"discretion lambda_T {disc.lambda_T:.4f}, cutoffs "
        f"({disc.schedule.theta_min:.4f}, {disc.schedule.theta_dagger:.4f}), "
        f"p_int {disc.p_int:.4f}; {elapsed:.2f}s",
    )


def test_criterion_02_monte_carlo_table(bench_dist, bench_prim, bench_cost):
    start = time.perf_counter()
    rep = mc_run(bench_dist, bench_prim, bench_cost, 1.0, n=200_000, seed=20260814, bins=30)
    elapsed = time.perf_counter() - start
    ok = (
        abs(rep.theta_min_hat - rep.theta_min) <= 5e-3
        and abs(rep.theta_dagger_hat - rep.theta_dagger) <= 5e-3
        and abs(rep.p_int_hat - rep.p_int) <= 5e-3
        and elapsed < 30.0
    )
    _report(
        2,
        ok,
        f"monte carlo n=200000: cutoff errors ({abs(rep.theta_min_hat - rep.theta_min):.2e}, "
        f"{abs(rep.theta_dagger_hat - rep.theta_dagger):.2e}), "
        f"p_int error {abs(rep.p_int_hat - rep.p_int):.2e}; {elapsed:.2f}s",
    )


def test_criterion_03_randomized_interior_residual(bench_dist):
    rng = np.random.Generator(np.random.Philox(20260814))
    draws = 0
    worst = 0.0
    while draws < 20:
        alpha = 0.2 * rng.uniform(0.5, 1.5)
        kappa = rng.uniform(0.5, 1.5)
        omega_b = 0.8 * rng.uniform(0.5, 1.5)
        gamma = rng.uniform(0.5, 1.5)
        b_peak = (gamma * omega_b - alpha) / kappa
        if not (1e-3 < b_peak < 0.8 - 1e-3):
            continue
        draws += 1
        prim = PolicyPrimitives(omega_T=1.0, omega_b=omega_b, gamma=gamma, b_bar=0.8, m=0.5)
        cost = QuadraticCost(alpha, kappa)
        curve = virtual_weight(bench_dist, prim, 1.0)
        sched = solve_cap(curve, cost, prim.b_bar)
        interior = (sched.b_star > 1e-9) & (sched.b_star < prim.b_bar - 1e-9)
        assert np.any(interior)
        resid = np.abs(cost.marginal(sched.b_star[interior]) - curve.psi_bar[interior])
        worst = max(worst, float(np.max(resid / np.maximum(1.0, curve.psi_bar[interior]))))
    ok = worst <= 1e-8
    _report(3, ok, f"20 admissible draws: max normalized interior residual {worst:.2e} (bound 1e-8)")


def test_criterion_04_knife_edge_grid():
    alphas = np.linspace(0.05, 1.5, 10)
    rates = np.linspace(0.1, 1.9, 10)
    prim = PolicyPrimitives(omega_T=1.0, omega_b=0.8, gamma=1.0, b_bar=0.8, m=0.5)
    agree = 0
    shutdowns = 0
    for alpha in alphas:
        for rate in rates:
            threshold = prim.gamma * float(prim.omega_b) * rate / prim.omega_T
            assert abs(alpha - threshold) > 1e-9, "grid point sits on the boundary"
            dist = Exponential(rate)
            cost = QuadraticCost(float(alpha), 1.0)
            report = knife_edge(dist, prim, cost)
            if report.no_rescue == (alpha >= threshold):
                agree += 1
            if report.no_rescue:
                sched = solve_cap(virtual_weight(dist, prim, 1.0), cost, prim.b_bar)
                if np.all(sched.b_star == 0.0) and sched.regime == "no-rescue":
                    shutdowns += 1
                else:
                    shutdowns -= 10_000
    expected_true = sum(
        1 for a in alphas for r in rates if a >= prim.gamma * float(prim.omega_b) * r / prim.omega_T
    )
    ok = agree == 100 and shutdowns == expected_true and 0 < expected_true < 100
    _report(
        4,
        ok,
        f"exponential 10x10 grid: {agree}/100 boundary classifications agree, "
        f"{shutdowns}/{expected_true} no-rescue cells have an all-zero schedule",
    )


def test_criterion_05_ironing_hull_oracle(bench_prim):
    worst = 0.0
    worst_rel = 0.0
    monotone = True
    engaged = True
    for dist in NON_IFR_FIXTURES:
        # the documented fixture evaluation keeps psi O(100) so the pointwise
        # absolute bound is meaningful; the tabulated hazard explodes at the
        # default survivor-1e-10 truncation, checked with a relative bound below
        curve = virtual_weight(dist, bench_prim, 1.0, grid_size=801, tail_mass=1e-6)
        oracle = hull_ironed(curve.psi, curve.density)
        worst = max(worst, float(np.max(np.abs(curve.psi_bar - oracle))))
        monotone = monotone and bool(np.all(np.diff(curve.psi_bar) >= -1e-12))
        engaged = engaged and bool(np.any(curve.ironed))
        dense = virtual_weight(dist, bench_prim, 1.0)
        dense_oracle = hull_ironed(dense.psi, dense.density)
        rel = np.abs(dense.psi_bar - dense_oracle) / np.maximum(1.0, np.abs(dense.psi_bar))
        worst_rel = max(worst_rel, float(np.max(rel)))
    ok = worst <= 1e-6 and worst_rel <= 1e-8 and monotone and engaged
    _report(
        5,
        ok,
        f"{len(NON_IFR_FIXTURES)} non-monotone-hazard fixtures: max deviation from hull oracle {worst:.2e} "
        f"(bound 1e-6; {worst_rel:.2e} relative on the default grid), "
        f"nondecreasing={monotone}, ironing engaged={engaged}",
    )


def test_criterion_06_statics_certification(bench_dist, bench_prim, bench_cost):
    rep = fd_certify(bench_dist, bench_prim, bench_cost)
    clean = all(r.flag == FLAG_OK for r in rep.rows) and len(rep.rows) == 7
    msens = m_sensitivity(bench_dist, bench_prim, bench_cost)
    fd = {r.partial: r.finite_difference for r in msens.rows}
    signs = fd["d_lambda_T_d_m"] < 0 and fd["d_theta_min_d_m"] < 0 and fd["d_b_max_d_m"] > 0
    ok = clean and rep.all_ok and rep.max_rel_error <= 1e-4 and signs
    _report(
        6,
        ok,
        f"7 analytic partials certified, max relative error {rep.max_rel_error:.2e} "
        f"(bound 1e-4); slope-sensitivity signs through the fixed point "
        f"({fd['d_lambda_T_d_m']:+.4f}, {fd['d_theta_min_d_m']:+.4f}, {fd['d_b_max_d_m']:+.4f})",
    )


def test_criterion_07_capmin_identities():
    rep = capmin_oracle(Uniform(0.0, 1.0), np.linspace(0.1, 0.9, 9))
    dev = max(rep.max_dev_first, rep.max_dev_second)
    ok = rep.passed and dev <= 5e-5 and not np.any(rep.one_sided)
    _report(7, ok, f"cap-min derivative identities on uniform payouts: max deviation {dev:.2e} (bound 5e-5)")


def test_criterion_08_brute_force_search(bench_prim, bench_cost):
    start = time.perf_counter()
    rep = welfare_bruteforce([0.2, 0.4, 0.6, 0.8, 1.0], [0.2] * 5, bench_prim, bench_cost, lambda_T=1.0)
    elapsed = time.perf_counter() - start
    shortfall = rep.kkt_cost - rep.best_cost
    overshoot = rep.best_cost - rep.kkt_cost
    ok = (
        rep.passed
        and rep.ic_ok
        and rep.ir_ok
        and shortfall <= 1e-6
        and overshoot <= rep.gap_bound + 1e-6
        and elapsed < 60.0
    )
    _report(
        8,
        ok,
        f"{rep.n_schedules} monotone schedules enumerated: best cost within "
        f"[{-shortfall:.2e}, {overshoot:.2e}] of the first-order solution "
        f"(gap bound {rep.gap_bound:.1e}); {elapsed:.1f}s",
    )


def test_criterion_09_effort_condition():
    closed = solve_effort(0.5, effort_prim(0.0), THRESHOLD_RULE, RevenueModel(2.0, 1.0))
    closed_err = abs(closed.effort - (2.0 / 1.5 - 1.0))
    base = solve_effort(0.5, effort_prim(1.5), THRESHOLD_RULE)
    invariance = max(
        abs(solve_effort(0.5, effort_prim(1.5), THRESHOLD_RULE, report_cap=cap).effort - base.effort)
        for cap in (0.0, 0.3, 0.8)
    )
    efforts = [solve_effort(0.5, effort_prim(pd), THRESHOLD_RULE).effort for pd in (0.0, 0.5, 1.0, 1.5, 2.0)]
    # the first-order condition R'(e)(1 + phi_d*Lambda) = phi_e with concave
    # revenue makes e* strictly increasing in phi_d: e* falls as phi_d falls
    # toward 0, hitting the closed-form phi_d=0 solution from above
    monotone = bool(np.all(np.diff(efforts) > 0.0))
    ok = closed_err <= 1e-10 and invariance <= 1e-10 and monotone
    _report(
        9,
        ok,
        f"effort condition: phi_d=0 closed-form error {closed_err:.1e}, report invariance "
        f"{invariance:.1e}; e* strictly increasing in phi_d "
        f"({', '.join(f'{e:.3f}' for e in efforts)}), i.e. falls as phi_d falls toward 0",
    )


def test_criterion_10_byte_identical_artifacts(benchmark_config, tmp_path):
    cfg = str(benchmark_config)
    dirs = [tmp_path / "first", tmp_path / "second"]
    for out in dirs:
        for sub in ("solve", "knife-edge", "discretion", "statics", "simulate", "oracle"):
            assert _run_cli(sub, "--config", cfg, "--out", str(out), "--quiet") == 0
    first = sorted(p.name for p in dirs[0].iterdir())
    second = sorted(p.name for p in dirs[1].iterdir())
    identical = first == second and all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes() for name in first
    )
    ok = identical and len(first) >= 9
    _report(
        10,
        ok,
        f"two command-line passes over all six subcommands: "
        f"{len(first)} artifacts, byte-identical={identical}",
    )
