"""Command-line interface: config-driven runs with CSV/JSON artifacts.

Subcommands
-----------
solve       full pipeline: virtual weights, cap schedule, transfers,
            authority cost (preceded by the discretionary fixed point when
            the config enables discretion); writes summary.json,
            cap_schedule.csv, transfers.csv.
knife-edge  no-rescue test; writes summary.json.
discretion  fixed point for the effective grant weight; writes
            discretion.json (with the iteration trace) and summary.json.
statics     analytic partials certified against finite differences of the
            full solver; writes statics.csv and summary.json.
simulate    Monte Carlo verification of the cap schedule; writes
            mc_report.json, binned_means.csv, summary.json.
oracle      self-checking fixtures for the cap-minimum calculus and the
            brute-force second-best search; writes oracle_capmin.json,
            oracle_bruteforce.json, summary.json.

Exit codes: 0 success, 1 validation error (bad flags or config), 2
numerical failure (non-convergence or a failed embedded check), 3 I/O
error.  All floats in artifacts carry 10 significant digits; writes are
atomic; identical configs and seeds give byte-identical artifacts.  The
wall-clock duration is printed to stdout only, so artifacts stay
reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from typing import Optional

import numpy as np

from .config import MAX_GRID_SIZE, RunConfig, load_config
from .discretion import DiscretionSolution, fixed_point, interior_probability
from .distributions import Uniform
from .errors import (
    ConfigError,
    IllPosedError,
    NumericalError,
    ParameterError,
    SoftBudgetError,
)
from .mechanism import VirtualWeightCurve, knife_edge, leader_cost, solve_cap, transfer_schedule, virtual_weight
from .reporting import format_float, write_csv, write_csvs, write_json
from .simulation import capmin_oracle, mc_run, welfare_bruteforce
from .statics import FLAG_OK, StaticsReport, fd_certify, m_sensitivity

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

STATICS_REL_TOL = 1e-4
CHAIN_GAP_TOL = 1e-3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the validation code on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _seed_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not (0 <= value < 2**64):
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _grid_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid size must be an integer, got {text!r}")
    if not 17 <= value <= MAX_GRID_SIZE:
        raise argparse.ArgumentTypeError(f"grid.size: must lie in [17, {MAX_GRID_SIZE}]")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="softbudget", description="Optimal rescue-cap mechanism toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text in [
        ("solve", "solve the cap and transfer schedules"),
        ("knife-edge", "test whether shutting rescue down is optimal"),
        ("discretion", "solve the discretionary fixed point"),
        ("statics", "certify comparative statics against finite differences"),
        ("simulate", "Monte Carlo verification of the cap schedule"),
        ("oracle", "run the self-checking calculus and enumeration oracles"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON run configuration")
        cmd.add_argument("--out", default=None, help="output directory (overrides config)")
        cmd.add_argument("--seed", default=None, type=_seed_type, help="RNG seed (overrides config)")
        cmd.add_argument("--grid", default=None, type=_grid_type, help="type-grid size (overrides config)")
        cmd.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    return parser


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, simulation=dataclasses.replace(cfg.simulation, seed=args.seed))
    if args.grid is not None:
        cfg = dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, size=args.grid))
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output=dataclasses.replace(cfg.output, directory=args.out))
    return cfg


def _commitment(cfg: RunConfig) -> VirtualWeightCurve:
    """The commitment curve (lambda_T = omega_T) on the config's grid."""
    return virtual_weight(cfg.dist, cfg.prim, cfg.prim.omega_T, cfg.grid.size, cfg.grid.tail_mass)


def _resolve_curve(cfg: RunConfig) -> tuple[VirtualWeightCurve, Optional[DiscretionSolution]]:
    """The curve at the effective grant weight, and the fixed point that found it.

    Under discretion that is the converged fixed point's last curve; without
    it, the commitment curve and no solution.
    """
    if not cfg.discretion.enabled:
        return _commitment(cfg), None
    sol = fixed_point(_commitment(cfg), cfg.cost, tol=cfg.discretion.tol, max_iter=cfg.discretion.max_iter)
    if not sol.converged:
        raise NumericalError(
            f"discretionary fixed point did not converge in {cfg.discretion.max_iter} iterations"
        )
    return sol.curve, sol


def _maybe(value):
    if value is None:
        return None
    v = float(value)
    return v if math.isfinite(v) else None


def _discretion_fragment(sol: Optional[DiscretionSolution]):
    if sol is None:
        return None
    return {
        "lambda_T": sol.lambda_T,
        "p_int": sol.p_int,
        "iterations": sol.iterations,
        "converged": sol.converged,
    }


def _emit(out_dir: str, name: str, summary: dict, quiet: bool, started: float) -> None:
    write_json(os.path.join(out_dir, "summary.json"), summary)
    if quiet:
        return
    keys = [k for k in ("regime", "lambda_T", "theta_min", "theta_dagger", "p_int", "leader_cost",
                        "knife_edge_margin", "no_rescue", "passed") if k in summary]
    parts = []
    for key in keys:
        value = summary[key]
        if isinstance(value, bool):
            parts.append(f"{key}={str(value).lower()}")
        elif isinstance(value, float):
            parts.append(f"{key}={format_float(value)}")
        elif value is None:
            parts.append(f"{key}=none")
        else:
            parts.append(f"{key}={value}")
    duration = time.perf_counter() - started
    print(f"{name}: " + " ".join(parts))
    print(f"wrote {', '.join(sorted(summary['files'].values()))} to {out_dir} in {duration:.3f} s")


def _cmd_solve(cfg: RunConfig, quiet: bool, started: float) -> int:
    curve, sol = _resolve_curve(cfg)
    # the fixed point's last evaluation solved the schedule on its curve
    sched = solve_cap(curve, cfg.cost, cfg.prim.b_bar) if sol is None else sol.schedule
    transfers = transfer_schedule(sched, cfg.prim)
    cost_total = leader_cost(curve, sched, transfers, cfg.cost)
    knife = knife_edge(curve, cfg.cost)
    p_int = interior_probability(sched, cfg.dist)

    out_dir = cfg.output.directory
    files = {"summary": "summary.json"}
    if "csv" in cfg.output.formats:
        # one call, so the columns both files hold (transfers.theta is
        # sched.theta) are rendered once
        write_csvs([
            (os.path.join(out_dir, "cap_schedule.csv"),
             ["theta", "b_star", "ironed", "t_star", "ll_binding"],
             [sched.theta, sched.b_star, sched.ironed, transfers.t_star, transfers.ll_binding]),
            (os.path.join(out_dir, "transfers.csv"),
             ["theta", "t_pre", "t_star", "ll_binding", "unpinned"],
             [transfers.theta, transfers.t_pre, transfers.t_star, transfers.ll_binding,
              np.full(transfers.theta.shape, transfers.unpinned)]),
        ])
        files["cap_schedule"] = "cap_schedule.csv"
        files["transfers"] = "transfers.csv"
    summary = {
        "command": "solve",
        "regime": sched.regime,
        "lambda_T": curve.lambda_T,
        "theta_min": _maybe(sched.theta_min),
        "theta_dagger": _maybe(sched.theta_dagger),
        "p_int": p_int,
        "leader_cost": cost_total,
        "knife_edge_margin": knife.margin,
        "no_rescue": knife.no_rescue,
        "discretion": _discretion_fragment(sol),
        "grid_size": cfg.grid.size,
        "files": files,
    }
    _emit(out_dir, "solve", summary, quiet, started)
    return EXIT_OK


def _cmd_knife_edge(cfg: RunConfig, quiet: bool, started: float) -> int:
    curve, sol = _resolve_curve(cfg)
    report = knife_edge(curve, cfg.cost)
    summary = {
        "command": "knife-edge",
        "no_rescue": report.no_rescue,
        "knife_edge_margin": report.margin,
        "sup_virtual_weight": report.sup_virtual_weight,
        "marginal_cost_at_zero": report.marginal_cost_at_zero,
        "truncated_support": report.truncated_support,
        "lambda_T": report.lambda_T,
        "discretion": _discretion_fragment(sol),
        "files": {"summary": "summary.json"},
    }
    _emit(cfg.output.directory, "knife-edge", summary, quiet, started)
    return EXIT_OK


def _cmd_discretion(cfg: RunConfig, quiet: bool, started: float) -> int:
    if not cfg.discretion.enabled:
        raise ConfigError(["discretion.enabled: the discretion command needs discretion enabled"])
    sol = fixed_point(_commitment(cfg), cfg.cost, tol=cfg.discretion.tol, max_iter=cfg.discretion.max_iter)
    fragment = _discretion_fragment(sol)
    report = {**fragment, "trace": [{"lambda": lam, "p_int": p} for lam, p in sol.trace]}
    files = {"summary": "summary.json"}
    if "json" in cfg.output.formats:
        write_json(os.path.join(cfg.output.directory, "discretion.json"), report)
        files["discretion"] = "discretion.json"
    summary = {"command": "discretion", **fragment, "files": files}
    _emit(cfg.output.directory, "discretion", summary, quiet, started)
    if not sol.converged:
        print("discretion: fixed point did not converge", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _statics_failures(report: StaticsReport, m_report: Optional[StaticsReport]) -> list[str]:
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


def _cmd_statics(cfg: RunConfig, quiet: bool, started: float) -> int:
    # both certifications start from the commitment curve
    commitment = _commitment(cfg)
    report = fd_certify(commitment, cfg.cost)
    rows = list(report.rows)
    chain_gap = None
    m_report = None
    if cfg.discretion.enabled and not math.isnan(report.theta_min):
        m_report = m_sensitivity(commitment, cfg.cost)
        rows.extend(m_report.rows)
        chain_gap = m_report.chain_gap

    files = {"summary": "summary.json"}
    if "csv" in cfg.output.formats:
        write_csv(
            os.path.join(cfg.output.directory, "statics.csv"),
            ["partial", "analytic", "finite_difference", "rel_error", "sign_expected", "sign_ok", "flag"],
            [
                [r.partial for r in rows],
                [r.analytic for r in rows],
                [r.finite_difference for r in rows],
                [r.rel_error for r in rows],
                [r.sign_expected for r in rows],
                [r.sign_ok for r in rows],
                [r.flag for r in rows],
            ],
        )
        files["statics"] = "statics.csv"
    failures = _statics_failures(report, m_report)
    summary = {
        "command": "statics",
        "lambda_T": report.lambda_T,
        "theta_min": report.theta_min,
        "b_max": report.b_max,
        "theta_ref": _maybe(report.theta_ref),
        "max_rel_error": report.max_rel_error,
        "chain_gap": chain_gap,
        "passed": not failures,
        "files": files,
    }
    _emit(cfg.output.directory, "statics", summary, quiet, started)
    if failures:
        print(f"statics: finite-difference certification failed on the {commitment.theta.size}-node grid: "
              + "; ".join(failures), file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_simulate(cfg: RunConfig, quiet: bool, started: float) -> int:
    curve, sol = _resolve_curve(cfg)
    mc = mc_run(curve, cfg.cost, n=cfg.simulation.n, seed=cfg.simulation.seed, bins=cfg.simulation.bins)
    centers = 0.5 * (mc.bin_edges[:-1] + mc.bin_edges[1:])
    closed_form = mc.schedule.cap_at(centers)

    report = {
        "n": mc.n,
        "seed": mc.seed,
        "bins": mc.bins,
        "lambda_T": mc.lambda_T,
        "regime": mc.regime,
        "theta_min_hat": _maybe(mc.theta_min_hat),
        "theta_dagger_hat": _maybe(mc.theta_dagger_hat),
        "p_int_hat": mc.p_int_hat,
        "theta_min": _maybe(mc.theta_min),
        "theta_dagger": _maybe(mc.theta_dagger),
        "p_int": mc.p_int,
        "dev_theta_min": None if (mc.theta_min is None or mc.theta_min_hat is None)
        else abs(mc.theta_min_hat - mc.theta_min),
        "dev_theta_dagger": None if (mc.theta_dagger is None or mc.theta_dagger_hat is None)
        else abs(mc.theta_dagger_hat - mc.theta_dagger),
        "dev_p_int": abs(mc.p_int_hat - mc.p_int),
    }
    files = {"summary": "summary.json"}
    if "json" in cfg.output.formats:
        write_json(os.path.join(cfg.output.directory, "mc_report.json"), report)
        files["mc_report"] = "mc_report.json"
    if "csv" in cfg.output.formats:
        write_csv(
            os.path.join(cfg.output.directory, "binned_means.csv"),
            ["bin_center", "mean_b", "count", "stderr", "b_closed_form"],
            [centers, mc.bin_means, mc.bin_counts, mc.bin_stderr, closed_form],
        )
        files["binned_means"] = "binned_means.csv"
    summary = {
        "command": "simulate",
        "regime": mc.regime,
        "lambda_T": mc.lambda_T,
        "theta_min": _maybe(mc.theta_min_hat),
        "theta_dagger": _maybe(mc.theta_dagger_hat),
        "p_int": mc.p_int_hat,
        "n": mc.n,
        "seed": mc.seed,
        "discretion": _discretion_fragment(sol),
        "files": files,
    }
    _emit(cfg.output.directory, "simulate", summary, quiet, started)
    return EXIT_OK


def _cmd_oracle(cfg: RunConfig, quiet: bool, started: float) -> int:
    uniform = capmin_oracle(Uniform(0.0, 1.0), np.arange(0.1, 0.95, 0.1))
    discrete = capmin_oracle(
        ((0.2, 0.5, 0.9), (0.3, 0.4, 0.3)),
        [0.1, 0.2, 0.35, 0.5, 0.7, 0.9],
    )
    capmin_report = {
        "uniform": {
            "passed": uniform.passed,
            "max_deviation_first": uniform.max_dev_first,
            "max_deviation_second": uniform.max_dev_second,
            "tolerance": uniform.tolerance,
        },
        "discrete": {
            "passed": discrete.passed,
            "max_deviation_first": discrete.max_dev_first,
            "max_deviation_second": discrete.max_dev_second,
            "tolerance": discrete.tolerance,
            "one_sided_points": [float(b) for b, f in zip(discrete.b_values, discrete.one_sided) if f],
        },
        "passed": uniform.passed and discrete.passed,
    }

    prim = cfg.prim
    if not prim.omega_b_constant:
        raise ParameterError("the brute-force oracle needs a constant omega_b in the config")
    brute = welfare_bruteforce(
        [0.2, 0.4, 0.6, 0.8, 1.0], [0.2, 0.2, 0.2, 0.2, 0.2], prim, cfg.cost,
    )
    brute_report = {
        "passed": brute.passed,
        "kkt_cost": brute.kkt_cost,
        "best_cost": brute.best_cost,
        "gap_bound": brute.gap_bound,
        "max_deviation": brute.best_cost - brute.kkt_cost,
        "n_schedules": brute.n_schedules,
        "ic_ok": brute.ic_ok,
        "ir_ok": brute.ir_ok,
        "kkt_caps": brute.kkt_caps,
        "best_caps": brute.best_caps,
    }
    files = {"summary": "summary.json"}
    if "json" in cfg.output.formats:
        write_json(os.path.join(cfg.output.directory, "oracle_capmin.json"), capmin_report)
        write_json(os.path.join(cfg.output.directory, "oracle_bruteforce.json"), brute_report)
        files["oracle_capmin"] = "oracle_capmin.json"
        files["oracle_bruteforce"] = "oracle_bruteforce.json"
    passed = capmin_report["passed"] and brute.passed
    summary = {
        "command": "oracle",
        "passed": passed,
        "capmin_passed": capmin_report["passed"],
        "bruteforce_passed": brute.passed,
        "files": files,
    }
    _emit(cfg.output.directory, "oracle", summary, quiet, started)
    if not passed:
        print("oracle: at least one oracle check failed", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "knife-edge": _cmd_knife_edge,
    "discretion": _cmd_discretion,
    "statics": _cmd_statics,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        os.makedirs(cfg.output.directory, exist_ok=True)
        return _COMMANDS[args.command](cfg, args.quiet, started)
    except ConfigError as exc:
        print(f"softbudget {args.command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, IllPosedError) as exc:
        print(f"softbudget {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SoftBudgetError as exc:
        print(f"softbudget {args.command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"softbudget {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
