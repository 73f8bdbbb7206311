"""Command-line interface: config-driven runs with CSV/JSON artifacts.

Commands
--------
solve       full pipeline: virtual weights, cap schedule, transfers,
            authority cost (preceded by the discretionary fixed point when
            the config enables discretion); writes summary.json,
            cap_schedule.csv, transfers.csv.
knife-edge  no-rescue test; writes summary.json.
discretion  fixed point for the effective grant weight; writes
            discretion.json (with the evaluation trace, the final bracket
            and any jump of P_int that leaves no fixed point) and
            summary.json.
statics     analytic partials certified against finite differences of the
            full solver; writes statics.csv and summary.json.
simulate    Monte Carlo verification of the cap schedule; writes
            mc_report.json, binned_means.csv, summary.json.
oracle      self-checking fixtures for the cap-minimum calculus and the
            brute-force second-best search; writes oracle_capmin.json,
            oracle_bruteforce.json, summary.json.

Exit codes: 0 success, 1 validation error (bad flags or config), 2
numerical failure (no discretionary fixed point, the message naming the
jump of P_int, or a failed embedded check), 3 I/O error.  All floats in
artifacts carry 10 significant digits; writes are atomic; identical
configs and seeds give byte-identical artifacts.  The wall-clock duration
is printed to stdout only, so artifacts stay reproducible byte for byte.

``solve`` and ``simulate`` solve one cap schedule (the fixed point's under
discretion, the commitment one otherwise) and read everything after it,
transfers, leader cost, P_int and the Monte Carlo check, off that schedule.
``knife-edge`` reads only a curve, so without discretion it never irons.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Optional

import numpy as np

# lazily registered modules, so each command runs only the ones it calls
from . import discretion, mechanism, reporting, simulation, statics
from .config import OutputSettings, RunConfig, load_config
from .distributions import Uniform
from .errors import ConfigError, IllPosedError, NumericalError, SoftBudgetError

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the validation code on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _commitment(cfg: RunConfig) -> mechanism.VirtualWeightCurve:
    """The commitment curve (lambda_T = omega_T) on the config's grid."""
    return mechanism.virtual_weight(cfg.dist, cfg.prim, cfg.prim.omega_T, cfg.grid.size, cfg.grid.tail_mass)


def _converged_fixed_point(cfg: RunConfig) -> Optional[discretion.DiscretionSolution]:
    """The converged fixed point when the config enables discretion, else None."""
    if not cfg.discretion:
        return None
    sol = discretion.fixed_point(_commitment(cfg), cfg.cost)
    if not sol.converged:
        raise NumericalError(discretion.fixed_point_failure(sol))
    return sol


def _resolve_schedule(cfg: RunConfig) -> tuple[mechanism.CapSchedule, Optional[discretion.DiscretionSolution]]:
    """The cap schedule at the effective grant weight, solved once, and the fixed point that found it.

    Under discretion that is the converged fixed point's schedule; without
    it, the commitment schedule and no solution.
    """
    sol = _converged_fixed_point(cfg)
    return (mechanism.solve_cap(_commitment(cfg), cfg.cost) if sol is None else sol.schedule), sol


def _maybe(value):
    if value is None:
        return None
    v = float(value)
    return v if math.isfinite(v) else None


def _discretion_fragment(sol: Optional[discretion.DiscretionSolution]):
    if sol is None:
        return None
    return {
        "lambda_T": sol.lambda_T,
        "p_int": sol.p_int,
        "iterations": sol.iterations,
        "converged": sol.converged,
    }


class _Artifacts:
    """The files one command writes into the output directory.

    Each artifact is recorded in ``files`` under its key (``key.csv`` or
    ``key.json``), and ``summary`` writes ``summary.json`` with that map last.
    """

    def __init__(self, output: OutputSettings):
        self.directory = output.directory
        self.files = {"summary": "summary.json"}

    def _path(self, key: str, fmt: str) -> str:
        """Where ``key`` is written as ``fmt``, now recorded."""
        self.files[key] = f"{key}.{fmt}"
        return os.path.join(self.directory, self.files[key])

    def json(self, key: str, obj) -> None:
        reporting.write_json(self._path(key, "json"), obj)

    def csv(self, key: str, header, columns) -> None:
        reporting.write_csv(self._path(key, "csv"), header, columns)

    def csvs(self, *tables) -> None:
        """Write ``(key, header, columns)`` tables in one call, so a first column they share renders once."""
        reporting.write_csvs([(self._path(key, "csv"), header, columns) for key, header, columns in tables])

    def summary(self, command: str, fields: dict) -> dict:
        summary = {"command": command, **fields, "files": self.files}
        reporting.write_json(os.path.join(self.directory, "summary.json"), summary)
        return summary


def _shown(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return reporting.format_float(value)
    return "none" if value is None else str(value)


def _print_summary(command: str, summary: dict, out_dir: str, started: float) -> None:
    keys = [k for k in ("regime", "lambda_T", "theta_min", "theta_dagger", "p_int", "leader_cost",
                        "knife_edge_margin", "no_rescue", "passed") if k in summary]
    duration = time.perf_counter() - started
    print(f"{command}: " + " ".join(f"{key}={_shown(summary[key])}" for key in keys))
    print(f"wrote {', '.join(sorted(summary['files'].values()))} to {out_dir} in {duration:.3f} s")


# Each command writes its artifacts and returns its summary fields, with the
# reason it failed (printed after the summary, exit 2) or None.


def _cmd_solve(cfg: RunConfig, out: _Artifacts) -> tuple[dict, Optional[str]]:
    sched, sol = _resolve_schedule(cfg)
    curve = sched.curve
    transfers = mechanism.transfer_schedule(sched)
    cost_total = mechanism.leader_cost(transfers)
    knife = mechanism.knife_edge(curve, cfg.cost)

    # one call, so the type grid both files start with is rendered once
    out.csvs(
        ("cap_schedule", ["theta", "b_star", "ironed", "t_star", "ll_binding"],
         [curve.theta, sched.b_star, curve.ironed, transfers.t_star, transfers.ll_binding]),
        ("transfers", ["theta", "t_pre", "t_star", "ll_binding", "unpinned"],
         [curve.theta, transfers.t_pre, transfers.t_star, transfers.ll_binding, transfers.unpinned]),
    )
    return {
        "regime": sched.regime,
        "lambda_T": curve.lambda_T,
        "theta_min": _maybe(sched.theta_min),
        "theta_dagger": _maybe(sched.theta_dagger),
        "p_int": discretion.interior_probability(sched),
        "leader_cost": cost_total,
        "knife_edge_margin": knife.margin,
        "no_rescue": knife.no_rescue,
        "discretion": _discretion_fragment(sol),
        "grid_size": cfg.grid.size,
    }, None


def _cmd_knife_edge(cfg: RunConfig, out: _Artifacts) -> tuple[dict, Optional[str]]:
    sol = _converged_fixed_point(cfg)
    # the test reads only psi, so without discretion nothing is ironed
    report = mechanism.knife_edge(_commitment(cfg) if sol is None else sol.schedule.curve, cfg.cost)
    return {
        "no_rescue": report.no_rescue,
        "knife_edge_margin": report.margin,
        "sup_virtual_weight": report.sup_virtual_weight,
        "marginal_cost_at_zero": report.marginal_cost_at_zero,
        "truncated_support": report.truncated_support,
        "lambda_T": report.lambda_T,
        "discretion": _discretion_fragment(sol),
    }, None


def _cmd_discretion(cfg: RunConfig, out: _Artifacts) -> tuple[dict, Optional[str]]:
    if not cfg.discretion:
        raise ConfigError(["discretion.enabled: the discretion command needs discretion enabled"])
    sol = discretion.fixed_point(_commitment(cfg), cfg.cost)
    fragment = _discretion_fragment(sol)
    out.json("discretion", {
        **fragment,
        "bracket": list(sol.bracket),
        "jump": None if sol.jump is None else sol.jump._asdict(),
        "trace": [{"lambda": lam, "p_int": p} for lam, p in sol.trace],
    })
    return fragment, None if sol.converged else discretion.fixed_point_failure(sol)


def _cmd_statics(cfg: RunConfig, out: _Artifacts) -> tuple[dict, Optional[str]]:
    # both certifications start from the commitment curve
    commitment = _commitment(cfg)
    report = statics.fd_certify(commitment, cfg.cost)
    rows = list(report.rows)
    chain_gap = None
    m_report = None
    if cfg.discretion and not math.isnan(report.theta_min):
        m_report = statics.m_sensitivity(commitment, cfg.cost)
        rows.extend(m_report.rows)
        chain_gap = m_report.chain_gap

    # one column per StaticsRow field, named as the field
    header = ["partial", "analytic", "finite_difference", "rel_error", "sign_expected", "sign_ok", "flag"]
    out.csv("statics", header, [[getattr(r, name) for r in rows] for name in header])
    failures = statics.statics_failures(report, m_report)
    return {
        "lambda_T": report.lambda_T,
        "theta_min": report.theta_min,
        "b_max": report.b_max,
        "theta_ref": _maybe(report.theta_ref),
        "max_rel_error": report.max_rel_error,
        "chain_gap": chain_gap,
        "passed": not failures,
    }, (f"finite-difference certification failed on the {commitment.theta.size}-node grid: "
        + "; ".join(failures)) if failures else None


def _cmd_simulate(cfg: RunConfig, out: _Artifacts) -> tuple[dict, Optional[str]]:
    sched, sol = _resolve_schedule(cfg)
    mc = simulation.mc_run(sched, n=cfg.simulation.n, seed=cfg.simulation.seed, bins=cfg.simulation.bins)
    centers = 0.5 * (mc.bin_edges[:-1] + mc.bin_edges[1:])
    p_int = discretion.interior_probability(sched)

    out.json("mc_report", {
        "n": mc.n,
        "seed": mc.seed,
        "bins": mc.bins,
        "lambda_T": sched.curve.lambda_T,
        "regime": sched.regime,
        "theta_min_hat": _maybe(mc.theta_min_hat),
        "theta_dagger_hat": _maybe(mc.theta_dagger_hat),
        "p_int_hat": mc.p_int_hat,
        "theta_min": _maybe(sched.theta_min),
        "theta_dagger": _maybe(sched.theta_dagger),
        "p_int": p_int,
        "dev_theta_min": None if (sched.theta_min is None or mc.theta_min_hat is None)
        else abs(mc.theta_min_hat - sched.theta_min),
        "dev_theta_dagger": None if (sched.theta_dagger is None or mc.theta_dagger_hat is None)
        else abs(mc.theta_dagger_hat - sched.theta_dagger),
        "dev_p_int": abs(mc.p_int_hat - p_int),
    })
    out.csv(
        "binned_means",
        ["bin_center", "mean_b", "count", "stderr", "b_closed_form"],
        [centers, mc.bin_means, mc.bin_counts, mc.bin_stderr, sched.cap_at(centers)],
    )
    return {
        "regime": sched.regime,
        "lambda_T": sched.curve.lambda_T,
        "theta_min": _maybe(mc.theta_min_hat),
        "theta_dagger": _maybe(mc.theta_dagger_hat),
        "p_int": mc.p_int_hat,
        "n": mc.n,
        "seed": mc.seed,
        "discretion": _discretion_fragment(sol),
    }, None


def _cmd_oracle(cfg: RunConfig, out: _Artifacts) -> tuple[dict, Optional[str]]:
    uniform = simulation.capmin_oracle(Uniform(0.0, 1.0), np.arange(0.1, 0.95, 0.1))
    discrete = simulation.capmin_oracle(
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

    brute = simulation.welfare_bruteforce(
        [0.2, 0.4, 0.6, 0.8, 1.0], [0.2, 0.2, 0.2, 0.2, 0.2], cfg.prim, cfg.cost,
    )
    out.json("oracle_capmin", capmin_report)
    out.json("oracle_bruteforce", {
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
    })
    passed = capmin_report["passed"] and brute.passed
    return {
        "passed": passed,
        "capmin_passed": capmin_report["passed"],
        "bruteforce_passed": brute.passed,
    }, None if passed else "at least one oracle check failed"


# each command's handler and the line `--help` lists it with
_COMMANDS = {
    "solve": (_cmd_solve, "solve the cap and transfer schedules"),
    "knife-edge": (_cmd_knife_edge, "test whether shutting rescue down is optimal"),
    "discretion": (_cmd_discretion, "solve the discretionary fixed point"),
    "statics": (_cmd_statics, "certify comparative statics against finite differences"),
    "simulate": (_cmd_simulate, "Monte Carlo verification of the cap schedule"),
    "oracle": (_cmd_oracle, "run the self-checking calculus and enumeration oracles"),
}


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the command and the five options every command shares, in any order."""
    commands = "".join(f"\n  {name:<12}{help_text}" for name, (_, help_text) in _COMMANDS.items())
    parser = _Parser(prog="softbudget", description="Optimal rescue-cap mechanism toolkit",
                     epilog=f"commands:{commands}", formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="one of the commands below")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    # each override is written into the config and validated as the field it sets
    parser.add_argument("--out", help="output directory (sets output.directory)")
    parser.add_argument("--seed", type=int, help="RNG seed (sets simulation.seed)")
    parser.add_argument("--grid", type=int, help="type-grid size (sets grid.size)")
    parser.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = load_config(args.config, {
            ("simulation", "seed"): args.seed,
            ("grid", "size"): args.grid,
            ("output", "directory"): args.out,
        })
        os.makedirs(cfg.output.directory, exist_ok=True)
        out = _Artifacts(cfg.output)
        fields, failure = _COMMANDS[args.command][0](cfg, out)
        summary = out.summary(args.command, fields)
        if not args.quiet:
            _print_summary(args.command, summary, cfg.output.directory, started)
        if failure is not None:
            print(f"{args.command}: {failure}", file=sys.stderr)
            return EXIT_NUMERICAL
        return EXIT_OK
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
