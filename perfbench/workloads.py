"""Benchmark workloads: configs generated from a seed, op lists, output checks.

Each workload is a list of CLI ops run back to back as one pass.  Every op
writes into its own output directory, and a check reads the artifacts back
after the op's timing has stopped.  A check returns ``None`` when the
output is correct and a one-line reason otherwise; ``state`` carries
values from earlier ops of the same pass (the solved cutoffs) to later
ones.

Why each workload exists:

* ``commit-fine`` -- the commitment benchmark at 65,537 grid nodes and a
  2,000,000-draw Monte Carlo.  Per-node work dominates: CSV formatting,
  PAV on a virtual weight that is already monotone (nothing pools), and
  sampling.  It exercises any shortcut for monotone input.
* ``irregular`` -- a seeded bimodal tabulated density whose hazard falls
  between its modes, so about 37% of the 65,537 nodes pool and
  ``simulate`` takes the interpolated path.  It bypasses a monotone
  shortcut, so such a change should leave it unchanged.
* ``discretion-verify`` -- the discretion benchmark at 4,097 nodes: about
  120 small schedule solves per pass in fixed points, statics and
  oracles.  Fixed-point evaluations and per-call overhead dominate; CSV
  output is small.
* ``steep-discretion`` -- not listed in BENCHMARK.json.  The steep
  discretion case (Weibull(1.01, 1), omega_b 0.9, m 0.9, alpha 0.5,
  kappa 0.2, b_bar 5) where damped Picard iteration 2-cycles and the CLI
  exits 2 although the fixed point exists (lambda_T ~ 0.603651).  Every op
  of it fails today, and no op of a listed workload may fail, so only
  ``run.py --all`` (or ``--workload steep-discretion``) runs it until the
  fixed point is repaired.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

COMMIT_GRID = 65_537
DISCRETION_GRID = 4_097
CUTOFF_TOL = 1e-6     # commitment cutoffs, acceptance criterion 1
DISC_LAMBDA_TOL = 2e-3  # discretion row of criterion 1
DISC_CUTOFF_TOL = 2e-3
DISC_PINT_TOL = 5e-3
MC_TOL = 5e-3         # Monte Carlo cutoffs, acceptance criterion 2
STEEP_LAMBDA = 0.603651  # bisection root of the steep case
STEEP_LAMBDA_TOL = 1e-4

_BENCH_WEIGHTS = {"omega_T": 1.0, "omega_b": 0.8, "gamma": 1.0, "b_bar": 0.8}
_BENCH_COST = {"kind": "quadratic", "alpha": 0.2, "kappa": 1.0}
_BENCH_DIST = {"kind": "weibull", "shape": 2.0, "scale": 1.0}


@dataclass(frozen=True)
class Op:
    command: str
    check: Callable[[str, dict], Optional[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    listed: bool  # named in BENCHMARK.json
    config: Callable[[int], dict]
    ops: tuple


def _read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _near(value, target: float, tol: float) -> bool:
    return value is not None and math.isfinite(value) and abs(value - target) <= tol


# -- checks ------------------------------------------------------------------


def _check_commit_solve(out_dir: str, state: dict) -> Optional[str]:
    s = _read_json(out_dir, "summary.json")
    state["solve"] = s
    if not (_near(s["theta_min"], 0.125, CUTOFF_TOL) and _near(s["theta_dagger"], 0.625, CUTOFF_TOL)):
        return f"commitment cutoffs ({s['theta_min']}, {s['theta_dagger']}) != (0.125, 0.625)"
    return None


def _check_tabulated_solve(out_dir: str, state: dict) -> Optional[str]:
    s = _read_json(out_dir, "summary.json")
    state["solve"] = s
    if s["regime"] == "no-rescue":
        return "tabulated case solved to no rescue"
    with open(os.path.join(out_dir, "cap_schedule.csv"), "r", encoding="utf-8") as handle:
        rows = [line.split(",") for line in handle.read().splitlines()[1:]]
    caps = np.array([float(r[1]) for r in rows])
    b_bar = _BENCH_WEIGHTS["b_bar"]
    if not (np.all(caps >= 0.0) and np.all(caps <= b_bar) and np.all(np.diff(caps) >= 0.0)):
        return "tabulated caps are not nondecreasing within [0, b_bar]"
    if not any(r[2] == "true" for r in rows):
        return "tabulated case pooled no nodes"
    return None


def _check_discretion(out_dir: str, state: dict) -> Optional[str]:
    d = _read_json(out_dir, "discretion.json")
    if not (d["converged"] and _near(d["lambda_T"], 0.897, DISC_LAMBDA_TOL)
            and _near(d["p_int"], 0.258, DISC_PINT_TOL)):
        return f"discretion row: lambda_T {d['lambda_T']}, p_int {d['p_int']}, converged {d['converged']}"
    return None


def _check_discretion_solve(out_dir: str, state: dict) -> Optional[str]:
    s = _read_json(out_dir, "summary.json")
    state["solve"] = s
    if not (_near(s["lambda_T"], 0.897, DISC_LAMBDA_TOL)
            and _near(s["theta_min"], 0.112, DISC_CUTOFF_TOL)
            and _near(s["theta_dagger"], 0.562, DISC_CUTOFF_TOL)):
        return f"discretion cutoffs ({s['theta_min']}, {s['theta_dagger']}) at lambda_T {s['lambda_T']}"
    return None


def _check_knife_edge(out_dir: str, state: dict) -> Optional[str]:
    s = _read_json(out_dir, "summary.json")
    expected = s["marginal_cost_at_zero"] - s["sup_virtual_weight"]
    if s["no_rescue"] or not math.isclose(s["knife_edge_margin"], expected, rel_tol=1e-8):
        return f"knife edge: no_rescue {s['no_rescue']}, margin {s['knife_edge_margin']}"
    if not math.isclose(s["lambda_T"], state["solve"]["lambda_T"], rel_tol=1e-8):
        return f"knife edge at lambda_T {s['lambda_T']}, solve at {state['solve']['lambda_T']}"
    return None


def _check_simulate(out_dir: str, state: dict) -> Optional[str]:
    s = _read_json(out_dir, "summary.json")
    solved = state["solve"]
    for key in ("theta_min", "theta_dagger"):
        if solved[key] is None and s[key] is None:
            continue
        if solved[key] is None or not _near(s[key], solved[key], MC_TOL):
            return f"simulated {key} {s[key]} vs solved {solved[key]}"
    return None


def _check_passed(out_dir: str, state: dict) -> Optional[str]:
    s = _read_json(out_dir, "summary.json")
    return None if s["passed"] is True else f"{s['command']} reported passed={s['passed']}"


def _check_steep(out_dir: str, state: dict) -> Optional[str]:
    d = _read_json(out_dir, "discretion.json")
    if not (d["converged"] and _near(d["lambda_T"], STEEP_LAMBDA, STEEP_LAMBDA_TOL)):
        return f"steep fixed point: lambda_T {d['lambda_T']}, converged {d['converged']}"
    return None


# -- configs -----------------------------------------------------------------


def bimodal_density(seed: int) -> tuple[list, list]:
    """Two-bump density on [0, 3]; its hazard falls between the bumps.

    The seed jitters the bump centres, widths and weights a little, so the
    pooled share stays near 40% of the grid for every seed.
    """
    rng = np.random.Generator(np.random.Philox(seed % 2**64))
    theta = np.linspace(0.0, 3.0, 401)
    m1, s1 = 0.6 + rng.uniform(-0.02, 0.02), 0.15 * rng.uniform(0.97, 1.03)
    m2, s2 = 1.6 + rng.uniform(-0.02, 0.02), 0.2 * rng.uniform(0.97, 1.03)
    w = 0.4 + rng.uniform(-0.02, 0.02)
    dens = w * np.exp(-0.5 * ((theta - m1) / s1) ** 2) / s1 \
        + (1.0 - w) * np.exp(-0.5 * ((theta - m2) / s2) ** 2) / s2
    return theta.tolist(), dens.tolist()


def _commit_fine(seed: int) -> dict:
    return {
        "distribution": _BENCH_DIST, "cost": _BENCH_COST, "weights": _BENCH_WEIGHTS,
        "simulation": {"n": 2_000_000, "seed": seed % 2**64, "bins": 30},
        "grid": {"size": COMMIT_GRID},
    }


def _irregular(seed: int) -> dict:
    theta, dens = bimodal_density(seed)
    return {
        "distribution": {"kind": "tabulated", "theta": theta, "density": dens},
        "cost": _BENCH_COST, "weights": _BENCH_WEIGHTS,
        "simulation": {"n": 200_000, "seed": seed % 2**64, "bins": 30},
        "grid": {"size": COMMIT_GRID},
    }


def _discretion_verify(seed: int) -> dict:
    return {
        "distribution": _BENCH_DIST, "cost": _BENCH_COST, "weights": _BENCH_WEIGHTS,
        "discretion": {"enabled": True, "m": 0.5, "chi": 1.0},
        "simulation": {"n": 200_000, "seed": seed % 2**64, "bins": 30},
        "grid": {"size": DISCRETION_GRID},
    }


def _steep(seed: int) -> dict:
    return {
        "distribution": {"kind": "weibull", "shape": 1.01, "scale": 1.0},
        "cost": {"kind": "quadratic", "alpha": 0.5, "kappa": 0.2},
        "weights": {"omega_T": 1.0, "omega_b": 0.9, "gamma": 1.0, "b_bar": 5.0},
        "discretion": {"enabled": True, "m": 0.9, "chi": 1.0},
        "simulation": {"seed": seed % 2**64},
        "grid": {"size": DISCRETION_GRID},
    }


WORKLOADS = {w.name: w for w in (
    Workload("commit-fine", True, _commit_fine, (
        Op("solve", _check_commit_solve),
        Op("knife-edge", _check_knife_edge),
        Op("simulate", _check_simulate),
    )),
    Workload("irregular", True, _irregular, (
        Op("solve", _check_tabulated_solve),
        Op("knife-edge", _check_knife_edge),
        Op("simulate", _check_simulate),
    )),
    Workload("discretion-verify", True, _discretion_verify, (
        Op("discretion", _check_discretion),
        Op("solve", _check_discretion_solve),
        Op("knife-edge", _check_knife_edge),
        Op("statics", _check_passed),
        Op("simulate", _check_simulate),
        Op("oracle", _check_passed),
    )),
    Workload("steep-discretion", False, _steep, (
        Op("discretion", _check_steep),
    )),
)}


def write_config(workload: Workload, seed: int, directory: str) -> str:
    """Write the workload's config for ``seed`` and return its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "config.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(workload.config(seed), handle)
    return path
