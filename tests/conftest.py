import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from softbudget import (
    PolicyPrimitives, QuadraticCost, Tabulated, TypeDistribution, Weibull, load_config, parse_config, virtual_weight,
)

ROOT = Path(__file__).resolve().parent.parent

# every property test draws the same examples on every run, and none is stored
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

# benchmark family used throughout: Weibull(2,1) types, quadratic cost
# C(x) = 0.2 x + 0.5 x^2, weights (omega_T, omega_b, gamma) = (1, 0.8, 1),
# statutory cap 0.8, discretion slope m = 0.5 with chi = 1
BENCH = {
    "theta_min": 0.125,
    "theta_dagger": 0.625,
    "p_int": 0.307862590843680,
    "leader_cost": 0.394064116280,
    "disc_lambda": 0.897098166021518,
    "disc_theta_min": 0.112137270752690,
    "disc_theta_dagger": 0.560686353763449,
    "disc_p_int": 0.257254584946204,
}


@pytest.fixture
def bench_dist():
    return Weibull(2.0, 1.0)


@pytest.fixture
def bench_cost():
    return QuadraticCost(0.2, 1.0)


@pytest.fixture
def bench_prim():
    return PolicyPrimitives(omega_T=1.0, omega_b=0.8, gamma=1.0, b_bar=0.8, m=0.5, chi=1.0)


@pytest.fixture
def benchmark_config(tmp_path):
    """Writable copy of the discretion benchmark config pointing at tmp_path."""
    import json

    doc = {
        "distribution": {"kind": "weibull", "shape": 2.0, "scale": 1.0},
        "cost": {"kind": "quadratic", "alpha": 0.2, "kappa": 1.0},
        "weights": {"omega_T": 1.0, "omega_b": 0.8, "gamma": 1.0, "b_bar": 0.8},
        "discretion": {"enabled": True, "m": 0.5, "chi": 1.0},
        "simulation": {"n": 200000, "seed": 20260814, "bins": 30},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv_columns(path):
    """Parse one of the emitted CSVs into a dict of string columns."""
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for line in lines[1:]:
        for h, cell in zip(header, line.split(",")):
            cols[h].append(cell)
    return cols


def as_floats(cells):
    return np.array([float(c) for c in cells])


def assert_scalar_path_matches(evaluate, points):
    """Each point as a Python float, an ``np.float64`` and a 0-d array gets what a 1-element array gets.

    That is a Python float with the bits of the array's element, or an
    exception of the same class with the same message.
    """
    for x in points:
        try:
            expected = evaluate(np.array([x]))[0].tobytes()
        except Exception as exc:
            expected = (type(exc), str(exc))
        for form in (float(x), np.float64(x), np.array(x)):
            try:
                value = evaluate(form)
            except Exception as exc:
                got = (type(exc), str(exc))
            else:
                assert type(value) is float, (x, type(form))
                got = np.float64(value).tobytes()
            assert got == expected, (x, type(form))


def irregular_tabulated():
    """Two-bump density on [0, 3] like the benchmark's irregular workload."""
    nodes = np.linspace(0.0, 3.0, 401)
    dens = 0.4 * np.exp(-0.5 * ((nodes - 0.6) / 0.15) ** 2) / 0.15 + 0.6 * np.exp(
        -0.5 * ((nodes - 1.6) / 0.2) ** 2
    ) / 0.2
    return Tabulated(nodes, dens)


def config_commitment(cfg):
    """The commitment curve (lambda_T = omega_T) of a loaded config, on its grid."""
    return virtual_weight(cfg.dist, cfg.prim, cfg.prim.omega_T, cfg.grid.size, cfg.grid.tail_mass)


def pooled_config():
    """``configs/pooled_benchmark.json``: a tabulated density whose virtual weight pools."""
    return load_config(str(ROOT / "configs" / "pooled_benchmark.json"))


def irregular_doc(seed, grid_size, discretion=False):
    """The benchmark's ``irregular`` workload config document (``perfbench/workloads.py``) at ``grid_size`` nodes.

    ``discretion`` enables the discretion block of the ``discretion-verify`` workload (m = 0.5).
    """
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    doc = workloads._irregular(seed)
    doc["grid"] = {"size": grid_size}
    if discretion:
        doc["discretion"] = {"enabled": True, "m": 0.5, "chi": 1.0}
    return doc


def irregular_config(seed, grid_size, discretion=False):
    """``irregular_doc`` parsed."""
    return parse_config(irregular_doc(seed, grid_size, discretion))


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
