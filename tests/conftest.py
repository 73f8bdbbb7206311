import numpy as np
import pytest

from softbudget import PolicyPrimitives, QuadraticCost, Tabulated, Weibull

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


def irregular_tabulated():
    """Two-bump density on [0, 3] like the benchmark's irregular workload."""
    nodes = np.linspace(0.0, 3.0, 401)
    dens = 0.4 * np.exp(-0.5 * ((nodes - 0.6) / 0.15) ** 2) / 0.15 + 0.6 * np.exp(
        -0.5 * ((nodes - 1.6) / 0.2) ** 2
    ) / 0.2
    return Tabulated(nodes, dens)
