"""The benchmark tracer's view of the package: what ``perfbench/spans.py`` patches and binds.

The tracer wraps the functions listed in ``TRACED`` by name and reads some
of their arguments by parameter name.  A rename in ``src/`` would leave a
layer with no spans, or a counter at zero, without failing a benchmark
run; these tests make it fail here instead.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("perfbench_spans", SPANS)


def _function(module_name, function):
    return getattr(importlib.import_module(f"softbudget.{module_name}"), function, None)


def test_every_traced_function_exists(spans):
    missing = [f"{m}.{f}" for m, f in spans.TRACED if not callable(_function(m, f))]
    assert missing == []


@pytest.mark.parametrize("module_name, function, parameters", [
    ("reporting", "write_csv", {"columns"}),
    ("reporting", "atomic_write_text", {"text"}),
    ("mechanism", "virtual_weight", {"dist", "prim", "lambda_T", "grid_size", "tail_mass"}),
])
def test_counted_parameters_exist(module_name, function, parameters):
    assert parameters <= set(inspect.signature(_function(module_name, function)).parameters)


def test_tracer_counts_csv_rows_and_bytes(spans, tmp_path):
    from softbudget import reporting

    tracer = spans.Tracer()
    tracer.install()
    try:
        path = tmp_path / "t.csv"
        reporting.write_csv(str(path), ["x", "flag"], [np.linspace(0.0, 1.0, 5), np.ones(5, dtype=bool)])
    finally:
        tracer.uninstall()
    assert tracer.counters["reporting.write_csv.rows"] == 5
    assert tracer.counters["reporting.bytes"] == path.stat().st_size
    assert {name for name, *_ in tracer.spans} == {"reporting.write_csv", "reporting.atomic_write_text"}


def test_tracer_counts_fixed_point_evaluations(spans, bench_dist, bench_prim, bench_cost):
    import softbudget

    curve = softbudget.virtual_weight(bench_dist, bench_prim, bench_prim.omega_T)
    tracer = spans.Tracer()
    tracer.install()
    try:
        sol = softbudget.fixed_point(curve, bench_cost)
    finally:
        tracer.uninstall()
    assert sol.converged
    assert tracer.counters["discretion.fixed_point.calls"] == 1
    assert tracer.counters["discretion.fixed_point.converged"] == 1
    assert tracer.counters["discretion.fixed_point.evals"] == len(sol.trace) > 1
    # evaluations are crossings on the commitment curve: at most one full
    # curve, ironing only the commitment curve and the one at lambda_T, and
    # one schedule solve, at lambda_T
    assert tracer.counters["mechanism.virtual_weight.calls"] <= 1
    assert tracer.counters["mechanism.iron_weights.nodes"] <= 2 * curve.theta.size
    assert [name for name, *_ in tracer.spans].count("mechanism.solve_cap") == 1


def test_tracer_sees_no_ironing_in_knife_edge(spans, bench_prim, bench_cost):
    import softbudget

    dfr = softbudget.Weibull(0.7, 1.0)  # a decreasing hazard: its psi would pool
    tracer = spans.Tracer()
    tracer.install()
    try:
        softbudget.knife_edge(softbudget.virtual_weight(dfr, bench_prim, 1.0), bench_cost)
    finally:
        tracer.uninstall()
    assert {name for name, *_ in tracer.spans} == {"mechanism.virtual_weight", "mechanism.knife_edge"}
    assert tracer.counters["mechanism.iron_weights.nodes"] == 0


def test_tracer_sees_one_ironing_per_pooled_solve(spans, tmp_path):
    # the pooled config's virtual weight pools; solve irons it exactly once,
    # through the module global the tracer wraps, so a helper that irons by
    # another route would leave the count at zero or the span count at two
    import softbudget
    from softbudget.cli import main

    config = str(ROOT / "configs" / "pooled_benchmark.json")
    cfg = softbudget.load_config(config)
    curve = softbudget.virtual_weight(cfg.dist, cfg.prim, cfg.prim.omega_T, cfg.grid.size, cfg.grid.tail_mass)
    assert np.any(curve.ironed)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["solve", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
    finally:
        tracer.uninstall()
    assert [name for name, *_ in tracer.spans].count("mechanism.iron_weights") == 1
    assert tracer.counters["mechanism.iron_weights.nodes"] == curve.theta.size
    assert tracer.counters["mechanism.iron_weights.pooled"] == int(curve.ironed.sum())


def test_tracer_sees_one_schedule_solve_per_command(spans, tmp_path):
    # solve and simulate resolve the schedule once (under discretion, the
    # fixed point's) and read transfers, leader cost and Monte Carlo off it
    from softbudget.cli import main

    config = str(ROOT / "configs" / "discretion_benchmark.json")
    names = {}
    for command in ("solve", "simulate"):
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert main([command, "--config", config, "--out", str(tmp_path / command), "--quiet"]) == 0
        finally:
            tracer.uninstall()
        names[command] = [name for name, *_ in tracer.spans]
        assert names[command].count("mechanism.solve_cap") == 1, command
    assert {"mechanism.transfer_schedule", "mechanism.leader_cost"} <= set(names["solve"])
    assert "simulation.mc_run" in names["simulate"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_workload_config_parses(seed):
    # a schema cut that drops a field some workload sets fails here, not in
    # a benchmark run; steep-discretion is listed nowhere else
    import softbudget

    workloads = _load("perfbench_workloads", WORKLOADS).WORKLOADS
    assert "steep-discretion" in workloads
    for name, workload in workloads.items():
        cfg = softbudget.parse_config(workload.config(seed))
        assert cfg.simulation.seed == seed, name


@pytest.mark.parametrize("name, pooled", [("irregular", True), ("commit-fine", False)])
def test_workload_simulate_takes_the_path_its_why_names(name, pooled, monkeypatch):
    # irregular's simulate interpolates the ironed curve (psi_bar_at);
    # commit-fine's curve pools nothing, so its simulate evaluates psi exactly
    import softbudget
    from softbudget.mechanism import VirtualWeightCurve

    workload = _load("perfbench_workloads", WORKLOADS).WORKLOADS[name]
    cfg = softbudget.parse_config(workload.config(1))
    curve = softbudget.virtual_weight(cfg.dist, cfg.prim, cfg.prim.omega_T, cfg.grid.size, cfg.grid.tail_mass)
    assert bool(np.any(curve.ironed)) is pooled
    calls = []
    at = VirtualWeightCurve.psi_bar_at
    monkeypatch.setattr(VirtualWeightCurve, "psi_bar_at", lambda self, theta: calls.append(1) or at(self, theta))
    softbudget.mc_run(softbudget.solve_cap(curve, cfg.cost), 1000, seed=1)
    assert bool(calls) is pooled


@pytest.mark.parametrize("name, builds", [("irregular", True), ("commit-fine", False), ("discretion-verify", False)])
def test_workload_sampling_builds_a_guide_table_where_its_types_are_tabulated(name, builds, monkeypatch):
    # irregular's tabulated types are drawn in 65,536-draw blocks through the
    # guide table, built once, while grid()'s one scalar quantile keeps the
    # binary search; the Weibull workloads have no table to build
    import softbudget
    from softbudget import distributions

    built = []
    table = distributions._guide_table
    monkeypatch.setattr(distributions, "_guide_table", lambda cdf: built.append(cdf.size) or table(cdf))
    workload = _load("perfbench_workloads", WORKLOADS).WORKLOADS[name]
    cfg = softbudget.parse_config(workload.config(1))
    cfg.dist.grid(cfg.grid.size, cfg.grid.tail_mass)
    assert built == []
    distributions.sample_types(cfg.dist, 2 * distributions.SAMPLE_BLOCK, cfg.simulation.seed)
    assert built == ([401] if builds else [])


_INSTALL_AFTER_KNIFE_EDGE = """
import sys, types
import spans
import softbudget.cli as cli

assert cli.main(["knife-edge", "--config", {config!r}, "--out", {out!r}, "--quiet"]) == 0
assert type(sys.modules.get("softbudget.statics")) is not types.ModuleType, "knife-edge ran statics"
tracer = spans.Tracer()
tracer.install()
wrappers = {{(m, f): getattr(sys.modules["softbudget." + m], f) for m, f in spans.TRACED}}
tracer.uninstall()
modules = [m for name, m in sys.modules.items() if name.startswith("softbudget")]
for (m, f), wrapper in wrappers.items():
    assert wrapper.__wrapped__ is getattr(sys.modules["softbudget." + m], f), f"{{m}}.{{f}} not restored"
    assert all(getattr(module, f, None) is not wrapper for module in modules), f"{{m}}.{{f}} left wrapped"
print("ok")
"""


def test_tracer_installs_where_a_traced_module_never_ran(tmp_path):
    # commit-fine never runs statics, a lazily registered module: install's
    # lookup of its functions runs it, rather than failing on sys.modules
    config = str(ROOT / "configs" / "commitment_benchmark.json")
    code = _INSTALL_AFTER_KNIFE_EDGE.format(config=config, out=str(tmp_path))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(SPANS.parent)])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]
