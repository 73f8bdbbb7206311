import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from softbudget import (
    ConfigError,
    PolicyPrimitives,
    QuadraticCost,
    WeightCurve,
    Weibull,
    load_config,
    parse_config,
    solve_cap,
    virtual_weight,
    welfare_bruteforce,
)
from softbudget.cli import _COMMANDS, _commitment, build_parser, main
from softbudget.config import _COSTS, _DISTRIBUTIONS, MAX_BINS, MAX_GRID_SIZE, MAX_SAMPLES
from softbudget.mechanism import DEFAULT_TAIL_MASS
from softbudget.reporting import format_float
from softbudget.statics import StaticsReport, StaticsRow, statics_failures
from conftest import BENCH, as_floats, irregular_doc, pooled_steep_cost_doc, read_csv_columns, spike_doc

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

BASE_DOC = {
    "distribution": {"kind": "weibull", "shape": 2.0, "scale": 1.0},
    "cost": {"kind": "quadratic", "alpha": 0.2, "kappa": 1.0},
    "weights": {"omega_T": 1.0, "omega_b": 0.8, "gamma": 1.0, "b_bar": 0.8},
}


def make_doc(**blocks):
    doc = json.loads(json.dumps(BASE_DOC))
    for key, value in blocks.items():
        doc[key] = value
    return doc


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0


# -- config parsing ------------------------------------------------------------


def test_parse_config_minimal_defaults():
    cfg = parse_config(make_doc())
    assert isinstance(cfg.dist, Weibull)
    assert isinstance(cfg.cost, QuadraticCost)
    assert isinstance(cfg.prim, PolicyPrimitives)
    assert cfg.prim.omega_b == 0.8
    assert cfg.discretion is False
    assert cfg.simulation.n == 200_000
    assert vars(cfg.grid) == {"size": 4097}
    assert cfg.output.directory == "out"


def test_parse_config_full_blocks():
    doc = make_doc(
        discretion={"enabled": True, "m": 0.5, "chi": 1.0},
        simulation={"n": 5000, "seed": 7, "bins": 12},
        grid={"size": 1025},
        output={"directory": "results"},
    )
    cfg = parse_config(doc)
    assert cfg.discretion is True
    assert cfg.prim.m == 0.5
    assert cfg.simulation.seed == 7 and cfg.simulation.bins == 12
    assert cfg.grid.size == 1025
    assert cfg.output.directory == "results"


def test_parse_config_omega_b_table():
    doc = make_doc(weights={"omega_T": 1.0, "omega_b": {"theta": [0.0, 1.0], "value": [0.5, 0.9]},
                            "gamma": 1.0, "b_bar": 0.8})
    cfg = parse_config(doc)
    assert isinstance(cfg.prim.omega_b, WeightCurve)
    assert cfg.prim.omega_b_at(0.5) == pytest.approx(0.7, abs=1e-15)


def test_parse_config_aggregates_all_problems():
    doc = {
        "distribution": {"kind": "weibull", "shape": "fat", "scale": 1.0, "bogus": 1},
        "cost": {"kind": "quadratic", "alpha": 0.2},  # kappa missing
        "weights": {"omega_T": 1.0, "omega_b": 0.8, "gamma": 1.0},  # b_bar missing
        "mystery": {},
    }
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    problems = err.value.problems
    assert len(problems) >= 4
    text = "\n".join(problems)
    assert "distribution.shape" in text
    assert "distribution.bogus" in text
    assert "cost.kappa" in text
    assert "weights.b_bar" in text
    assert "mystery" in text


def test_parse_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config(make_doc(grid={"size": 5}))  # too coarse
    with pytest.raises(ConfigError):
        parse_config(make_doc(simulation={"n": 10}))
    with pytest.raises(ConfigError):
        parse_config(make_doc(output={"directory": ""}))
    with pytest.raises(ConfigError):
        parse_config(make_doc(cost={"kind": "quadratic", "alpha": 0.2, "kappa": -1.0}))
    with pytest.raises(ConfigError):
        parse_config(make_doc(distribution={"kind": "laplace", "loc": 0.0}))
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


def test_parse_config_nested_truncated_distribution():
    doc = make_doc(distribution={
        "kind": "truncated",
        "base": {"kind": "weibull", "shape": 2.0, "scale": 1.0},
        "lower": 0.1, "upper": 1.5,
    })
    cfg = parse_config(doc)
    assert cfg.dist.support == (0.1, 1.5)


def test_readme_config_example_parses():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    cfg = parse_config(json.loads(blocks[0]))
    assert cfg.discretion and cfg.output.directory == "out"


def test_readme_names_every_kind_and_field():
    text = " ".join(README.read_text(encoding="utf-8").split())
    for lead, table in (("Distribution kinds:", _DISTRIBUTIONS), ("Cost kinds:", _COSTS)):
        start = text.index(lead)
        sentence = text[start : text.index(". ", start)]
        named = {kind: tuple(f.strip() for f in fields.split(","))
                 for kind, fields in re.findall(r"`(\w+)\(([\w, ]*)\)`", sentence)}
        assert named == {kind: tuple(key for key, _ in fields) for kind, (_, *fields) in table.items()}


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    cutoffs, no_rescue, discretion = capsys.readouterr().out.splitlines()
    theta_min, theta_dagger = map(float, cutoffs.split())
    assert theta_min == pytest.approx(0.125, abs=1e-6) and theta_dagger == pytest.approx(0.625, abs=1e-6)
    assert no_rescue == "False"
    lambda_T, p_int = map(float, discretion.split())
    assert lambda_T == pytest.approx(0.897, abs=1e-3) and p_int == pytest.approx(0.257, abs=1e-3)


# fields an earlier schema accepted although no command read them
REMOVED_FIELDS = [
    ("simulation", "eta_scale"),
    ("simulation", "rho0"),
    ("simulation", "base_gap"),
    ("simulation", "phi_e"),
    ("simulation", "phi_d"),
    ("discretion", "damping"),
    ("discretion", "tol"),  # the fixed point ends at a root or a jump at the library's tol
    ("discretion", "max_iter"),
    ("output", "formats"),  # every command writes all of its CSV and JSON artifacts
]


@pytest.mark.parametrize("block,key", REMOVED_FIELDS, ids=[f"{b}.{k}" for b, k in REMOVED_FIELDS])
def test_config_rejects_fields_no_command_reads(block, key, tmp_path, capsys):
    doc = make_doc(**{block: {key: 0.5}})
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.problems == [f"{block}.{key}: unknown key"]
    assert run_cli("solve", "--config", write_doc(tmp_path, doc)) == 1
    assert f"{block}.{key}: unknown key" in capsys.readouterr().err


HUGE_INT = 10**330  # a JSON integer literal beyond float range

OVERFLOW_DOCS = {
    "distribution-scale": (
        {"distribution": {"kind": "weibull", "shape": 2.0, "scale": HUGE_INT}}, "distribution.scale"),
    "tabulated-density": (
        {"distribution": {"kind": "tabulated", "theta": [0.0, 0.5, 1.0], "density": [1.0, HUGE_INT, 1.0]}},
        "distribution.density"),
    "omega_b-number": (
        {"weights": {"omega_T": 1.0, "omega_b": HUGE_INT, "gamma": 1.0, "b_bar": 0.8}}, "weights.omega_b"),
    "omega_b-table": (
        {"weights": {"omega_T": 1.0, "omega_b": {"theta": [0.0, 1.0], "value": [0.5, HUGE_INT]},
                     "gamma": 1.0, "b_bar": 0.8}}, "weights.omega_b.value"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOW_DOCS))
def test_config_integer_beyond_float_range_is_validation_error(name, tmp_path, capsys):
    blocks, field = OVERFLOW_DOCS[name]
    doc = make_doc(**blocks)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert any(problem.startswith(f"{field}: ") for problem in err.value.problems)
    assert run_cli("solve", "--config", write_doc(tmp_path, doc)) == 1
    assert f"{field}: " in capsys.readouterr().err


# size fields, their upper bound, and a command that would allocate by them
SIZE_BOUNDS = [
    ("grid", "size", 17, MAX_GRID_SIZE, "knife-edge"),
    ("simulation", "n", 1000, MAX_SAMPLES, "simulate"),
    ("simulation", "bins", 2, MAX_BINS, "simulate"),
]


@pytest.mark.parametrize("block,key,low,high,command", SIZE_BOUNDS, ids=[f"{b}.{k}" for b, k, *_ in SIZE_BOUNDS])
def test_config_size_field_upper_bound(block, key, low, high, command, tmp_path, capsys):
    assert getattr(getattr(parse_config(make_doc(**{block: {key: high}})), block), key) == high
    for value in (high + 1, 10**30):
        doc = make_doc(**{block: {key: value}})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.problems == [f"{block}.{key}: must lie in [{low}, {high}]"]
        assert run_cli(command, "--config", write_doc(tmp_path, doc)) == 1
        assert f"{block}.{key}: must lie in" in capsys.readouterr().err


def test_cli_grid_flag_upper_bound(tmp_path, capsys):
    path = write_doc(tmp_path, make_doc())
    for value in (MAX_GRID_SIZE + 1, 10**30):
        assert run_cli("knife-edge", "--config", path, "--grid", str(value)) == 1
        assert f"grid.size: must lie in [17, {MAX_GRID_SIZE}]" in capsys.readouterr().err


def test_default_tail_mass_is_the_librarys(tmp_path):
    # a decreasing-hazard Weibull starts its grid at the tail-mass quantile,
    # so the CLI and the library solve on one grid only if they share it
    out = tmp_path / "run"
    doc = make_doc(distribution={"kind": "weibull", "shape": 0.7, "scale": 1.0}, output={"directory": str(out)})
    theta = _commitment(parse_config(doc)).theta
    dist = Weibull(0.7, 1.0)
    assert theta[0] == dist.ppf(DEFAULT_TAIL_MASS) and theta[-1] == dist.ppf(1.0 - DEFAULT_TAIL_MASS)
    assert run_cli("solve", "--config", write_doc(tmp_path, doc), "--quiet") == 0
    prim = parse_config(doc).prim
    sched = solve_cap(virtual_weight(Weibull(0.7, 1.0), prim, prim.omega_T), QuadraticCost(0.2, 1.0))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["theta_min"] == float(format_float(sched.theta_min))


def test_duplicate_keys_are_reported_with_the_other_problems(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(
        '{"distribution": {"kind": "weibull", "shape": 2.0, "scale": 1.0, "shape": 3.0},'
        ' "cost": {"kind": "quadratic", "alpha": 0.2, "kappa": 1.0},'
        ' "weights": {"omega_T": 1.0, "omega_b": {"theta": [0, 1], "theta": [0, 2], "value": [0.5, 0.9]},'
        ' "gamma": 1.0, "b_bar": 0.8, "b_bar": 0.5, "b_bar": 0.4},'
        ' "grid": {"size": 33}, "grid": {"size": 65}, "simulation": {"n": 10}}'
    )
    expected = [
        "grid: duplicate key",
        "distribution.shape: duplicate key",
        "weights.b_bar: duplicate key",
        "weights.omega_b.theta: duplicate key",
        "simulation.n: must lie in [1000, 100000000]",
    ]
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.problems == expected
    assert run_cli("solve", "--config", str(path)) == 1
    assert capsys.readouterr().err.endswith("".join(f"  - {problem}\n" for problem in expected))


def test_deeply_nested_config_is_validation_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert run_cli("solve", "--config", str(path)) == 1
    assert f"{path}: not valid JSON (" in capsys.readouterr().err


def test_null_truncated_base_is_reported():
    doc = make_doc(distribution={"kind": "truncated", "base": None, "lower": 0.1, "upper": 1.0})
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.problems == ["distribution.base: expected an object"]


# -- the entry points -----------------------------------------------------------


def test_module_entry_point_writes_the_golden_summary(tmp_path):
    # `python -m softbudget` in a fresh interpreter: its exit code and the knife edge's bytes
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["knife-edge", "--config", str(ROOT / "configs" / "commitment_benchmark.json"), "--out", str(tmp_path),
            "--quiet"]
    done = subprocess.run([sys.executable, "-m", "softbudget", *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert (done.stdout, done.stderr) == ("", "")
    golden = ROOT / "tests" / "golden" / "commitment" / "summary.json"
    assert (tmp_path / "summary.json").read_bytes() == golden.read_bytes()


def test_policy_primitives_fields():
    assert [f.name for f in fields(PolicyPrimitives)] == ["omega_T", "omega_b", "gamma", "b_bar", "m", "chi"]


# -- CLI flags -------------------------------------------------------------------


@pytest.mark.parametrize("flag,value,problem", [
    ("--out", "", "output.directory: must be nonempty"),
    ("--seed", "-4", "simulation.seed: must fit in an unsigned 64-bit integer"),
    ("--seed", str(2**64), "simulation.seed: must fit in an unsigned 64-bit integer"),
    ("--grid", "3", f"grid.size: must lie in [17, {MAX_GRID_SIZE}]"),
], ids=["out-empty", "seed-negative", "seed-2**64", "grid-3"])
def test_cli_flags_are_validated_as_config_fields(flag, value, problem, tmp_path, capsys):
    path = write_doc(tmp_path, make_doc(output={"directory": str(tmp_path / "run")}))
    assert run_cli("solve", "--config", path, flag, value) == 1
    assert capsys.readouterr().err == f"softbudget solve: invalid configuration (1 problem(s)):\n  - {problem}\n"


def test_cli_valid_flags_replace_invalid_file_values(tmp_path):
    doc = make_doc(simulation={"n": 5000, "seed": -1, "bins": 10}, grid={"size": 3}, output={"directory": ""})
    path = write_doc(tmp_path, doc)
    assert run_cli("simulate", "--config", path, "--quiet") == 1
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", path, "--seed", "9", "--grid", "257", "--out", str(out), "--quiet") == 0
    assert json.loads((out / "mc_report.json").read_text())["seed"] == 9


@pytest.mark.parametrize("flag", ["--seed", "--grid"])
def test_cli_non_integer_flag_is_a_usage_error(flag, tmp_path, capsys):
    path = write_doc(tmp_path, make_doc())
    assert run_cli("solve", "--config", path, flag, "x") == 1
    assert f"error: argument {flag}: invalid int value: 'x'" in capsys.readouterr().err


# -- CLI exit codes --------------------------------------------------------------


def test_cli_solve_success(tmp_path, capsys):
    out = tmp_path / "run"
    path = write_doc(tmp_path, make_doc(output={"directory": str(out)}))
    assert run_cli("solve", "--config", path) == 0
    printed = capsys.readouterr().out
    assert "solve:" in printed and "wrote" in printed
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "solve"
    assert summary["regime"] == "mixed"
    assert summary["theta_min"] == pytest.approx(BENCH["theta_min"], abs=1e-6)
    assert summary["theta_dagger"] == pytest.approx(BENCH["theta_dagger"], abs=1e-6)
    assert summary["p_int"] == pytest.approx(BENCH["p_int"], abs=1e-6)
    assert summary["leader_cost"] == pytest.approx(BENCH["leader_cost"], abs=1e-5)
    assert summary["no_rescue"] is False
    assert summary["discretion"] is None
    cols = read_csv_columns(out / "cap_schedule.csv")
    assert list(cols) == ["theta", "b_star", "ironed", "t_star", "ll_binding"]
    b = as_floats(cols["b_star"])
    assert np.all(np.diff(b) >= -1e-12)
    assert set(cols["ironed"]) == {"false"}
    tr = read_csv_columns(out / "transfers.csv")
    assert set(as_floats(tr["t_star"])) == {0.0}


def test_cli_solve_quiet_and_formats(tmp_path, capsys):
    # --quiet prints nothing, and solve writes its CSV and JSON artifacts, each listed in the summary
    out = tmp_path / "run"
    path = write_doc(tmp_path, make_doc(output={"directory": str(out)}))
    assert run_cli("solve", "--config", path, "--quiet") == 0
    assert capsys.readouterr().out == ""
    files = json.loads((out / "summary.json").read_text())["files"]
    assert files == {"summary": "summary.json", "cap_schedule": "cap_schedule.csv", "transfers": "transfers.csv"}
    assert sorted(p.name for p in out.iterdir()) == sorted(files.values())


def test_cli_no_rescue_solve_writes_no_negative_zero(tmp_path):
    # with every cap 0 the transfer integral sums -0.0 increments: t_pre read
    # -0 in 4,096 of 4,097 rows of transfers.csv
    out = tmp_path / "run"
    doc = make_doc(distribution={"kind": "exponential", "rate": 1.0},
                   cost={"kind": "quadratic", "alpha": 1.0, "kappa": 1.0}, output={"directory": str(out)})
    assert run_cli("solve", "--config", write_doc(tmp_path, doc), "--quiet") == 0
    assert json.loads((out / "summary.json").read_text())["regime"] == "no-rescue"
    for name in ("cap_schedule.csv", "transfers.csv"):
        cols = read_csv_columns(out / name)
        assert not [key for key, cells in cols.items() if "-0" in cells], name
    assert set(read_csv_columns(out / "transfers.csv")["t_pre"]) == {"0"}


def test_cli_knife_edge_no_rescue(tmp_path):
    out = tmp_path / "run"
    doc = make_doc(
        distribution={"kind": "exponential", "rate": 1.0},
        cost={"kind": "quadratic", "alpha": 1.0, "kappa": 1.0},
        output={"directory": str(out)},
    )
    path = write_doc(tmp_path, doc)
    assert run_cli("knife-edge", "--config", path) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["no_rescue"] is True
    assert summary["knife_edge_margin"] == pytest.approx(0.2, abs=1e-9)
    assert summary["truncated_support"] is True
    # and the solved schedule is identically zero
    assert run_cli("solve", "--config", path) == 0
    solved = json.loads((out / "summary.json").read_text())
    assert solved["regime"] == "no-rescue"
    assert solved["theta_min"] is None and solved["theta_dagger"] is None
    assert solved["leader_cost"] == 0.0
    b = as_floats(read_csv_columns(out / "cap_schedule.csv")["b_star"])
    assert np.all(b == 0.0)


def test_cli_solve_summary_agrees_with_itself_where_the_largest_weight_pools(tmp_path):
    # a truncated decreasing-hazard base: every node pools, below the raw weight's maximum
    out = tmp_path / "run"
    doc = make_doc(
        distribution={"kind": "truncated", "base": {"kind": "weibull", "shape": 0.7, "scale": 1.0}, "lower": 0.1,
                      "upper": 1e308},
        cost={"kind": "quadratic", "alpha": 0.8, "kappa": 1.0},
        output={"directory": str(out)},
    )
    assert run_cli("solve", "--config", write_doc(tmp_path, doc)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["regime"], summary["no_rescue"]) == ("no-rescue", True)
    assert summary["knife_edge_margin"] == pytest.approx(-0.317, abs=5e-4)  # still the raw weight's


def test_cli_discretion_success(benchmark_config, tmp_path):
    assert run_cli("discretion", "--config", str(benchmark_config)) == 0
    out = tmp_path / "out"
    report = json.loads((out / "discretion.json").read_text())
    assert report["converged"] is True
    assert report["lambda_T"] == pytest.approx(BENCH["disc_lambda"], abs=1e-6)
    assert report["p_int"] == pytest.approx(BENCH["disc_p_int"], abs=1e-6)
    assert len(report["trace"]) == report["iterations"]
    assert report["trace"][0]["lambda"] == 1.0
    lo, hi = report["bracket"]
    assert 0.6 <= lo <= report["lambda_T"] <= hi <= 1.0
    assert report["jump"] is None


def test_cli_discretion_requires_enabled(tmp_path):
    path = write_doc(tmp_path, make_doc(output={"directory": str(tmp_path / "o")}))
    assert run_cli("discretion", "--config", path) == 1


def test_cli_solve_with_discretion_summary(benchmark_config, tmp_path):
    assert run_cli("solve", "--config", str(benchmark_config)) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["lambda_T"] == pytest.approx(BENCH["disc_lambda"], abs=1e-6)
    assert summary["theta_min"] == pytest.approx(BENCH["disc_theta_min"], abs=1e-6)
    assert summary["discretion"]["converged"] is True


def test_cli_statics_commitment(tmp_path):
    out = tmp_path / "run"
    path = write_doc(tmp_path, make_doc(output={"directory": str(out)}))
    assert run_cli("statics", "--config", path) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["max_rel_error"] <= 1e-4
    assert summary["chain_gap"] is None
    cols = read_csv_columns(out / "statics.csv")
    assert len(cols["partial"]) == 7
    assert set(cols["sign_ok"]) == {"true"}


def test_cli_statics_with_discretion(benchmark_config, tmp_path):
    assert run_cli("statics", "--config", str(benchmark_config)) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["chain_gap"] <= 1e-3
    cols = read_csv_columns(out / "statics.csv")
    assert len(cols["partial"]) == 10
    assert "d_lambda_T_d_m" in cols["partial"]


@pytest.mark.parametrize("distribution,alpha", [
    ({"kind": "exponential", "rate": 1.0}, 1.0),  # psi = 0.8 below alpha: no rescue
    ({"kind": "weibull", "shape": 0.8, "scale": 1.0}, 0.2),  # a decreasing hazard: no interior lower cutoff
], ids=["no-rescue", "decreasing-hazard"])
def test_cli_statics_that_certifies_nothing_fails(tmp_path, capsys, distribution, alpha):
    # every row is not applicable: the command writes its rows, then exits 2
    # and says that it certified nothing
    out = tmp_path / "run"
    doc = make_doc(
        distribution=distribution,
        cost={"kind": "quadratic", "alpha": alpha, "kappa": 1.0},
        output={"directory": str(out)},
    )
    assert run_cli("statics", "--config", write_doc(tmp_path, doc), "--quiet") == 2
    assert capsys.readouterr().err == (
        "statics: finite-difference certification failed on the 4097-node grid: no partial was certified\n"
    )
    cols = read_csv_columns(out / "statics.csv")
    assert set(cols["flag"]) == {"not-applicable"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False and summary["theta_min"] is None


def test_cli_statics_failure_names_its_cause(tmp_path, capsys):
    # uniform [0, 10] with gamma*omega_b/lambda_T = 0.495 below alpha = 2, on a
    # 257-node grid: the four cutoff partials miss by 3.5e-2, and the cap
    # partials do not apply (psi_bar(theta_ref) = 0.495 <= alpha)
    out = tmp_path / "run"
    doc = make_doc(
        distribution={"kind": "uniform", "lower": 0.0, "upper": 10.0},
        cost={"kind": "quadratic", "alpha": 2.0, "kappa": 1.0},
        weights={"omega_T": 1.0, "omega_b": 0.495, "gamma": 1.0, "b_bar": 0.8},
        grid={"size": 257},
        output={"directory": str(out)},
    )
    assert run_cli("statics", "--config", write_doc(tmp_path, doc), "--quiet") == 2
    assert capsys.readouterr().err == (
        "statics: finite-difference certification failed on the 257-node grid: "
        + "; ".join(f"d_theta_min_d_{p} rel_error 3.468e-02 > STATICS_REL_TOL 0.0001"
                    for p in ("alpha", "omega_b", "lambda_T", "gamma")) + "\n"
    )
    assert json.loads((out / "summary.json").read_text())["passed"] is False
    cols = read_csv_columns(out / "statics.csv")
    assert cols["rel_error"][:4] == ["0.03467788049"] * 4
    assert cols["flag"][4:] == ["not-applicable"] * 3


@pytest.mark.parametrize("discretion", [False, True])
def test_cli_statics_at_alpha_zero_certifies_nothing(tmp_path, capsys, discretion):
    # at alpha = 0, psi(0) = 0 = C'(0): the lower cutoff is the support's
    # edge theta[0], so no partial applies (three cutoff rows failed "wrong
    # sign" when it was bisected to 8.52e-15, and the cap rows differenced
    # across the kink at theta_dagger = theta_ref); the m rows are not run
    out = tmp_path / "run"
    doc = make_doc(cost={"kind": "quadratic", "alpha": 0.0, "kappa": 1.0},
                   discretion={"enabled": discretion, "m": 0.5, "chi": 1.0}, output={"directory": str(out)})
    assert run_cli("statics", "--config", write_doc(tmp_path, doc), "--quiet") == 2
    assert capsys.readouterr().err.endswith(": no partial was certified\n")
    cols = read_csv_columns(out / "statics.csv")
    assert cols["flag"] == ["not-applicable"] * 7
    assert json.loads((out / "summary.json").read_text())["theta_min"] is None


def test_cli_statics_below_the_b_max_domain_reports_no_b_max(tmp_path):
    # alpha = 0.9 above psi_bar(theta_ref) = 0.8: b_max was reported as -0.1
    # with d_b_max_d_kappa = +0.1; now it is null and its rows do not apply
    out = tmp_path / "run"
    doc = make_doc(cost={"kind": "quadratic", "alpha": 0.9, "kappa": 1.0}, output={"directory": str(out)})
    assert run_cli("statics", "--config", write_doc(tmp_path, doc), "--quiet") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["b_max"] is None and summary["passed"] is True and summary["theta_min"] == 0.5625
    cols = read_csv_columns(out / "statics.csv")
    assert cols["flag"] == [""] * 4 + ["not-applicable"] * 3


DISCRETION_ON = {"enabled": True, "m": 0.5, "chi": 1.0}


def test_cli_statics_flags_d_b_max_d_m_across_the_kink(tmp_path):
    # at kappa = 0.84112647..., the fixed points' theta_dagger = 0.500118 lies
    # in the grid cell of theta_ref = 0.5, where the schedule kinks: the cap
    # there was differenced in m, reading 0.0329 against 0.163 unflagged
    out = tmp_path / "run"
    doc = make_doc(cost={"kind": "quadratic", "alpha": 0.2, "kappa": 0.8411264745838027},
                   discretion=DISCRETION_ON, output={"directory": str(out)})
    assert run_cli("statics", "--config", write_doc(tmp_path, doc), "--quiet") == 0
    cols = read_csv_columns(out / "statics.csv")
    assert cols["partial"][9] == "d_b_max_d_m"
    assert cols["flag"] == [""] * 9 + ["regime-boundary"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True and summary["chain_gap"] <= 1e-3


@pytest.mark.parametrize("grid,code", [(65537, 0), (4097, 2)])
def test_cli_statics_flags_the_m_rows_across_a_regime_boundary(tmp_path, capsys, grid, code):
    # Uniform(1, 2) at alpha = 0.97584...: the discretionary theta_min is
    # 1 + 2.9e-7, and the fixed points at m +- h put it on theta[0]; the
    # command exited 1 ("shrink the step") and wrote no statics.csv.  Now the
    # m rows are flagged and there is no chain gap; on 4,097 nodes the four
    # grid-limited cutoff partials still fail
    out = tmp_path / "run"
    doc = make_doc(distribution={"kind": "uniform", "lower": 1.0, "upper": 2.0},
                   cost={"kind": "quadratic", "alpha": 0.9758433097511897, "kappa": 1.0},
                   discretion=DISCRETION_ON, output={"directory": str(out)})
    assert run_cli("statics", "--config", write_doc(tmp_path, doc), "--grid", str(grid), "--quiet") == code
    assert capsys.readouterr().err == ("" if code == 0 else
        "statics: finite-difference certification failed on the 4097-node grid: "
        + "; ".join(f"d_theta_min_d_{p} rel_error 2.479e-04 > STATICS_REL_TOL 0.0001"
                    for p in ("alpha", "omega_b", "lambda_T", "gamma")) + "\n")
    cols = read_csv_columns(out / "statics.csv")
    assert cols["partial"][7:] == ["d_lambda_T_d_m", "d_theta_min_d_m", "d_b_max_d_m"]
    assert cols["flag"][7:] == ["regime-boundary", "regime-boundary", "not-applicable"]
    assert json.loads((out / "summary.json").read_text())["chain_gap"] is None


def test_cli_statics_names_a_missing_fixed_point(tmp_path, capsys):
    # the irregular workload's density at seed 3 with m = 0.5 has no fixed
    # point; statics said "fixed point did not converge during m
    # perturbation" although nothing was perturbed
    path = write_doc(tmp_path, irregular_doc(3, 4097, discretion=True))
    message = ("no discretionary fixed point: P_int jumps from 0.1015823365 to 0.4719421007 at "
               "lambda_T = 0.8626708227, where g = omega_T - omega_b*m*P_int - lambda_T changes sign between "
               "adjacent floats, from 0.09669624271 to -0.05144766299\n")
    assert run_cli("discretion", "--config", path, "--out", str(tmp_path / "d"), "--quiet") == 2
    assert capsys.readouterr().err == "discretion: " + message
    for command in ("solve", "statics"):
        assert run_cli(command, "--config", path, "--out", str(tmp_path / command), "--quiet") == 2
        assert capsys.readouterr().err == f"softbudget {command}: " + message


def discretion_benchmark_doc(out, **discretion):
    doc = json.loads((ROOT / "configs" / "discretion_benchmark.json").read_text(encoding="utf-8"))
    return {**doc, "discretion": {"enabled": True, **discretion}, "output": {"directory": str(out)}}


def test_cli_statics_with_discretion_at_the_default_m(tmp_path, capsys):
    # m = 0 is the schema's default: statics exited 1 ("m sensitivity needs
    # m > 0") while the other five commands exit 0; now the three m rows are
    # not applicable and there is no chain gap
    out = tmp_path / "run"
    path = write_doc(tmp_path, discretion_benchmark_doc(out))
    for command in ("solve", "knife-edge", "discretion", "simulate", "oracle", "statics"):
        assert run_cli(command, "--config", path, "--quiet") == 0, command
    assert capsys.readouterr().err == ""
    cols = read_csv_columns(out / "statics.csv")
    assert cols["partial"][7:] == ["d_lambda_T_d_m", "d_theta_min_d_m", "d_b_max_d_m"]
    assert cols["flag"] == [""] * 7 + ["not-applicable"] * 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True and summary["chain_gap"] is None


def test_cli_statics_flags_the_m_rows_where_m_plus_h_leaves_the_domain(tmp_path):
    # at m = 0.999995 the perturbation m + h is at least 1, outside [0, 1):
    # the side raises ParameterError and all three m rows are flagged
    out = tmp_path / "run"
    path = write_doc(tmp_path, discretion_benchmark_doc(out, m=0.999995))
    assert run_cli("statics", "--config", path, "--quiet") == 0
    cols = read_csv_columns(out / "statics.csv")
    assert cols["flag"] == [""] * 7 + ["regime-boundary"] * 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True and summary["chain_gap"] is None


def omega_b_curve_doc(out):
    return make_doc(weights={"omega_T": 1.0, "omega_b": {"theta": [0.0, 1.0], "value": [0.5, 0.9]},
                             "gamma": 1.0, "b_bar": 0.8},
                    discretion=DISCRETION_ON, output={"directory": str(out)})


@pytest.mark.parametrize("command,message", [
    ("discretion", "effective lambda requires a constant omega_b"),
], ids=["discretion"])
def test_cli_commands_that_need_a_constant_omega_b_exit_1(tmp_path, capsys, command, message):
    # the library's own check names the cause; the command keeps no copy of it
    doc = omega_b_curve_doc(tmp_path / "run")
    assert run_cli(command, "--config", write_doc(tmp_path, doc), "--quiet") == 1
    assert capsys.readouterr().err == f"softbudget {command}: {message}\n"


def test_cli_oracle_reads_psi_off_an_omega_b_curve(tmp_path, capsys):
    # oracle checks the commitment curve, whose psi reads omega_b at each node
    out = tmp_path / "run"
    cfg_path = write_doc(tmp_path, omega_b_curve_doc(out))
    assert run_cli("oracle", "--config", cfg_path, "--quiet") == 0
    assert capsys.readouterr().err == ""
    brute = json.loads((out / "oracle_bruteforce.json").read_text())
    assert brute["passed"] is True and brute["nodes"] == 65
    cfg = load_config(cfg_path)
    rep = welfare_bruteforce(_commitment(cfg), cfg.cost)
    assert format_float(rep.solver_cost) == format_float(brute["solver_cost"])
    flat = welfare_bruteforce(_commitment(replace(cfg, prim=replace(cfg.prim, omega_b=0.7))), cfg.cost)
    assert flat.solver_cost != rep.solver_cost


def test_statics_failures_name_every_failed_check():
    row = StaticsRow("d_theta_min_d_alpha", 1.0, 1.0, 0.0, +1, True)
    wrong = StaticsRow("d_b_max_d_kappa", -1.0, 1.0, 2.0, -1, False)
    flagged = StaticsRow("d_b_max_d_gamma", 1.0, math.nan, math.nan, +1, False, "regime-boundary")
    report = StaticsReport(rows=(row, flagged), theta_min=0.1, b_max=0.5, theta_ref=0.5, lambda_T=1.0)
    assert statics_failures(report, None) == []
    assert statics_failures(report, report) == []  # an m report without a chain gap: one of its rows is flagged
    bad = replace(report, rows=(row, wrong, flagged))
    m_bad = replace(report, rows=(replace(wrong, partial="d_lambda_T_d_m"),), chain_gap=2e-3)
    assert statics_failures(bad, m_bad) == [
        "d_b_max_d_kappa rel_error 2.000e+00 > STATICS_REL_TOL 0.0001",
        "d_b_max_d_kappa has the wrong sign (expected -1)",
        "d_lambda_T_d_m has the wrong sign (expected -1)",
        "chain_gap 2.000e-03 > CHAIN_GAP_TOL 0.001",
    ]


def test_cli_simulate(tmp_path):
    out = tmp_path / "run"
    doc = make_doc(
        simulation={"n": 50000, "seed": 99, "bins": 20},
        output={"directory": str(out)},
    )
    path = write_doc(tmp_path, doc)
    assert run_cli("simulate", "--config", path) == 0
    report = json.loads((out / "mc_report.json").read_text())
    assert report["n"] == 50000 and report["seed"] == 99
    assert report["dev_theta_min"] <= 0.01
    assert report["dev_p_int"] <= 0.01
    cols = read_csv_columns(out / "binned_means.csv")
    assert len(cols["bin_center"]) == 20
    closed = as_floats(cols["b_closed_form"])
    assert np.all((closed >= 0.0) & (closed <= 0.8))


def point_mass_doc(out):
    return make_doc(
        distribution={"kind": "point", "value": 0.5},
        simulation={"n": 5000, "seed": 3, "bins": 10},
        output={"directory": str(out)},
    )


def test_cli_simulate_point_mass(tmp_path):
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", write_doc(tmp_path, point_mass_doc(out)), "--quiet") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["theta_min"] == 0.5
    report = json.loads((out / "mc_report.json").read_text())
    assert report["theta_min"] == 0.5 and report["dev_theta_min"] == 0.0
    assert report["p_int"] == 1 and report["p_int_hat"] == 1


def test_cli_solve_point_mass_counts_its_interior_type(tmp_path):
    # the one type gets the interior cap 0.6 < b_bar, so P(0 < b < b_bar) = 1
    out = tmp_path / "run"
    assert run_cli("solve", "--config", write_doc(tmp_path, point_mass_doc(out)), "--quiet") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["regime"] == "interior" and summary["theta_min"] == 0.5
    assert summary["p_int"] == 1


def test_cli_point_mass_without_fixed_point_names_the_jump(tmp_path, capsys):
    # P_int of PointMass(0.5) jumps from 0 to 1 at lambda_T = 0.8, where
    # g = omega_T - omega_b*m*P_int - lambda_T drops from +0.2 to -0.2
    out = tmp_path / "run"
    doc = point_mass_doc(out)
    doc["discretion"] = {"enabled": True, "m": 0.5, "chi": 1.0}
    path = write_doc(tmp_path, doc)
    assert run_cli("discretion", "--config", path, "--quiet") == 2
    message = ("no discretionary fixed point: P_int jumps from 0 to 1 at lambda_T = 0.8, where "
               "g = omega_T - omega_b*m*P_int - lambda_T changes sign between adjacent floats, "
               "from 0.2 to -0.2\n")
    assert capsys.readouterr().err == "discretion: " + message
    report = json.loads((out / "discretion.json").read_text())
    assert report["converged"] is False
    assert report["jump"] == {"at": 0.8, "p_int_below": 0, "p_int_above": 1}
    assert report["bracket"] == [0.8, 0.8]  # adjacent floats at 10 digits
    assert len(report["trace"]) == report["iterations"] < 100
    # a command that needs the fixed point exits 2 with the same message
    assert run_cli("solve", "--config", path, "--quiet") == 2
    assert capsys.readouterr().err == "softbudget solve: " + message


def test_cli_oracle(tmp_path):
    out = tmp_path / "run"
    path = write_doc(tmp_path, make_doc(output={"directory": str(out)}))
    assert run_cli("oracle", "--config", path) == 0
    capmin = json.loads((out / "oracle_capmin.json").read_text())
    brute = json.loads((out / "oracle_bruteforce.json").read_text())
    assert capmin["passed"] is True
    assert capmin["uniform"]["max_deviation_first"] <= 5e-5
    assert capmin["discrete"]["one_sided_points"] == [0.2, 0.5, 0.9]
    assert brute["passed"] is True and brute["nodes"] == 65
    assert brute["gap_bound"] == pytest.approx(8e-6, rel=1e-9)
    assert 0.0 <= brute["max_deviation"] <= brute["gap_bound"] and brute["max_level_gap"] <= 1.0


def _config_doc(name):
    return json.loads((ROOT / "configs" / f"{name}_benchmark.json").read_text())


@pytest.mark.parametrize("doc", [
    lambda: _config_doc("commitment"),
    lambda: _config_doc("discretion"),
    lambda: _config_doc("pooled"),
    pooled_steep_cost_doc,
    lambda: irregular_doc(1, 4097),
    lambda: point_mass_doc("unused"),
    lambda: make_doc(cost={"kind": "tabulated", "payout": [0.0, 0.5, 1.0], "marginal": [0.2, 0.6, 1.0]}),
    lambda: spike_doc(4000),
    lambda: spike_doc(4097),
], ids=["commitment", "discretion", "pooled", "pooled-kappa-5", "irregular", "point-mass",
        "tabulated-cost", "spike-4000", "spike-4097"])
def test_cli_oracle_passes_on_the_config_it_is_given(tmp_path, capsys, doc):
    out = tmp_path / "run"
    assert run_cli("oracle", "--config", write_doc(tmp_path, doc()), "--out", str(out), "--quiet") == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "oracle_bruteforce.json").read_text())["passed"] is True


def test_cli_oracle_caps_targets_above_a_tabulated_cost_at_b_bar(tmp_path):
    # omega_b = 2 makes psi = 4 theta: it passes C'(b_bar) = 0.84 above theta
    # = 0.21 and the table's top marginal 1 above 0.25; the solver's cap rule
    # sends those targets to b_bar without inverting past the table, in every command
    doc = make_doc(cost={"kind": "tabulated", "payout": [0.0, 0.5, 1.0], "marginal": [0.2, 0.6, 1.0]},
                   weights={"omega_T": 1.0, "omega_b": 2.0, "gamma": 1.0, "b_bar": 0.8},
                   simulation={"n": 5000})
    for command in ("solve", "simulate", "oracle"):
        out = tmp_path / command
        doc["output"] = {"directory": str(out)}
        assert run_cli(command, "--config", write_doc(tmp_path, doc), "--quiet") == 0, command
    brute = json.loads((tmp_path / "oracle" / "oracle_bruteforce.json").read_text())
    assert brute["passed"] is True
    cfg = load_config(write_doc(tmp_path, doc))
    curve = _commitment(cfg)
    rep = welfare_bruteforce(curve, cfg.cost)
    above = curve.psi[::64] > 1.0
    assert np.count_nonzero(above) > 40 and np.all(rep.solver_caps[above] == 0.8)
    assert rep.solver_caps[0] == 0.0


def test_cli_missing_config_is_io_error(tmp_path):
    assert run_cli("solve", "--config", str(tmp_path / "absent.json")) == 3


def test_cli_malformed_json_is_validation_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("solve", "--config", str(path)) == 1


def test_cli_non_utf8_config_is_validation_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    doc = make_doc(output={"directory": str(tmp_path / "r\u00e9sultats")})
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))  # e-acute becomes the lone byte 0xe9
    assert run_cli("solve", "--config", str(path)) == 1
    assert "not valid UTF-8" in capsys.readouterr().err


def test_cli_invalid_config_is_validation_error(tmp_path):
    doc = make_doc(cost={"kind": "quadratic", "alpha": 0.2, "kappa": -1.0})
    path = write_doc(tmp_path, doc)
    assert run_cli("solve", "--config", path) == 1


def test_cli_usage_errors(tmp_path, capsys):
    path = write_doc(tmp_path, make_doc())
    for argv, cause in [
        (("bogus", "--config", path), "argument command: invalid choice: 'bogus'"),
        ((), "the following arguments are required: command"),
        (("solve",), "the following arguments are required: --config"),
        (("solve", "--config", path, "--grid", "x"), "argument --grid: invalid int value: 'x'"),
    ]:
        assert run_cli(*argv) == 1
        assert f"softbudget: error: {cause}" in capsys.readouterr().err
    assert run_cli("solve", "--config", path, "--seed", "-4") == 1
    assert run_cli("solve", "--config", path, "--grid", "3") == 1


def test_cli_parser_lists_every_command(capsys):
    (command,) = [action for action in build_parser()._actions if action.dest == "command"]
    assert list(command.choices) == list(_COMMANDS)
    assert run_cli("--help") == 0
    listed = capsys.readouterr().out
    for name, (_, help_text) in _COMMANDS.items():
        assert re.search(rf"^  {re.escape(name)} +{re.escape(help_text)}$", listed, re.MULTILINE), name


def test_cli_builds_one_parser_per_process_and_none_at_import(tmp_path):
    # a fresh interpreter counts the _Parser objects built: none by the import and load_config that
    # the benchmark's set-up times, then one for every main() call in the process, usage errors included
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    config = str(ROOT / "configs" / "commitment_benchmark.json")
    code = f"""
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(type(self).__name__)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import softbudget.cli as cli
cli.load_config({config!r})
print(built.count("_Parser"))
codes = [cli.main(["knife-edge", "--config", {config!r}, "--out", {str(tmp_path)!r}, "--quiet"]) for _ in range(3)]
try:
    cli.main(["solve"])
except SystemExit as exc:
    codes.append(exc.code)
print(built.count("_Parser"), codes)
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0", "1 [0, 0, 0, 1]"]


def test_cli_shared_parser_prints_what_a_fresh_one_prints(tmp_path, capsys):
    fresh = build_parser.__wrapped__()
    assert fresh is not build_parser() and build_parser() is build_parser()
    assert run_cli("--help") == 0
    assert capsys.readouterr().out == fresh.format_help()
    path = write_doc(tmp_path, make_doc())
    for argv in [("bogus", "--config", path), (), ("solve",), ("solve", "--config", path, "--grid", "x")]:
        assert run_cli(*argv) == 1
        shared = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            fresh.parse_args(list(argv))
        assert exc.value.code == 1 and capsys.readouterr() == shared


def test_cli_options_may_precede_the_command(tmp_path):
    path = write_doc(tmp_path, make_doc())
    before, after = tmp_path / "before", tmp_path / "after"
    assert run_cli("--config", path, "--out", str(before), "--quiet", "solve") == 0
    assert run_cli("solve", "--config", path, "--out", str(after), "--quiet") == 0
    names = sorted(p.name for p in before.iterdir())
    assert names == sorted(p.name for p in after.iterdir())
    for name in names:
        assert (before / name).read_bytes() == (after / name).read_bytes(), name


def test_cli_overrides(tmp_path):
    base_out = tmp_path / "a"
    other_out = tmp_path / "b"
    doc = make_doc(
        simulation={"n": 20000, "seed": 5, "bins": 10},
        output={"directory": str(base_out)},
    )
    path = write_doc(tmp_path, doc)
    assert run_cli("simulate", "--config", path, "--quiet") == 0
    assert run_cli(
        "simulate", "--config", path, "--out", str(other_out), "--seed", "77", "--grid", "513", "--quiet"
    ) == 0
    base = json.loads((base_out / "mc_report.json").read_text())
    other = json.loads((other_out / "mc_report.json").read_text())
    assert base["seed"] == 5 and other["seed"] == 77
    sol_summary_out = tmp_path / "c"
    assert run_cli("solve", "--config", path, "--out", str(sol_summary_out), "--grid", "2049", "--quiet") == 0
    summary = json.loads((sol_summary_out / "summary.json").read_text())
    assert summary["grid_size"] == 2049


def test_cli_byte_identical_reruns(tmp_path):
    doc = make_doc(
        discretion={"enabled": True, "m": 0.5, "chi": 1.0},
        simulation={"n": 20000, "seed": 123, "bins": 10},
    )
    path = write_doc(tmp_path, doc)
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        for cmd in ("solve", "simulate", "statics", "oracle"):
            assert run_cli(cmd, "--config", path, "--out", str(d / cmd), "--quiet") == 0
    for cmd in ("solve", "simulate", "statics", "oracle"):
        a_dir, b_dir = dirs[0] / cmd, dirs[1] / cmd
        names = sorted(p.name for p in a_dir.iterdir())
        assert names == sorted(p.name for p in b_dir.iterdir())
        for name in names:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), f"{cmd}/{name}"


def test_cli_float_formatting(tmp_path):
    out = tmp_path / "run"
    path = write_doc(tmp_path, make_doc(output={"directory": str(out)}))
    assert run_cli("solve", "--config", path, "--quiet") == 0
    text = (out / "summary.json").read_text()
    summary = json.loads(text)
    # ten significant digits, no Python repr spill
    assert "0.3940640412" in text
    assert isinstance(summary["files"], dict)
    for cell in read_csv_columns(out / "cap_schedule.csv")["b_star"][:50]:
        assert len(cell) <= 17
