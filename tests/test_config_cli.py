import json
import re
from pathlib import Path

import numpy as np
import pytest

from softbudget import (
    ConfigError,
    PolicyPrimitives,
    QuadraticCost,
    WeightCurve,
    Weibull,
    parse_config,
)
from softbudget.cli import main
from softbudget.config import MAX_BINS, MAX_GRID_SIZE, MAX_SAMPLES
from conftest import BENCH, as_floats, read_csv_columns

README = Path(__file__).resolve().parent.parent / "README.md"

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
    assert cfg.discretion.enabled is False
    assert cfg.simulation.n == 200_000
    assert cfg.grid.size == 4097
    assert cfg.grid.tail_mass == pytest.approx(1e-10, rel=1e-3)
    assert cfg.output.directory == "out"
    assert cfg.output.formats == ("csv", "json")


def test_parse_config_full_blocks():
    doc = make_doc(
        discretion={"enabled": True, "m": 0.5, "chi": 1.0, "tol": 1e-9, "max_iter": 500},
        simulation={"n": 5000, "seed": 7, "bins": 12},
        grid={"size": 1025, "truncation_quantile": 0.99999},
        output={"directory": "results", "formats": ["json"]},
    )
    cfg = parse_config(doc)
    assert cfg.discretion.enabled and cfg.discretion.max_iter == 500 and cfg.discretion.tol == 1e-9
    assert cfg.prim.m == 0.5
    assert cfg.simulation.seed == 7 and cfg.simulation.bins == 12
    assert cfg.grid.size == 1025
    assert cfg.output.formats == ("json",)


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
        parse_config(make_doc(output={"formats": []}))
    with pytest.raises(ConfigError):
        parse_config(make_doc(output={"formats": ["yaml"]}))
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
    assert cfg.discretion.enabled and cfg.output.formats == ("csv", "json")


# fields an earlier schema accepted although no command read them
REMOVED_FIELDS = [
    ("simulation", "eta_scale"),
    ("simulation", "rho0"),
    ("simulation", "base_gap"),
    ("simulation", "phi_e"),
    ("simulation", "phi_d"),
    ("discretion", "damping"),
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
    out = tmp_path / "run"
    path = write_doc(tmp_path, make_doc(output={"directory": str(out), "formats": ["json"]}))
    assert run_cli("solve", "--config", path, "--quiet") == 0
    assert capsys.readouterr().out == ""
    assert (out / "summary.json").exists()
    assert not (out / "cap_schedule.csv").exists()


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


def test_cli_discretion_success(benchmark_config, tmp_path):
    assert run_cli("discretion", "--config", str(benchmark_config)) == 0
    out = tmp_path / "out"
    report = json.loads((out / "discretion.json").read_text())
    assert report["converged"] is True
    assert report["lambda_T"] == pytest.approx(BENCH["disc_lambda"], abs=1e-6)
    assert report["p_int"] == pytest.approx(BENCH["disc_p_int"], abs=1e-6)
    assert len(report["trace"]) == report["iterations"]
    assert report["trace"][0]["lambda"] == 1.0


def test_cli_discretion_not_converged_exits_numerical(tmp_path):
    out = tmp_path / "run"
    doc = make_doc(
        discretion={"enabled": True, "m": 0.5, "chi": 1.0, "max_iter": 1},
        output={"directory": str(out)},
    )
    path = write_doc(tmp_path, doc)
    assert run_cli("discretion", "--config", path) == 2
    report = json.loads((out / "discretion.json").read_text())
    assert report["converged"] is False


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


def test_cli_statics_not_applicable_still_passes(tmp_path):
    out = tmp_path / "run"
    doc = make_doc(
        distribution={"kind": "exponential", "rate": 1.0},
        cost={"kind": "quadratic", "alpha": 1.0, "kappa": 1.0},
        output={"directory": str(out)},
    )
    path = write_doc(tmp_path, doc)
    assert run_cli("statics", "--config", path) == 0
    cols = read_csv_columns(out / "statics.csv")
    assert set(cols["flag"]) == {"not-applicable"}


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


def test_cli_oracle(tmp_path):
    out = tmp_path / "run"
    path = write_doc(tmp_path, make_doc(output={"directory": str(out)}))
    assert run_cli("oracle", "--config", path) == 0
    capmin = json.loads((out / "oracle_capmin.json").read_text())
    brute = json.loads((out / "oracle_bruteforce.json").read_text())
    assert capmin["passed"] is True
    assert capmin["uniform"]["max_deviation_first"] <= 5e-5
    assert capmin["discrete"]["one_sided_points"] == [0.2, 0.5, 0.9]
    assert brute["passed"] is True
    assert brute["kkt_cost"] == pytest.approx(-0.0404444444, abs=1e-9)
    assert brute["n_schedules"] == 53130


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


def test_cli_usage_errors(tmp_path):
    path = write_doc(tmp_path, make_doc())
    assert run_cli("solve") == 1  # missing --config
    assert run_cli("bogus", "--config", path) == 1  # unknown subcommand
    assert run_cli("solve", "--config", path, "--seed", "-4") == 1
    assert run_cli("solve", "--config", path, "--grid", "3") == 1
    assert run_cli() == 1  # no subcommand at all


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
