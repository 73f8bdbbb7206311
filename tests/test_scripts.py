"""The scripts under ``scripts/`` run as a user runs them: a fresh interpreter, ``src`` on the path."""

import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from softbudget import statics

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=str(ROOT), timeout=120,
    )


@pytest.mark.parametrize(
    "name,args,header",
    [
        ("reproduce_thresholds.py", ("--n", "20000"), "regime"),
        ("statics_report.py", (), "partial"),
    ],
    ids=["reproduce_thresholds", "statics_report"],
)
def test_script_prints_its_table(name, args, header):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    rows = [i for i, line in enumerate(lines) if line.split()[:1] == [header]]
    assert rows, done.stdout
    assert len(lines) > rows[0] + 1 and lines[rows[0] + 1].strip(), done.stdout  # a row under the header


def load_script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], ROOT / "scripts" / name)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_statics_report_fails_on_the_statics_verdict(monkeypatch, capsys):
    # a coarse step leaves four partials 2.5e-3 off, above STATICS_REL_TOL; the worst is named
    script = load_script("statics_report.py")
    monkeypatch.setattr(statics, "FD_STEP", 0.05)
    assert script.main(["--skip-discretion"]) == 2
    done = capsys.readouterr()
    assert done.err == "certification failed: d_b_max_d_lambda_T rel_error 2.506e-03 > STATICS_REL_TOL 0.0001\n"
    # the signs alone are right, but the printed verdict is the one the exit code reports
    lines = done.out.splitlines()
    assert "signs_ok=True" in lines[-3] and "all_ok" not in done.out
    assert lines[-1] == "passed=False"
    monkeypatch.undo()
    assert script.main(["--skip-discretion"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "passed=True"


def test_statics_report_fails_when_nothing_is_certified():
    # at alpha = 0 the lower cutoff sits on the support's edge: every row is
    # not applicable, and the verdict says so instead of passing
    done = run_script("statics_report.py", "--alpha", "0", "--skip-discretion")
    assert done.returncode == 2, done.stdout
    assert done.stderr == "certification failed: no partial was certified\n"
    assert done.stdout.count("[not-applicable]") == 7
    assert done.stdout.splitlines()[-1] == "passed=False"


def test_statics_report_flags_d_b_max_d_m_across_the_kink():
    # the fixed points' theta_dagger lies in theta_ref's grid cell at this kappa
    done = run_script("statics_report.py", "--kappa", "0.8411264745838027")
    assert done.returncode == 0, done.stderr
    row = next(line for line in done.stdout.splitlines() if line.startswith("d_b_max_d_m"))
    assert row.endswith("[regime-boundary]")
    assert done.stdout.splitlines()[-1] == "passed=True"


def test_statics_report_prints_a_chain_gap_that_is_not_defined(monkeypatch, capsys):
    # the script's Weibull(2, 1) has no m perturbation across a regime
    # boundary, so the flagged report is stood in for
    script = load_script("statics_report.py")
    real = script.m_sensitivity
    monkeypatch.setattr(script, "m_sensitivity", lambda *a, **k: replace(real(*a, **k), chain_gap=None))
    assert script.main([]) == 0
    assert "chain-rule gap=none  signs_ok=True" in capsys.readouterr().out
