"""The scripts under ``scripts/`` run as a user runs them: a fresh interpreter, ``src`` on the path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_statics_report_fails_on_the_statics_verdict():
    # a coarse step leaves four partials 2.5e-3 off, above STATICS_REL_TOL; the worst is named
    done = run_script("statics_report.py", "--step", "0.05", "--skip-discretion")
    assert done.returncode == 2, done.stdout
    assert done.stderr == (
        "certification failed: d_b_max_d_lambda_T rel_error 2.506e-03 > STATICS_REL_TOL 0.0001\n"
    )
    # the signs alone are right, but the printed verdict is the one the exit code reports
    lines = done.stdout.splitlines()
    assert "signs_ok=True" in lines[-3] and "all_ok" not in done.stdout
    assert lines[-1] == "passed=False"
    assert run_script("statics_report.py").stdout.splitlines()[-1] == "passed=True"


def test_statics_report_fails_when_nothing_is_certified():
    # at alpha = 0 the lower cutoff sits on the support's edge: every row is
    # not applicable, and the verdict says so instead of passing
    done = run_script("statics_report.py", "--alpha", "0", "--skip-discretion")
    assert done.returncode == 2, done.stdout
    assert done.stderr == "certification failed: no partial was certified\n"
    assert done.stdout.count("[not-applicable]") == 7
    assert done.stdout.splitlines()[-1] == "passed=False"
