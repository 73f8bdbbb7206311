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
