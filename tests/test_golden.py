"""Golden artifacts: the checked-in outputs of ``configs/*.json`` must reproduce byte for byte.

Acceptance criterion 10 compares two runs of the same code; this test pins
the bytes themselves, so a change to the solver or the writers that alters
any artifact fails here.  Each golden directory holds what its command
sequence leaves behind when run into one output directory (``summary.json``
is the last command's summary).  After an intended change to the artifacts,
regenerate the directories with the same sequences.
"""

from pathlib import Path

import pytest

from softbudget.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

SEQUENCES = {
    "commitment": ("solve", "knife-edge"),
    "discretion": ("discretion", "statics", "simulate", "oracle"),
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_golden_artifacts_reproduce(name, tmp_path):
    config = ROOT / "configs" / f"{name}_benchmark.json"
    for command in SEQUENCES[name]:
        assert main([command, "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for file_name in expected:
        assert (tmp_path / file_name).read_bytes() == (GOLDEN / name / file_name).read_bytes(), file_name
