"""Golden artifacts: the checked-in outputs of ``configs/*.json`` must reproduce byte for byte.

Acceptance criterion 10 compares two runs of the same code; this test pins
the bytes themselves, so a change to the solver or the writers that alters
any artifact fails here.  Each golden directory holds what its command
sequence leaves behind when run on its config into one output directory
(``summary.json`` is the last command's summary).  Between them the sets
cover every artifact each config produces: ``solve`` and ``simulate`` run
on all three configs.  The ``pooled`` config, a bimodal tabulated density
whose hazard falls between the modes, is the one whose virtual weight
pools (1,882 of its 4,097 nodes), so its set pins the ironing.  After an
intended change to the artifacts, regenerate the directories with the same
sequences.
"""

from pathlib import Path

import pytest

from softbudget.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# golden directory -> (config under configs/<name>_benchmark.json, commands)
SEQUENCES = {
    "commitment": ("commitment", ("solve", "knife-edge")),
    "commitment_simulate": ("commitment", ("simulate",)),
    "discretion": ("discretion", ("discretion", "statics", "simulate", "oracle")),
    "discretion_solve": ("discretion", ("solve",)),
    "pooled": ("pooled", ("solve", "simulate")),
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_golden_artifacts_reproduce(name, tmp_path):
    config_name, commands = SEQUENCES[name]
    config = ROOT / "configs" / f"{config_name}_benchmark.json"
    for command in commands:
        assert main([command, "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for file_name in expected:
        assert (tmp_path / file_name).read_bytes() == (GOLDEN / name / file_name).read_bytes(), file_name
