"""The benchmark tracer's view of the package: what ``perfbench/spans.py`` patches and binds.

The tracer wraps the functions listed in ``TRACED`` by name and reads some
of their arguments by parameter name.  A rename in ``src/`` would leave a
layer with no spans, or a counter at zero, without failing a benchmark
run; these tests make it fail here instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
