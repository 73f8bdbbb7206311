import csv
import os
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softbudget import cli, reporting
from softbudget.reporting import _BLOCK_ROWS, _format_cell, write_csv, write_csvs
from conftest import ROOT


def reference_csv(header, columns):
    """The cell-by-cell rendering: one ``_format_cell`` call per cell, row by row."""
    n = len(columns[0]) if len(columns) else 0
    lines = [",".join(map(_format_cell, header))]
    for i in range(n):
        lines.append(",".join(_format_cell(col[i]) for col in columns))
    return "\n".join(lines) + "\n"


def lines(text):
    """Compare long texts as line lists: a failure then names the first differing line quickly."""
    return text.split("\n")


def written(tmp_path, header, columns):
    path = tmp_path / "t.csv"
    write_csv(str(path), header, columns)
    return path.read_bytes().decode("utf-8")


MIXED = {
    "finite": np.array([0.1, 1.0 / 3.0, -2.5e-300, 1.23456789012345e17, 7.0, 1e-7]),
    "nonfinite": np.array([np.nan, 1.0, np.inf, -np.inf, 0.5, 2.0 / 3.0]),
    "negzero": np.array([-0.0, 0.0, -0.0, 1.0, -1e-320, 3.0]),
    "float32": np.array([0.1, 1.0 / 3.0, -7.25, 16777217.0, 1e-30, 2.0], dtype=np.float32),
    "float32_nan": np.array([0.1, np.nan, 1.0, 2.0, 3.0, np.inf], dtype=np.float32),
    "bool": np.array([True, False, False, True, True, False]),
    "int64": np.array([0, -1, 2**62, 7, -(2**40), 3], dtype=np.int64),
    "uint8": np.array([0, 1, 2, 255, 4, 5], dtype=np.uint8),
    "strided": np.array([[0.5, 1.0], [0.5, 2.0], [-0.0, 3.0], [0.0, 4.0], [0.0, 5.0], [7.0, 6.0]])[:, 0],
    "big_endian": np.array([0.25, 0.25, -0.0, 0.0, np.nan, 1e300], dtype=">f8"),
    "strings": ["plain", "with,comma", 'say "hi"', "two\nlines", "", "ok"],
    "none_floats": [None, 0.25, None, float("nan"), 1e30, -0.0],
    "mixed_list": [True, 3, np.float64(0.5), np.int32(-4), "x", None],
    "object": np.array([None, 1.5, "a,b", False, np.inf, 2], dtype=object),
}


def test_write_csv_matches_cell_by_cell_rendering(tmp_path):
    header = list(MIXED)
    columns = list(MIXED.values())
    assert written(tmp_path, header, columns) == reference_csv(header, columns)


@pytest.mark.parametrize("name", list(MIXED))
def test_write_csv_single_column_matches(tmp_path, name):
    assert written(tmp_path, [name], [MIXED[name]]) == reference_csv([name], [MIXED[name]])


def test_write_csv_matches_across_row_blocks(tmp_path):
    n = 10_001  # more than two blocks, with a short last one
    x = np.linspace(-1.0, 1.0, n)
    x[5000] = np.nan  # a non-finite value in the middle block only
    columns = [x, x > 0.0, np.arange(n), [f"r{i}" if i % 3 else None for i in range(n)]]
    header = ["x", "pos", "i", "label"]
    # line lists, so a failure names the first differing line without a long string diff
    assert written(tmp_path, header, columns).split("\n") == reference_csv(header, columns).split("\n")


def test_write_csv_known_bytes(tmp_path):
    text = written(
        tmp_path,
        ["x", "flag", "n", "note"],
        [np.array([-0.0, np.nan, 0.1]), np.array([True, False, True]), np.array([1, -2, 3]), ["a", None, "b,c"]],
    )
    assert text == 'x,flag,n,note\n-0,true,1,a\n,false,-2,\n0.1,true,3,"b,c"\n'


def test_write_csv_zero_rows(tmp_path):
    columns = [np.array([], dtype=float), np.array([], dtype=bool), []]
    assert written(tmp_path, ["a", "b", "c"], columns) == "a,b,c\n"
    assert written(tmp_path, [], []) == "\n"


def test_write_csv_percent_in_strings_is_literal(tmp_path):
    text = written(tmp_path, ["s", "x"], [["100%", "%d%s"], np.array([1.0, 2.0])])
    assert text == "s,x\n100%,1\n%d%s,2\n"


def test_write_csv_validation(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "a.csv"), ["a", "b"], [np.zeros(2)])
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "a.csv"), ["a", "b"], [np.zeros(2), np.zeros(3)])
    with pytest.raises(TypeError):
        write_csv(str(tmp_path / "a.csv"), ["a"], [np.array([1 + 2j])])


def test_write_csv_run_across_the_block_edge(tmp_path):
    n = 3 * _BLOCK_ROWS + 5
    x = np.zeros(n)
    x[_BLOCK_ROWS - 3 : _BLOCK_ROWS + 7] = 0.25  # one run, split by the block edge
    x[2 * _BLOCK_ROWS :] = 0.5  # a run that starts exactly at an edge and spans the rest
    flag = x > 0.3
    count = (x * 4).astype(np.int64)
    columns = [x, flag, count]
    header = ["x", "flag", "count"]
    assert lines(written(tmp_path, header, columns)) == lines(reference_csv(header, columns))


def test_write_csv_keeps_signed_zeros_and_subnormals_apart(tmp_path):
    tiny = np.nextafter(0.0, 1.0)
    x = np.array([0.0, -0.0, -0.0, 0.0, tiny, tiny, -tiny, 1e-310, 1e-310, 2e-310, -0.0])
    text = written(tmp_path, ["x"], [x])
    assert text == reference_csv(["x"], [x])
    assert text.split("\n")[1:5] == ["0", "-0", "-0", "0"]
    f32 = np.array([0.0, -0.0, 1e-45, 1e-45, -0.0], dtype=np.float32)
    assert written(tmp_path, ["f"], [f32]) == reference_csv(["f"], [f32])


def test_write_csv_nan_payloads_render_empty(tmp_path):
    payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    x = np.array([np.nan, payload, payload, np.inf, -np.inf, -np.inf, 1.0])
    assert written(tmp_path, ["x"], [x]) == "x\n\n\n\n\n\n\n1\n"


@pytest.mark.parametrize("column", [
    np.full(10_001, 0.8),
    np.full(10_001, -0.0),
    np.ones(10_001, dtype=bool),
    np.zeros(10_001, dtype=bool),
    np.full(10_001, -7, dtype=np.int32),
    np.full(10_001, 2**63 + 1, dtype=np.uint64),
], ids=["float", "negzero", "true", "false", "int32", "uint64"])
def test_write_csv_all_equal_column(tmp_path, column):
    assert lines(written(tmp_path, ["c"], [column])) == lines(reference_csv(["c"], [column]))


def run_count(rest, start, stop):
    """Runs of rows in ``[start, stop)`` whose ``rest`` cells all equal the row above's; the first row starts one."""
    change = np.zeros(stop - start - 1, dtype=bool)
    for col in rest:
        change |= col[start + 1 : stop] != col[start : stop - 1]
    return 1 + int(change.sum())


def test_write_csvs_formats_a_shared_key_once_per_block_and_each_tail_once_per_run(tmp_path, monkeypatch):
    n = 2 * _BLOCK_ROWS + 1  # three blocks, the last of one row
    theta = np.linspace(0.0, 1.0, n)
    cap = np.clip(theta, 0.25, 0.35)
    flag = theta > 0.35
    t = np.maximum(0.35 - theta, 0.0)
    formatted = Counter()  # "theta" or "tail" -> values formatted
    cells = reporting._cells

    def counting(col):
        formatted["theta" if np.shares_memory(col, theta) else "tail"] += len(col)
        return cells(col)

    monkeypatch.setattr(reporting, "_cells", counting)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csvs([(str(a), ["theta", "cap", "flag"], [theta, cap, flag]),
                (str(b), ["theta", "t", "flag"], [theta, t, flag])])
    blocks = [(start, min(start + _BLOCK_ROWS, n)) for start in range(0, n, _BLOCK_ROWS)]
    runs_a = sum(run_count([cap, flag], *block) for block in blocks)
    runs_b = sum(run_count([t, flag], *block) for block in blocks)
    assert runs_a + runs_b < n // 2  # the plateaus make long runs
    # theta once per block, not once per table; each table's two tail columns once per run
    assert formatted == Counter({"theta": n, "tail": 2 * runs_a + 2 * runs_b})
    assert lines(a.read_text()) == lines(reference_csv(["theta", "cap", "flag"], [theta, cap, flag]))
    assert lines(b.read_text()) == lines(reference_csv(["theta", "t", "flag"], [theta, t, flag]))


def test_write_csvs_tables_of_different_lengths(tmp_path):
    long = np.arange(_BLOCK_ROWS + 10) * 0.5
    short = np.array([1.5, 1.5, -0.0])
    tables = [
        (tmp_path / "empty.csv", ["e"], [np.array([], dtype=float)]),
        (tmp_path / "long.csv", ["x", "y"], [long, long > 3.0]),
        (tmp_path / "short.csv", ["s", "label"], [short, ["a", "b,c", None]]),
    ]
    write_csvs([(str(path), header, columns) for path, header, columns in tables])
    for path, header, columns in tables:
        assert lines(path.read_text()) == lines(reference_csv(header, columns))
    write_csvs([])


def test_write_csvs_checks_every_table_before_writing(tmp_path):
    good = (str(tmp_path / "good.csv"), ["a"], [np.zeros(2)])
    with pytest.raises(ValueError, match="header and column counts differ"):
        write_csvs([good, (str(tmp_path / "bad.csv"), ["a", "b"], [np.zeros(2)])])
    with pytest.raises(ValueError, match="columns must share a length"):
        write_csvs([good, (str(tmp_path / "bad.csv"), ["a", "b"], [np.zeros(2), np.zeros(3)])])
    assert not any(tmp_path.iterdir())


def read_back(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def test_write_csv_quotes_header_names(tmp_path):
    path = tmp_path / "h.csv"
    write_csv(str(path), ["a,b", "c", 'say "x"'], [np.array([1.0]), np.array([2.0]), ["z"]])
    assert path.read_text() == '"a,b",c,"say ""x"""\n1,2,z\n'
    assert read_back(path) == [["a,b", "c", 'say "x"'], ["1", "2", "z"]]


def test_write_csv_quotes_a_carriage_return(tmp_path):
    path = tmp_path / "cr.csv"
    write_csv(str(path), ["s", "x"], [["x\ry", "plain"], np.array([0.5, 0.5])])
    assert path.read_bytes() == b's,x\n"x\ry",0.5\nplain,0.5\n'
    assert read_back(path) == [["s", "x"], ["x\ry", "0.5"], ["plain", "0.5"]]


def nan_with_bits(bits, dtype):
    return np.array([bits], dtype=f"u{np.dtype(dtype).itemsize}").view(dtype)[0]


# values a column cell can take: signed zeros, subnormals, NaN payloads and infinities
# beside arbitrary floats, so that runs of bit-equal cells and their edges are tested
SPECIAL_F64 = [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan,
               float(nan_with_bits(0x7FF8000000000001, np.float64)), float(nan_with_bits(0xFFF8000000000000, np.float64))]
SPECIAL_F32 = [0.0, -0.0, 1e-45, -1e-45, np.inf, np.nan, nan_with_bits(0x7FC00001, np.float32)]


@st.composite
def csv_column(draw, n):
    """A column of ``n`` cells in runs of repeated values, as a numpy array of one of several dtypes or a list."""
    kind = draw(st.sampled_from(["f8", ">f8", "f4", "bool", "i8", "u1", "str", "list", "object"]))
    value = {
        "f8": st.one_of(st.sampled_from(SPECIAL_F64), st.floats()),
        ">f8": st.one_of(st.sampled_from(SPECIAL_F64), st.floats()),
        "f4": st.one_of(st.sampled_from(SPECIAL_F32), st.floats(width=32)),
        "bool": st.booleans(),
        "i8": st.integers(-(2**63), 2**63 - 1),
        "u1": st.integers(0, 255),
        "str": st.text(alphabet='ab,"\r\n %', max_size=4),
        "list": st.one_of(st.none(), st.sampled_from(SPECIAL_F64), st.floats(), st.booleans(), st.integers()),
        "object": st.one_of(st.none(), st.floats(), st.text(alphabet="a,", max_size=2)),
    }[kind]
    cells = []
    while len(cells) < n:
        cells += [draw(value)] * draw(st.integers(1, 7))
    cells = cells[:n]
    if kind in ("str", "list"):
        return cells
    dtypes = {"f8": np.float64, ">f8": ">f8", "f4": np.float32, "bool": bool, "i8": np.int64, "u1": np.uint8}
    return np.array(cells, dtype=dtypes.get(kind, object))


@st.composite
def csv_tables(draw):
    """One to four tables over a shared pool of columns, in up to three row counts (zero included)."""
    lengths = draw(st.lists(st.integers(0, 23), min_size=1, max_size=3))
    pools = [draw(st.lists(csv_column(n), min_size=1, max_size=4)) for n in lengths]
    tables = []
    for _ in range(draw(st.integers(1, 4))):
        pool = draw(st.sampled_from(pools))
        columns = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5))]
        tables.append(([f"c{i}" for i in range(len(columns))], columns))
    return tables


@given(csv_tables())
@settings(max_examples=300, deadline=None)
def test_write_csvs_matches_cell_by_cell_rendering_across_block_edges(tmp_path_factory, tables):
    directory = tmp_path_factory.mktemp("csvs")
    paths = [directory / f"{i}.csv" for i in range(len(tables))]
    with mock.patch.object(reporting, "_BLOCK_ROWS", 5):  # runs cross many block edges
        write_csvs([(str(path), header, columns) for path, (header, columns) in zip(paths, tables)])
    for path, (header, columns) in zip(paths, tables):
        assert path.read_bytes().decode("utf-8") == reference_csv(header, columns)


@pytest.mark.parametrize("config", ["commitment_benchmark.json", "pooled_benchmark.json"])
def test_solve_csvs_at_benchmark_scale_match_cell_by_cell_rendering(tmp_path, monkeypatch, config):
    tables = []
    monkeypatch.setattr(reporting, "write_csvs", lambda given: tables.extend(given) or write_csvs(given))
    argv = ["solve", "--config", str(ROOT / "configs" / config), "--grid", "65537", "--out", str(tmp_path), "--quiet"]
    assert cli.main(argv) == 0
    assert sorted(os.path.basename(path) for path, _, _ in tables) == ["cap_schedule.csv", "transfers.csv"]
    for path, header, columns in tables:
        assert len(columns[0]) == 65537
        with open(path, encoding="utf-8", newline="") as handle:
            assert lines(handle.read()) == lines(reference_csv(header, columns))


def test_atomic_write_text_removes_its_temporary_file_when_the_write_fails(tmp_path):
    # a lone surrogate cannot be encoded as UTF-8, so the write fails after the temporary file exists
    target = tmp_path / "summary.json"
    target.write_bytes(b"before\n")
    with pytest.raises(UnicodeEncodeError):
        reporting.atomic_write_text(str(target), "after \ud800\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json"]
    assert target.read_bytes() == b"before\n"


def test_dumps_json_writes_empty_containers_inline():
    assert reporting.dumps_json({}) == "{}\n" and reporting.dumps_json([]) == "[]\n"
    assert reporting.dumps_json({"rows": [], "flags": {}}) == '{\n  "rows": [],\n  "flags": {}\n}\n'
