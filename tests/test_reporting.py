import numpy as np
import pytest

from softbudget.reporting import _format_cell, write_csv


def reference_csv(header, columns):
    """The cell-by-cell rendering: one ``_format_cell`` call per cell, row by row."""
    n = len(columns[0]) if len(columns) else 0
    lines = [",".join(header)]
    for i in range(n):
        lines.append(",".join(_format_cell(col[i]) for col in columns))
    return "\n".join(lines) + "\n"


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
    assert written(tmp_path, header, columns) == reference_csv(header, columns)


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
