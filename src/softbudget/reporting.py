"""Deterministic JSON/CSV emission with 10-significant-digit floats.

Every floating-point value in an emitted artifact is printed with ``%.10g``
so golden files are stable across runs and platforms.  The standard json
module cannot be coerced into that format for nested floats without
fragile subclass tricks, so a small serializer is rolled here.  All writes
are atomic: content goes to a temporary file in the destination directory
and is moved into place with ``os.replace``.

CSV rows are rendered in blocks of 4,096.  A row is its key (the first
cell) plus a tail (``,b,ironed,t,flag`` and the line end), and optimal
schedules are mostly plateaus, so most tails repeat the row above.  A tail is
rendered once per run of rows whose other columns are bit-equal (compared
through an unsigned-integer view, so ``-0.0`` and ``0.0`` stay apart; a
column that is not a 1-d bool, integer or float array counts as a change on
every row), and a run is emitted as ``tail.join(keys) + tail``.  The floats
of a numeric column slice are formatted in one ``%`` call, as ``_format_cell``
would format each (``%.10g``, empty when non-finite); other columns go
through ``_format_cell`` cell by cell.  ``write_csvs`` writes several tables
in one walk over the blocks, and a key column that several hold (the type
grid of ``solve``'s two files) is rendered once per block.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Mapping, Sequence

import numpy as np

__all__ = ["format_float", "dumps_json", "write_json", "write_csv", "write_csvs", "atomic_write_text"]


def format_float(x: float) -> str:
    """Render a float with 10 significant digits; non-finite becomes null."""
    if not math.isfinite(x):
        return "null"
    return "%.10g" % x


def _serialize(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            items.append(f"{pad_in}{json.dumps(key)}: {_serialize(value, indent, level + 1)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, Sequence):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad_in}{_serialize(value, indent, level + 1)}" for value in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj, indent: int = 2) -> str:
    return _serialize(obj, indent, 0) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    atomic_write_text(path, dumps_json(obj))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return "%.10g" % v if math.isfinite(v) else ""
    if isinstance(value, str):
        if any(ch in value for ch in ",\"\r\n"):
            return '"' + value.replace('"', '""') + '"'
        return value
    raise TypeError(f"cannot render {type(value).__name__} in CSV")


# rows rendered together; bounds the cells alive at once, and with them the
# writer's peak memory, independently of the row count
_BLOCK_ROWS = 4096


def _numeric(col) -> bool:
    return (isinstance(col, np.ndarray) and col.ndim == 1
            and col.dtype.kind in "biuf" and col.itemsize in (1, 2, 4, 8))


def _cells(col) -> list[str]:
    """The CSV cells of a column slice; the floats of a numeric array in one format call."""
    if not _numeric(col):
        return [_format_cell(v) for v in col]
    values = col.tolist()
    if col.dtype.kind == "b":
        return ["true" if v else "false" for v in values]
    if col.dtype.kind in "iu":
        return list(map(str, values))
    cells = (("%.10g\n" * len(values)) % tuple(values)).split("\n")[:-1]
    for i in np.flatnonzero(~np.isfinite(col)).tolist():
        cells[i] = ""
    return cells


def _run_heads(rest: Sequence[Sequence], n: int) -> np.ndarray:
    """Rows of an ``n``-row block whose ``rest`` columns are not all bit-equal to the row above.

    Row 0 always heads a run.  Columns compare through an unsigned-integer view,
    so ``-0.0`` and ``0.0`` differ; a column that is not numeric differs on every row.
    """
    if not all(map(_numeric, rest)):
        return np.arange(n)
    change = np.zeros(n - 1, dtype=bool)
    for col in rest:
        bits = col.view(f"u{col.itemsize}")
        change |= bits[1:] != bits[:-1]
    return np.concatenate(([0], np.flatnonzero(change) + 1))


def _row_count(header: Sequence[str], columns: Sequence[Sequence]) -> int:
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError("columns must share a length")
    return lengths.pop() if lengths else 0


def write_csvs(tables: Sequence[tuple[str, Sequence[str], Sequence[Sequence]]]) -> None:
    """Write ``(path, header, columns)`` tables; a first column shared by several renders once per block.

    Every table is checked before any file is written.
    """
    counts = [_row_count(header, columns) for _, header, columns in tables]
    texts = [[",".join(map(_format_cell, header)) + "\n"] for _, header, _ in tables]
    for start in range(0, max(counts, default=0), _BLOCK_ROWS):
        keys: dict[int, list[str]] = {}  # id(first column) -> its cells in this block
        for (_, _, columns), n, text in zip(tables, counts, texts):
            if start >= n:
                continue
            key, *rest = columns
            if id(key) not in keys:
                keys[id(key)] = _cells(key[start : start + _BLOCK_ROWS])
            cells = keys[id(key)]
            rest = [col[start : start + _BLOCK_ROWS] for col in rest]
            heads = _run_heads(rest, len(cells))
            if len(heads) < len(cells):
                rest = [col[heads] for col in rest]
            tails = [",".join(row) + "\n" for row in zip([""] * len(heads), *map(_cells, rest))]
            bounds = heads.tolist() + [len(cells)]
            text.append("".join([tail.join(cells[a:b]) + tail for tail, a, b in zip(tails, bounds, bounds[1:])]))
    for (path, _, _), text in zip(tables, texts):
        atomic_write_text(path, "".join(text))


def write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write columns of equal length under ``header``, floats at %.10g."""
    write_csvs([(path, header, columns)])
