"""Deterministic JSON/CSV emission with 10-significant-digit floats.

Every floating-point value in an emitted artifact is printed with ``%.10g``
so golden files are stable across runs and platforms.  The standard json
module cannot be coerced into that format for nested floats without
fragile subclass tricks, so a small serializer is rolled here.  All writes
are atomic: content goes to a temporary file in the destination directory
and is moved into place with ``os.replace``.

CSV rows are formatted in blocks of 4,096, a whole column of the block at
a time.  A 1-d numpy column of bools, integers or finite floats is turned
into Python values at once (``ndarray.tolist()``) and each row is rendered
by one ``%``-template whose conversions are ``%s`` for ``true``/``false``,
``%d`` for integers and ``%.10g`` for floats.  Those are the conversions
``_format_cell`` applies to a single cell, and ``tolist()`` yields the
same Python ``float``/``int``/``bool`` that ``float(cell)``/``int(cell)``
would, so the bytes do not change.  Every other column (lists, object
arrays, ``None`` cells, floats with NaN or infinities) goes through
``_format_cell`` one cell at a time, still column by column.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Mapping, Sequence

import numpy as np

__all__ = ["format_float", "dumps_json", "write_json", "write_csv", "atomic_write_text"]


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
        if any(ch in value for ch in ",\"\n"):
            return '"' + value.replace('"', '""') + '"'
        return value
    raise TypeError(f"cannot render {type(value).__name__} in CSV")


# rows formatted together; bounds the Python values alive at once, and with
# them the writer's peak memory, independently of the row count
_BLOCK_ROWS = 4096


def _column_cells(col) -> tuple[str, list]:
    """Row-template conversion and per-row values for one CSV column."""
    if isinstance(col, np.ndarray) and col.ndim == 1:
        kind = col.dtype.kind
        if kind == "b":
            return "%s", ["true" if v else "false" for v in col.tolist()]
        if kind in "iu":
            return "%d", col.tolist()
        if kind == "f" and bool(np.all(np.isfinite(col))):
            return "%.10g", col.tolist()
    return "%s", [_format_cell(v) for v in col]


def _csv_block(columns: Sequence[Sequence]) -> str:
    """Data lines of one block of rows, one row template applied per row."""
    conversions, cells = zip(*(_column_cells(col) for col in columns))
    row = ",".join(conversions)
    return "\n".join([row % values for values in zip(*cells)])


def write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write columns of equal length under ``header``, floats at %.10g."""
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    lengths = {len(col) for col in columns}
    if len(columns) and len(lengths) != 1:
        raise ValueError("columns must share a length")
    n = lengths.pop() if lengths else 0
    lines = [",".join(header)]
    for start in range(0, n, _BLOCK_ROWS):
        lines.append(_csv_block([col[start : start + _BLOCK_ROWS] for col in columns]))
    atomic_write_text(path, "\n".join(lines) + "\n")
