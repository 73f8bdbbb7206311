"""Deterministic JSON/CSV emission with 10-significant-digit floats.

Every floating-point value in an emitted artifact is printed with ``%.10g``
so golden files are stable across runs and platforms.  The standard json
module cannot be coerced into that format for nested floats without
fragile subclass tricks, so a small serializer is rolled here.  All writes
are atomic: content goes to a temporary file in the destination directory
and is moved into place with ``os.replace``.

CSV rows are rendered in blocks of 4,096, a whole column of the block at a
time, and each value is formatted once.  A 1-d numpy column of bools,
integers or floats is split into runs of bit-equal values (compared through
an unsigned-integer view, so ``-0.0`` and ``0.0`` stay apart); each run head
becomes one Python value (``ndarray.tolist()``), is formatted as
``_format_cell`` would format it (``true``/``false``, ``str`` of the int,
``%.10g`` or empty for a non-finite float) and is repeated over its run.
Optimal schedules are mostly plateaus, so most cells repeat the one above.
Every other column (lists, object arrays, ``None`` cells, long doubles)
goes through ``_format_cell`` one cell at a time.

``write_csvs`` writes several tables in one walk over the blocks, and a
column object that several of its tables hold is rendered once per block:
``solve``'s two files share the type grid, the transfers and the binding
flags.  Shared cells are kept for the current block only.  Keeping a shared
column's cells for a whole file would hold a string object per row at once;
per block, the cells alive stay bounded by the block size.
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
        if any(ch in value for ch in ",\"\n"):
            return '"' + value.replace('"', '""') + '"'
        return value
    raise TypeError(f"cannot render {type(value).__name__} in CSV")


# rows rendered together; bounds the cells alive at once, and with them the
# writer's peak memory, independently of the row count
_BLOCK_ROWS = 4096


def _render(col) -> list[str]:
    """Cells of one block of one CSV column, each distinct run formatted once."""
    if not (isinstance(col, np.ndarray) and col.ndim == 1
            and col.dtype.kind in "biuf" and col.itemsize in (1, 2, 4, 8)):
        return [_format_cell(v) for v in col]
    bits = col.view(f"u{col.itemsize}")
    change = bits[1:] != bits[:-1]
    heads = np.concatenate(([0], np.flatnonzero(change) + 1))
    values = col[heads]
    kind = col.dtype.kind
    if kind == "b":
        cells = ["true" if v else "false" for v in values.tolist()]
    elif kind in "iu":
        cells = [str(v) for v in values.tolist()]
    else:
        cells = ["%.10g" % v for v in values.tolist()]
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            cells[i] = ""
    if heads.size == col.size:
        return cells
    runs = np.concatenate(([0], np.cumsum(change)))
    return np.array(cells, dtype=object)[runs].tolist()


def _row_count(header: Sequence[str], columns: Sequence[Sequence]) -> int:
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError("columns must share a length")
    return lengths.pop() if lengths else 0


def write_csvs(tables: Sequence[tuple[str, Sequence[str], Sequence[Sequence]]]) -> None:
    """Write ``(path, header, columns)`` tables; a column shared by several renders once per block.

    Every table is checked before any file is written.
    """
    counts = [_row_count(header, columns) for _, header, columns in tables]
    lines = [[",".join(header)] for _, header, _ in tables]
    for start in range(0, max(counts, default=0), _BLOCK_ROWS):
        rendered: dict[int, list[str]] = {}  # id(column) -> its cells in this block
        for (_, _, columns), n, table_lines in zip(tables, counts, lines):
            if start >= n:
                continue
            cells = []
            for col in columns:
                if id(col) not in rendered:
                    rendered[id(col)] = _render(col[start : start + _BLOCK_ROWS])
                cells.append(rendered[id(col)])
            table_lines.append("\n".join(map(",".join, zip(*cells))))
    for (path, _, _), table_lines in zip(tables, lines):
        atomic_write_text(path, "\n".join(table_lines) + "\n")


def write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write columns of equal length under ``header``, floats at %.10g."""
    write_csvs([(path, header, columns)])
