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
every row), and a run is emitted as ``tail.join(keys) + tail``.  Non-numeric
columns go through ``_format_cell`` cell by cell.  ``write_csvs`` writes
several tables in one walk over the blocks, and a key column that several
hold (the type grid of ``solve``'s two files) is rendered once per block.

A float cell reads as ``_format_cell`` gives it: ``%.10g``, empty when not
finite.  A slice of ``_VECTOR_CELLS`` floats or more is rendered in numpy
where |x| is in [1e-4, 1e10), the range in which ``%.10g`` prints fixed-point:
with X = floor(log10|x|), s = |x| * 10**(9 - X) is one rounding from the exact
product (the power is exact, 9 - X <= 13) and errs by under 1e-6 below 1e10,
so where s is in [1e9, 1e10), at least 1e-5 from a half and does not round to
1e10, its nearest integer holds the ten digits that ``%`` prints.  Their text
is laid out in two 64-bit words, the point placed by X, trailing zeros cut and
the sign in front, and read off as UCS-4; zeros print as ``0`` and ``-0``.
Every other cell, and every shorter slice, takes one ``%`` call, the reference.
"""

from __future__ import annotations

import functools
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


def _serialize(obj, pad: str = "") -> str:
    pad_in = pad + "  "
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
            items.append(f"{pad_in}{json.dumps(key)}: {_serialize(value, pad_in)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, Sequence):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad_in}{_serialize(value, pad_in)}" for value in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj) -> str:
    return _serialize(obj) + "\n"


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
# float slices this long or longer are rendered in numpy; shorter ones cost less in one % call
_VECTOR_CELLS = 400
_U64 = np.uint64


@functools.cache
def _tables():
    """``_fixed_cells``'s tables, built on its first call: the ASCII of each four-digit group, first digit
    lowest, and its trailing zeros; the scale 10**(9 - X) per X + 4; per 2(X + 4) + sign, the sign and the
    text between the digits before the point and the rest ("." or "0.000"[:gap]); and the masks of the
    first k bytes.  128-bit values are kept as rows of low and high words."""
    place = [np.arange(10, dtype=np.uint32).reshape([-1 if j == k else 1 for j in range(4)]) for k in range(4)]
    z = [(d == 0).astype(np.int8) for d in place]
    words = lambda ints: np.array([[v % 2**64 for v in ints], [v >> 64 for v in ints]], dtype=_U64)  # 128-bit
    fill = [int.from_bytes(sign + (b"0.000"[: 1 - x] if x < 0 else bytes(x + 1) + b"."), "little")
            for x in range(-4, 10) for sign in (b"", b"-")]
    return (sum((d + 48) << (8 * k) for k, d in enumerate(place)).ravel(),
            (z[3] * (1 + z[2] * (1 + z[1] * (1 + z[0])))).ravel(), np.array([float(10 ** (9 - x)) for x in range(-4, 10)]),
            words(fill), words([2 ** (8 * k) - 1 for k in range(17)]))


def _fixed_cells(col: np.ndarray) -> list[str]:
    """``_percent_cells(col)``, its fixed-point cells rendered in numpy as the module docstring says."""
    quad, zeros, scale, fill, low = _tables()
    x = np.asarray(col, dtype=np.float64)  # the values tolist() gives
    # each temporary is freed once read: with few alive at a time, the heap grows no more than on the % path
    with np.errstate(all="ignore"):  # 0, inf and NaN fail ok
        s = np.abs(x)
        e = (np.fmax(np.fmin(np.floor(np.log10(s)), 9.0), -4.0) + 4.0).astype(np.intp)  # X + 4
        s *= scale[e]
        n = np.rint(s)
        ok = (np.abs(s - n) < 0.5 - 1e-5) & (s >= 1e9) & (n < 1e10)
    del s
    ok |= (zero := x == 0)
    e[zero] = 4  # laid out as X = 0 and cut after the first digit
    n = np.where(ok, n, 1e9).astype(np.int64)
    top, b, c = n // 10**8, n // 10_000 % 10_000, n % 10_000  # the ten digits: two, then four and four
    del n
    neg = np.signbit(x)
    sign = neg * _U64(8)  # the digits as text, first byte lowest, after a byte for the sign if negative
    lo = ((quad[top] >> _U64(16)) << sign) | (quad[b] << (sign + _U64(16))) | (quad[c] << (sign + _U64(48)))
    hi = quad[c] >> (_U64(16) - sign)
    digits = 10 - zeros[c] - (c == 0) * (zeros[b] + (b == 0) * zeros[top])  # up to the last nonzero one
    del top, b, c, sign
    head, gap = np.maximum(e - 3, 0), np.maximum(5 - e, 1)  # digits before the point; "." or "0.000"[:gap]
    head_lo, head_hi = lo & low[0][head + neg], hi & low[1][head + neg]
    lo ^= head_lo  # the digits after the point, moved up past the gap as one 128-bit integer
    hi ^= head_hi
    hi[:] = (hi << (bits := 8 * gap.astype(_U64))) | ((lo >> _U64(1)) >> (_U64(63) - bits))
    lo <<= bits
    lo |= head_lo | fill[0][2 * e + neg]
    hi |= head_hi | fill[1][2 * e + neg]
    del head_lo, head_hi, e
    digits = np.maximum(digits, head) + (digits > head) * gap + neg  # the length of the text
    w = np.stack([lo & low[0][digits], hi & low[1][digits]], axis=1).astype("<u8", copy=False)
    del lo, hi, digits, head, gap
    cells = []
    for i in range(0, x.size, 1024):  # read off in 64 KB pieces of UCS-4
        cells += w[i : i + 1024].view(np.uint8).astype(np.uint32).view("U16").ravel().tolist()
    rest = np.flatnonzero(~ok)
    for i, cell in zip(rest.tolist(), _percent_cells(x[rest])):
        cells[i] = cell
    return cells


def _percent_cells(col: np.ndarray) -> list[str]:
    """``%.10g`` of each float of ``col`` in one % call, empty when non-finite, as ``_format_cell``."""
    values = col.tolist()
    cells = (("%.10g\n" * len(values)) % tuple(values)).split("\n")[:-1]
    for i in np.flatnonzero(~np.isfinite(col)).tolist():
        cells[i] = ""
    return cells


def _numeric(col) -> bool:
    return (isinstance(col, np.ndarray) and col.ndim == 1
            and col.dtype.kind in "biuf" and col.itemsize in (1, 2, 4, 8))


def _cells(col) -> list[str]:
    """The CSV cells of a column slice; the floats of a numeric array in numpy or in one format call."""
    if not _numeric(col):
        return [_format_cell(v) for v in col]
    if col.dtype.kind == "f":
        return _fixed_cells(col) if len(col) >= _VECTOR_CELLS else _percent_cells(col)
    values = col.tolist()
    if col.dtype.kind == "b":
        return ["true" if v else "false" for v in values]
    return list(map(str, values))


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
