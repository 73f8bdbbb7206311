"""Strict JSON run configuration.

A run is described by one JSON document with up to seven blocks::

    {
      "distribution": {"kind": "weibull", "shape": 2.0, "scale": 1.0},
      "cost":         {"kind": "quadratic", "alpha": 0.2, "kappa": 1.0},
      "weights":      {"omega_T": 1.0, "omega_b": 0.8, "gamma": 1.0, "b_bar": 0.8},
      "discretion":   {"enabled": false, "m": 0.0, "chi": 1.0},
      "simulation":   {"n": 200000, "seed": 12345, "bins": 30},
      "grid":         {"size": 4097},
      "output":       {"directory": "out"}
    }

``distribution``, ``cost``, and ``weights`` are required.  A field left
out of another block takes the default of its settings dataclass below
(``m`` and ``chi`` that of :class:`PolicyPrimitives`, ``enabled`` false),
which names the library's own default where there is one.  The grid
always ends at the ``1 - DEFAULT_TAIL_MASS`` quantile (1e-10 of tail mass)
and the discretionary fixed point is solved at the library's tolerance;
the schema has neither setting.  The schema is strict: unknown and
repeated keys are rejected, and every problem found is reported in a
single aggregated error so a bad config never needs more than one round
trip to fix.

The kinds of ``distribution`` and ``cost`` are the keys of ``_DISTRIBUTIONS``
and ``_COSTS``; each maps to its constructor and the fields passed to it in
order.  A ``truncated`` distribution's ``base`` is a nested distribution
block (a weibull, exponential or uniform one).  ``omega_b`` is a number or
a table {"theta": [...], "value": [...]}.

Size fields are bounded so that a typo cannot ask for arrays beyond
memory: ``grid.size`` lies in [17, 16777217] (2**24 + 1 nodes),
``simulation.n`` in [1000, 100000000] and ``simulation.bins`` in
[2, 100000].  ``load_config`` writes command-line overrides into the
document before validation, so a flag is checked as the field it sets.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .costs import QuadraticCost, RescueCost, TabulatedCost
from .distributions import (
    MAX_SEED,
    Exponential,
    PointMass,
    Tabulated,
    Truncated,
    TypeDistribution,
    Uniform,
    Weibull,
)
from .errors import ConfigError, ParameterError, SoftBudgetError
from .primitives import DEFAULT_BINS, DEFAULT_GRID_SIZE, MIN_SAMPLES, PolicyPrimitives, WeightCurve

__all__ = ["SimulationSettings", "GridSettings", "OutputSettings", "RunConfig", "load_config", "parse_config"]

MAX_GRID_SIZE = 2**24 + 1
MAX_SAMPLES = 100_000_000
MAX_BINS = 100_000

# kind -> (constructor, (field, type), ...); a dict field is a nested block of
# the same table, a list field a list of finite numbers
_DISTRIBUTIONS = {
    "weibull": (Weibull, ("shape", float), ("scale", float)),
    "exponential": (Exponential, ("rate", float)),
    "uniform": (Uniform, ("lower", float), ("upper", float)),
    "tabulated": (Tabulated, ("theta", list), ("density", list)),
    "truncated": (Truncated, ("base", dict), ("lower", float), ("upper", float)),
    "point": (PointMass, ("value", float)),
}
_COSTS = {
    "quadratic": (QuadraticCost, ("alpha", float), ("kappa", float)),
    "tabulated": (TabulatedCost, ("payout", list), ("marginal", list)),
}


@dataclass(frozen=True)
class SimulationSettings:
    n: int = 200_000
    seed: int = 12345
    bins: int = DEFAULT_BINS


@dataclass(frozen=True)
class GridSettings:
    size: int = DEFAULT_GRID_SIZE


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with all domain objects constructed.

    ``discretion`` says whether the config enables discretion; its slope
    ``m`` and weight ``chi`` live in ``prim``.
    """

    dist: TypeDistribution
    cost: RescueCost
    prim: PolicyPrimitives
    discretion: bool
    simulation: SimulationSettings
    grid: GridSettings
    output: OutputSettings


class _Object(dict):
    """A parsed JSON object that remembers the keys it held more than once."""

    duplicates: tuple = ()


def _object(pairs: list) -> _Object:
    obj = _Object(pairs)
    if len(obj) < len(pairs):
        obj.duplicates = tuple(sorted(key for key, count in Counter(k for k, _ in pairs).items() if count > 1))
    return obj


# JSON type each plain field kind accepts, and how a problem names it
_EXPECTED = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    bool: (bool, "a boolean"),
    str: (str, "a string"),
    list: (list, "an array"),
}


class _Reader:
    """Tracks consumed keys and accumulates problems for one block."""

    def __init__(self, block: str, data: dict, problems: list):
        self.block = block
        self.data = data
        self.problems = problems
        self.seen = set()
        for key in getattr(data, "duplicates", ()):
            self._note(key, "duplicate key")

    def _note(self, key: str, message: str):
        self.problems.append(f"{self.block}.{key}: {message}")

    def take(self, key: str, kind, check=None, describe: str = "", required: bool = False):
        """The value at ``key``, or None (noting why) when it is missing or invalid.

        ``kind`` is a key of ``_EXPECTED``, ``None`` for any value, or a
        function ``(reader, value)`` that reads the value and notes its own
        problems.
        """
        self.seen.add(key)
        if key not in self.data:
            if required:
                self._note(key, "missing required field")
            return None
        value = self.data[key]
        if kind is None:
            return value
        if kind not in _EXPECTED:
            return kind(self, value)
        types, name = _EXPECTED[kind]
        if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
            self._note(key, f"expected {name}, got {type(value).__name__}")
            return None
        if kind is float:
            value = _finite_float(value)
            if value is None:
                self._note(key, "must be finite")
                return None
        if check is not None and not check(value):
            self._note(key, describe)
            return None
        return value

    def finish(self):
        for key in sorted(set(self.data) - self.seen):
            self._note(key, "unknown key")


def _finite_float(value) -> Optional[float]:
    """A JSON number as a finite float, or None (an integer beyond float range overflows)."""
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _number_list(reader: _Reader, key: str):
    raw = reader.take(key, list, required=True)
    if raw is None:
        return None
    out = []
    for i, v in enumerate(raw):
        x = None if isinstance(v, bool) or not isinstance(v, (int, float)) else _finite_float(v)
        if x is None:
            reader._note(key, f"element {i} is not a finite number")
            return None
        out.append(x)
    return out


def _build(block: str, kinds: dict, data, problems: list):
    """The object a kind-table block describes, or None when it has problems.

    Fields are read in table order and unknown keys reported before a
    nested block is built, so its problems follow its parent's.  Data that
    is not an object gives None; the caller reports it.
    """
    if not isinstance(data, dict):
        return None
    reader = _Reader(block, data, problems)
    kind = reader.take("kind", str, required=True)
    if kind is not None and kind not in kinds:
        problems.append(f"{block}.kind: unknown kind {kind!r}")
    make, *fields = kinds.get(kind, (None,))
    args = [_number_list(reader, key) if ftype is list
            else reader.take(key, None if ftype is dict else ftype, required=True)
            for key, ftype in fields]
    reader.finish()
    for i, (key, ftype) in enumerate(fields):
        if ftype is dict and key in data:
            if not isinstance(args[i], dict):
                problems.append(f"{block}.{key}: expected an object")
            args[i] = _build(block, kinds, args[i], problems)
    if make is None or any(arg is None for arg in args):
        return None
    try:
        return make(*args)
    except SoftBudgetError as exc:
        problems.append(f"{block}: {exc}")
        return None


def _omega_b(reader: _Reader, value):
    """A constant weight or a :class:`WeightCurve` table, as the ``omega_b`` field reads."""
    problems = reader.problems
    if isinstance(value, dict):
        table = _Reader("weights.omega_b", value, problems)
        theta = _number_list(table, "theta")
        vals = _number_list(table, "value")
        table.finish()
        if theta is None or vals is None:
            return None
        try:
            return WeightCurve(theta, vals)
        except SoftBudgetError as exc:
            problems.append(f"weights.omega_b: {exc}")
            return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append("weights.omega_b: expected a number or a {theta, value} table")
        return None
    number = _finite_float(value)
    if number is None:
        problems.append("weights.omega_b: must be finite")
    return number


def _fields(document: dict, block: str, problems: list, *specs, required: bool = False) -> dict:
    """The valid fields of ``block`` that are present, by key.

    Each spec is ``(key, kind[, check, describe])`` for ``_Reader.take``; a
    block that is absent or not an object (reported elsewhere) gives none.
    """
    data = document.get(block)
    if not isinstance(data, dict):
        return {}
    reader = _Reader(block, data, problems)
    values = {spec[0]: reader.take(*spec, required=required) for spec in specs}
    reader.finish()
    return {key: value for key, value in values.items() if value is not None}


_BLOCKS = ("distribution", "cost", "weights", "discretion", "simulation", "grid", "output")
_REQUIRED = _BLOCKS[:3]


def parse_config(document: dict) -> RunConfig:
    """Validate a parsed JSON document and build all domain objects.

    Raises :class:`ConfigError` listing every problem found.
    """
    if not isinstance(document, dict):
        raise ConfigError(["top level: expected a JSON object"])
    problems = [f"{key}: duplicate key" for key in getattr(document, "duplicates", ())]
    for key in sorted(set(document) - set(_BLOCKS)):
        problems.append(f"{key}: unknown block")
    for block in _BLOCKS:
        if block not in document:
            if block in _REQUIRED:
                problems.append(f"{block}: missing required block")
        elif not isinstance(document[block], dict):
            problems.append(f"{block}: expected an object")
    dist = _build("distribution", _DISTRIBUTIONS, document.get("distribution"), problems)
    cost = _build("cost", _COSTS, document.get("cost"), problems)
    weights = _fields(document, "weights", problems,
                      ("omega_T", float), ("omega_b", _omega_b), ("gamma", float), ("b_bar", float), required=True)
    behaviour = _fields(document, "discretion", problems, ("enabled", bool), ("m", float), ("chi", float))
    enabled = behaviour.pop("enabled", False)
    simulation = _fields(
        document, "simulation", problems,
        ("n", int, lambda v: MIN_SAMPLES <= v <= MAX_SAMPLES, f"must lie in [{MIN_SAMPLES}, {MAX_SAMPLES}]"),
        ("seed", int, lambda v: 0 <= v <= MAX_SEED, "must fit in an unsigned 64-bit integer"),
        ("bins", int, lambda v: 2 <= v <= MAX_BINS, f"must lie in [2, {MAX_BINS}]"),
    )
    grid = _fields(document, "grid", problems,
                   ("size", int, lambda v: 17 <= v <= MAX_GRID_SIZE, f"must lie in [17, {MAX_GRID_SIZE}]"))
    output = _fields(document, "output", problems, ("directory", str, lambda v: len(v) > 0, "must be nonempty"))

    if not problems:
        try:
            prim = PolicyPrimitives(**weights, **behaviour)
        except ParameterError as exc:
            problems.append(f"weights/discretion: {exc}")
    if problems:
        raise ConfigError(problems)
    return RunConfig(
        dist=dist, cost=cost, prim=prim,
        discretion=enabled, simulation=SimulationSettings(**simulation),
        grid=GridSettings(**grid), output=OutputSettings(**output),
    )


def load_config(path: str, overrides: Optional[dict] = None) -> RunConfig:
    """Read, parse, and validate a JSON config file.

    ``overrides`` maps ``(block, key)`` to a value written into the document
    before validation (a None value writes nothing), so an override is
    checked, and reported, as the field it sets.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path}: not valid UTF-8 ({exc})"]) from exc
    try:
        document = json.loads(text, object_pairs_hook=_object)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep to decode
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc
    for (block, key), value in (overrides or {}).items():
        if value is not None and isinstance(document, dict) and isinstance(document.setdefault(block, {}), dict):
            document[block][key] = value
    return parse_config(document)
