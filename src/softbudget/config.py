"""Strict JSON run configuration.

A run is described by one JSON document with up to seven blocks::

    {
      "distribution": {"kind": "weibull", "shape": 2.0, "scale": 1.0},
      "cost":         {"kind": "quadratic", "alpha": 0.2, "kappa": 1.0},
      "weights":      {"omega_T": 1.0, "omega_b": 0.8, "gamma": 1.0, "b_bar": 0.8},
      "discretion":   {"enabled": false, "m": 0.0, "chi": 1.0,
                       "tol": 1e-8, "max_iter": 1000},
      "simulation":   {"n": 200000, "seed": 12345, "bins": 30},
      "grid":         {"size": 4097, "truncation_quantile": 0.9999999999},
      "output":       {"directory": "out", "formats": ["csv", "json"]}
    }

``distribution``, ``cost``, and ``weights`` are required; the rest default
as above.  The schema is strict: unknown keys anywhere are rejected, and
every problem found is reported in a single aggregated error so a bad
config never needs more than one round trip to fix.

Distribution kinds: ``weibull`` (shape, scale), ``exponential`` (rate),
``uniform`` (lower, upper), ``tabulated`` (theta, density),
``truncated`` (base, lower, upper) with a weibull, exponential or uniform
base, ``point`` (value).  Cost kinds:
``quadratic`` (alpha, kappa) and ``tabulated`` (payout, marginal).
``omega_b`` is a number or a table {"theta": [...], "value": [...]}.

Size fields are bounded so that a typo cannot ask for arrays beyond
memory: ``grid.size`` lies in [17, 16777217] (2**24 + 1 nodes),
``simulation.n`` in [1000, 100000000] and ``simulation.bins`` in
[2, 100000].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional

from .costs import QuadraticCost, RescueCost, TabulatedCost
from .distributions import (
    Exponential,
    PointMass,
    Tabulated,
    Truncated,
    TypeDistribution,
    Uniform,
    Weibull,
)
from .errors import ConfigError, ParameterError, SoftBudgetError
from .primitives import PolicyPrimitives, WeightCurve

__all__ = ["DiscretionSettings", "SimulationSettings", "GridSettings", "OutputSettings", "RunConfig", "load_config", "parse_config"]

DEFAULT_TRUNCATION_QUANTILE = 1.0 - 1e-10
MAX_GRID_SIZE = 2**24 + 1
MAX_SAMPLES = 100_000_000
MAX_BINS = 100_000


@dataclass(frozen=True)
class DiscretionSettings:
    enabled: bool = False
    tol: float = 1e-8
    max_iter: int = 1000


@dataclass(frozen=True)
class SimulationSettings:
    n: int = 200_000
    seed: int = 12345
    bins: int = 30


@dataclass(frozen=True)
class GridSettings:
    size: int = 4097
    truncation_quantile: float = DEFAULT_TRUNCATION_QUANTILE

    @property
    def tail_mass(self) -> float:
        return 1.0 - self.truncation_quantile


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"
    formats: tuple = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with all domain objects constructed."""

    dist: TypeDistribution
    cost: RescueCost
    prim: PolicyPrimitives
    discretion: DiscretionSettings
    simulation: SimulationSettings
    grid: GridSettings
    output: OutputSettings


class _Reader:
    """Tracks consumed keys and accumulates problems for one block."""

    def __init__(self, block: str, data: dict, problems: list):
        self.block = block
        self.data = data
        self.problems = problems
        self.seen = set()

    def _note(self, key: str, message: str):
        self.problems.append(f"{self.block}.{key}: {message}")

    def take(self, key: str, kind, required: bool = False, default=None, check=None, describe: str = ""):
        self.seen.add(key)
        if key not in self.data:
            if required:
                self._note(key, "missing required field")
            return default
        value = self.data[key]
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                self._note(key, f"expected a number, got {type(value).__name__}")
                return default
            value = _finite_float(value)
            if value is None:
                self._note(key, "must be finite")
                return default
        elif kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                self._note(key, f"expected an integer, got {type(value).__name__}")
                return default
        elif kind is bool:
            if not isinstance(value, bool):
                self._note(key, f"expected a boolean, got {type(value).__name__}")
                return default
        elif kind is str:
            if not isinstance(value, str):
                self._note(key, f"expected a string, got {type(value).__name__}")
                return default
        elif kind is list:
            if not isinstance(value, list):
                self._note(key, f"expected an array, got {type(value).__name__}")
                return default
        elif kind is None:
            pass
        if check is not None and not check(value):
            self._note(key, describe or "failed validation")
            return default
        return value

    def finish(self):
        unknown = set(self.data) - self.seen
        for key in sorted(unknown):
            self._note(key, "unknown key")


def _finite_float(value) -> Optional[float]:
    """A JSON number as a finite float, or None (an integer beyond float range overflows)."""
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _number_list(reader: _Reader, key: str, required: bool = True):
    raw = reader.take(key, list, required=required)
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


def _build_distribution(block: dict, problems: list) -> Optional[TypeDistribution]:
    reader = _Reader("distribution", block, problems)
    kind = reader.take("kind", str, required=True)
    built = None
    try:
        if kind == "weibull":
            shape = reader.take("shape", float, required=True)
            scale = reader.take("scale", float, required=True)
            reader.finish()
            if shape is not None and scale is not None:
                built = Weibull(shape, scale)
        elif kind == "exponential":
            rate = reader.take("rate", float, required=True)
            reader.finish()
            if rate is not None:
                built = Exponential(rate)
        elif kind == "uniform":
            lower = reader.take("lower", float, required=True)
            upper = reader.take("upper", float, required=True)
            reader.finish()
            if lower is not None and upper is not None:
                built = Uniform(lower, upper)
        elif kind == "tabulated":
            theta = _number_list(reader, "theta")
            density = _number_list(reader, "density")
            reader.finish()
            if theta is not None and density is not None:
                built = Tabulated(theta, density)
        elif kind == "truncated":
            base_block = reader.take("base", None, required=True)
            lower = reader.take("lower", float, required=True)
            upper = reader.take("upper", float, required=True)
            reader.finish()
            base = None
            if isinstance(base_block, dict):
                base = _build_distribution(base_block, problems)
            elif base_block is not None:
                problems.append("distribution.base: expected an object")
            if base is not None and lower is not None and upper is not None:
                built = Truncated(base, lower, upper)
        elif kind == "point":
            value = reader.take("value", float, required=True)
            reader.finish()
            if value is not None:
                built = PointMass(value)
        elif kind is not None:
            problems.append(f"distribution.kind: unknown kind {kind!r}")
            reader.finish()
        else:
            reader.finish()
    except SoftBudgetError as exc:
        problems.append(f"distribution: {exc}")
    return built


def _build_cost(block: dict, problems: list) -> Optional[RescueCost]:
    reader = _Reader("cost", block, problems)
    kind = reader.take("kind", str, required=True)
    built = None
    try:
        if kind == "quadratic":
            alpha = reader.take("alpha", float, required=True)
            kappa = reader.take("kappa", float, required=True)
            reader.finish()
            if alpha is not None and kappa is not None:
                built = QuadraticCost(alpha, kappa)
        elif kind == "tabulated":
            payout = _number_list(reader, "payout")
            marginal = _number_list(reader, "marginal")
            reader.finish()
            if payout is not None and marginal is not None:
                built = TabulatedCost(payout, marginal)
        elif kind is not None:
            problems.append(f"cost.kind: unknown kind {kind!r}")
            reader.finish()
        else:
            reader.finish()
    except SoftBudgetError as exc:
        problems.append(f"cost: {exc}")
    return built


def _build_omega_b(value, problems: list):
    if isinstance(value, dict):
        reader = _Reader("weights.omega_b", value, problems)
        theta = _number_list(reader, "theta")
        vals = _number_list(reader, "value")
        reader.finish()
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


def parse_config(document: dict) -> RunConfig:
    """Validate a parsed JSON document and build all domain objects.

    Raises :class:`ConfigError` listing every problem found.
    """
    problems: list = []
    if not isinstance(document, dict):
        raise ConfigError(["top level: expected a JSON object"])
    known_blocks = {"distribution", "cost", "weights", "discretion", "simulation", "grid", "output"}
    for key in sorted(set(document) - known_blocks):
        problems.append(f"{key}: unknown block")
    for block in ("distribution", "cost", "weights"):
        if block not in document:
            problems.append(f"{block}: missing required block")
        elif not isinstance(document[block], dict):
            problems.append(f"{block}: expected an object")
    for block in ("discretion", "simulation", "grid", "output"):
        if block in document and not isinstance(document[block], dict):
            problems.append(f"{block}: expected an object")

    dist = None
    if isinstance(document.get("distribution"), dict):
        dist = _build_distribution(document["distribution"], problems)
    cost = None
    if isinstance(document.get("cost"), dict):
        cost = _build_cost(document["cost"], problems)

    omega_T = omega_b = gamma = b_bar = None
    if isinstance(document.get("weights"), dict):
        reader = _Reader("weights", document["weights"], problems)
        omega_T = reader.take("omega_T", float, required=True)
        reader.seen.add("omega_b")
        if "omega_b" in document["weights"]:
            omega_b = _build_omega_b(document["weights"]["omega_b"], problems)
        else:
            problems.append("weights.omega_b: missing required field")
        gamma = reader.take("gamma", float, required=True)
        b_bar = reader.take("b_bar", float, required=True)
        reader.finish()

    m, chi = 0.0, 1.0
    discretion = DiscretionSettings()
    if isinstance(document.get("discretion"), dict):
        reader = _Reader("discretion", document["discretion"], problems)
        enabled = reader.take("enabled", bool, default=False)
        m = reader.take("m", float, default=0.0)
        chi = reader.take("chi", float, default=1.0)
        tol = reader.take("tol", float, default=1e-8, check=lambda v: v > 0.0, describe="must be positive")
        max_iter = reader.take("max_iter", int, default=1000, check=lambda v: v >= 1, describe="must be >= 1")
        reader.finish()
        discretion = DiscretionSettings(bool(enabled), float(tol), int(max_iter))

    simulation = SimulationSettings()
    if isinstance(document.get("simulation"), dict):
        reader = _Reader("simulation", document["simulation"], problems)
        n = reader.take(
            "n", int, default=200_000, check=lambda v: 1000 <= v <= MAX_SAMPLES,
            describe=f"must lie in [1000, {MAX_SAMPLES}]",
        )
        seed = reader.take("seed", int, default=12345, check=lambda v: 0 <= v < 2**64, describe="must fit in an unsigned 64-bit integer")
        bins = reader.take(
            "bins", int, default=30, check=lambda v: 2 <= v <= MAX_BINS, describe=f"must lie in [2, {MAX_BINS}]"
        )
        reader.finish()
        simulation = SimulationSettings(int(n), int(seed), int(bins))

    grid = GridSettings()
    if isinstance(document.get("grid"), dict):
        reader = _Reader("grid", document["grid"], problems)
        size = reader.take(
            "size", int, default=4097, check=lambda v: 17 <= v <= MAX_GRID_SIZE,
            describe=f"must lie in [17, {MAX_GRID_SIZE}]",
        )
        quantile = reader.take(
            "truncation_quantile", float, default=DEFAULT_TRUNCATION_QUANTILE,
            check=lambda v: 0.5 < v < 1.0, describe="must lie in (0.5, 1)",
        )
        reader.finish()
        grid = GridSettings(int(size), float(quantile))

    output = OutputSettings()
    if isinstance(document.get("output"), dict):
        reader = _Reader("output", document["output"], problems)
        directory = reader.take("directory", str, default="out", check=lambda v: len(v) > 0, describe="must be nonempty")
        formats = reader.take("formats", list, default=["csv", "json"])
        reader.finish()
        fmts = []
        for i, fmt in enumerate(formats if isinstance(formats, list) else []):
            if fmt not in ("csv", "json"):
                problems.append(f"output.formats: element {i} must be 'csv' or 'json'")
            else:
                fmts.append(fmt)
        if isinstance(formats, list) and not formats:
            problems.append("output.formats: must not be empty")
        output = OutputSettings(str(directory), tuple(dict.fromkeys(fmts)) or ("csv", "json"))

    prim = None
    if not problems and None not in (omega_T, omega_b, gamma, b_bar):
        try:
            prim = PolicyPrimitives(omega_T=omega_T, omega_b=omega_b, gamma=gamma, b_bar=b_bar, m=m, chi=chi)
        except ParameterError as exc:
            problems.append(f"weights/discretion: {exc}")

    if problems:
        raise ConfigError(problems)
    if dist is None or cost is None or prim is None:  # pragma: no cover - guarded above
        raise ConfigError(["configuration incomplete despite passing field validation"])
    return RunConfig(
        dist=dist, cost=cost, prim=prim,
        discretion=discretion, simulation=simulation, grid=grid, output=output,
    )


def load_config(path: str) -> RunConfig:
    """Read, parse, and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path}: not valid UTF-8 ({exc})"]) from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc
    return parse_config(document)
