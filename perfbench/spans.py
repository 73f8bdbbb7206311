"""Spans and counters around softbudget's public functions, from outside ``src/``.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``softbudget`` module that holds a reference to it (the defining
module and each module that imported the name), so calls made through
any module global are recorded.  ``uninstall`` restores the originals, so
untraced passes run the unmodified program.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span or -1, and ``op`` is the id of the CLI op it belongs
to.  A span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable

# (module, function); the layer is named "<module>.<function>"
TRACED = [
    ("config", "load_config"),
    ("reporting", "write_csv"),
    ("reporting", "atomic_write_text"),
    ("mechanism", "virtual_weight"),
    ("mechanism", "iron_weights"),
    ("mechanism", "solve_cap"),
    ("mechanism", "transfer_schedule"),
    ("mechanism", "leader_cost"),
    ("mechanism", "knife_edge"),
    ("discretion", "fixed_point"),
    ("statics", "fd_certify"),
    ("statics", "m_sensitivity"),
    ("distributions", "sample_types"),
    ("simulation", "mc_run"),
    ("simulation", "capmin_oracle"),
    ("simulation", "welfare_bruteforce"),
]

COMMANDS = ("solve", "knife-edge", "discretion", "statics", "simulate", "oracle")

COUNTERS = (
    "mechanism.virtual_weight.calls",
    "mechanism.virtual_weight.repeats",
    "mechanism.iron_weights.nodes",
    "mechanism.iron_weights.pooled",
    "reporting.write_csv.rows",
    "reporting.bytes",
    "discretion.fixed_point.calls",
    "discretion.fixed_point.evals",
    "discretion.fixed_point.converged",
)


def _virtual_weight_key(bound: inspect.BoundArguments) -> tuple:
    a = bound.arguments
    # the distribution object is shared by every call of one op; its
    # identity stands in for its (possibly array-valued) parameters
    return (id(a["dist"]), repr(a["prim"]), float(a["lambda_T"]), a["grid_size"], a["tail_mass"])


class Tracer:
    """In-memory span and counter recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, Callable]] = []
        self._vw_seen: set = set()

    # -- recording ---------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._vw_seen = set()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, op)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _count(self, name: str, signature, args, kwargs, result) -> None:
        c = self.counters
        if name == "mechanism.virtual_weight":
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = _virtual_weight_key(bound)
            c["mechanism.virtual_weight.calls"] += 1
            if key in self._vw_seen:
                c["mechanism.virtual_weight.repeats"] += 1
            self._vw_seen.add(key)
        elif name == "mechanism.iron_weights":
            c["mechanism.iron_weights.nodes"] += len(result[1])
            c["mechanism.iron_weights.pooled"] += int(result[1].sum())
        elif name == "reporting.write_csv":
            columns = signature.bind(*args, **kwargs).arguments["columns"]
            c["reporting.write_csv.rows"] += len(columns[0]) if len(columns) else 0
        elif name == "reporting.atomic_write_text":
            text = signature.bind(*args, **kwargs).arguments["text"]
            c["reporting.bytes"] += len(text.encode("utf-8"))
        elif name == "discretion.fixed_point":
            c["discretion.fixed_point.calls"] += 1
            c["discretion.fixed_point.evals"] += len(result.trace)
            c["discretion.fixed_point.converged"] += int(result.converged)

    def _wrap(self, name: str, original: Callable) -> Callable:
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            self._count(name, signature, args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in each softbudget module that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "softbudget" or key.startswith("softbudget."))]
        for module_name, function in TRACED:
            original = getattr(sys.modules[f"softbudget.{module_name}"], function)
            wrapper = self._wrap(f"{module_name}.{function}", original)
            for module in modules:
                if getattr(module, function, None) is original:
                    self._patches.append((module, function, original))
                    setattr(module, function, wrapper)

    def uninstall(self) -> None:
        for module, function, original in reversed(self._patches):
            setattr(module, function, original)
        self._patches = []


def self_times(spans: list) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list, counters: dict) -> dict:
    """Per-layer totals for one pass: ``.s``, ``.self_s``, ``.spans`` and counters.

    Every traced layer, CLI command and counter appears, with zeros when it
    recorded nothing, so a missing layer is visible rather than absent.
    """
    out: dict[str, float] = dict.fromkeys(COUNTERS, 0)
    names = [f"{m}.{f}" for m, f in TRACED] + [f"cli.{c}" for c in COMMANDS]
    for name in names:
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.spans"] = 0
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += own
        out[f"{name}.spans"] += 1
    for key, value in counters.items():
        out[key] += value
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def zero_span_layers(totals: dict) -> list[str]:
    return sorted(k[: -len(".spans")] for k, v in totals.items() if k.endswith(".spans") and v == 0)
