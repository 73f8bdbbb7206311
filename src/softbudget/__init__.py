"""Optimal rescue-cap mechanisms under soft budget constraints.

A small research toolkit for two-instrument screening of fiscal-need
types: an ex-ante grant schedule plus a hazard-driven cap on ex-post
rescues.  The library solves the committed mechanism (virtual weights,
ironing, cap and transfer schedules), tests the no-rescue knife edge,
solves the discretionary fixed point for the effective grant weight,
certifies comparative statics against finite differences, and verifies
everything by Monte Carlo and brute-force oracles.  A config-driven CLI
(``softbudget``) emits machine-readable CSV/JSON artifacts.

``mechanism``, ``discretion``, ``statics``, ``simulation`` and
``reporting`` are registered lazily: each is in ``sys.modules`` from the
start but runs on its first attribute access, so a CLI command executes
only the modules it calls.  Their names here resolve through PEP 562.
"""

import importlib.util
import sys

from .config import load_config, parse_config
from .costs import QuadraticCost, TabulatedCost
from .distributions import (
    Exponential, PointMass, Tabulated, Truncated, TypeDistribution, Uniform, Weibull, sample_types, uniform_stream,
)
from .errors import (
    ConfigError, DomainError, IllPosedError, NumericalError, ParameterError, SoftBudgetError, UpperSupportError,
)
from .primitives import PolicyPrimitives, WeightCurve

__version__ = "0.1.0"

# each lazily registered module and the public names it exports here
_LAZY = {
    "mechanism": ("CapSchedule", "virtual_weight", "iron_weights", "solve_cap", "knife_edge", "transfer_schedule",
                  "leader_cost"),
    "discretion": ("SignalRule", "effective_lambda", "interior_probability", "fixed_point"),
    "statics": ("analytic_partials", "fd_certify", "m_sensitivity"),
    "simulation": ("mc_run", "capmin_oracle", "welfare_bruteforce"),
    "reporting": (),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def _register(module: str):
    """Put ``softbudget.<module>`` in ``sys.modules`` unexecuted; its first attribute access runs it."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    sys.modules[spec.name] = lazy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lazy)
    return lazy


mechanism, discretion, statics, simulation, reporting = map(_register, _LAZY)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__all__ = [
    "__version__",
    "TypeDistribution", "Weibull", "Exponential", "Uniform", "Truncated", "Tabulated", "PointMass",  # distributions
    "sample_types", "uniform_stream",
    "QuadraticCost", "TabulatedCost", "PolicyPrimitives", "WeightCurve",  # costs, primitives
    *_HOME,  # mechanism, discretion, statics, simulation
    "parse_config", "load_config",  # config
    "SoftBudgetError", "ParameterError", "DomainError", "UpperSupportError",  # errors
    "IllPosedError", "NumericalError", "ConfigError",
]
