"""Optimal rescue-cap mechanisms under soft budget constraints.

A small research toolkit for two-instrument screening of fiscal-need
types: an ex-ante grant schedule plus a hazard-driven cap on ex-post
rescues.  The library solves the committed mechanism (virtual weights,
ironing, cap and transfer schedules), tests the no-rescue knife edge,
solves the discretionary fixed point for the effective grant weight,
certifies comparative statics against finite differences, and verifies
everything by Monte Carlo and brute-force oracles.  A config-driven CLI
(``softbudget``) emits machine-readable CSV/JSON artifacts.
"""

from .config import load_config, parse_config
from .costs import QuadraticCost, TabulatedCost
from .discretion import SignalRule, effective_lambda, fixed_point, interior_probability
from .distributions import (
    Exponential,
    PointMass,
    Tabulated,
    Truncated,
    TypeDistribution,
    Uniform,
    Weibull,
    sample_types,
    uniform_stream,
)
from .errors import (
    ConfigError,
    DomainError,
    IllPosedError,
    NumericalError,
    ParameterError,
    SoftBudgetError,
    UpperSupportError,
)
from .mechanism import (
    CapSchedule,
    iron_weights,
    knife_edge,
    leader_cost,
    solve_cap,
    transfer_schedule,
    virtual_weight,
)
from .primitives import PolicyPrimitives, WeightCurve
from .simulation import capmin_oracle, mc_run, welfare_bruteforce
from .statics import analytic_partials, fd_certify, m_sensitivity

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "TypeDistribution", "Weibull", "Exponential", "Uniform", "Truncated", "Tabulated", "PointMass",
    "sample_types", "uniform_stream",
    # costs
    "QuadraticCost", "TabulatedCost",
    # primitives
    "PolicyPrimitives", "WeightCurve",
    # mechanism
    "CapSchedule", "virtual_weight", "iron_weights", "solve_cap", "knife_edge", "transfer_schedule", "leader_cost",
    # discretion
    "SignalRule", "effective_lambda", "interior_probability", "fixed_point",
    # statics
    "analytic_partials", "fd_certify", "m_sensitivity",
    # simulation
    "mc_run", "capmin_oracle", "welfare_bruteforce",
    # config
    "parse_config", "load_config",
    # errors
    "SoftBudgetError", "ParameterError", "DomainError", "UpperSupportError",
    "IllPosedError", "NumericalError", "ConfigError",
]
