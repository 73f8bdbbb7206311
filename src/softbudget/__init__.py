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

from .config import (
    DiscretionSettings,
    GridSettings,
    OutputSettings,
    RunConfig,
    SimulationSettings,
    load_config,
    parse_config,
)
from .costs import InverseMarginal, QuadraticCost, RescueCost, TabulatedCost
from .discretion import (
    THRESHOLD,
    THRESHOLD_LINEAR_CAP,
    DiscretionSolution,
    SignalRule,
    effective_lambda,
    fixed_point,
    interior_probability,
)
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
    GridMismatchError,
    IllPosedError,
    NumericalError,
    ParameterError,
    SoftBudgetError,
    UnsupportedRuleError,
    UpperSupportError,
)
from .mechanism import (
    CapSchedule,
    KnifeEdgeReport,
    TransferSchedule,
    VirtualWeightCurve,
    caps_from_targets,
    iron_weights,
    knife_edge,
    leader_cost,
    solve_cap,
    transfer_schedule,
    virtual_weight,
)
from .primitives import PolicyPrimitives, WeightCurve
from .simulation import (
    BruteForceReport,
    CapMinReport,
    EffortSolution,
    MCReport,
    PayoutResult,
    RevenueModel,
    capmin_oracle,
    gap_density_at_rule,
    mc_run,
    simulate_payout,
    solve_effort,
    welfare_bruteforce,
)
from .statics import StaticsReport, StaticsRow, analytic_partials, fd_certify, m_sensitivity

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "TypeDistribution", "Weibull", "Exponential", "Uniform", "Truncated", "Tabulated", "PointMass",
    "sample_types", "uniform_stream",
    # costs
    "RescueCost", "QuadraticCost", "TabulatedCost", "InverseMarginal",
    # primitives
    "PolicyPrimitives", "WeightCurve",
    # mechanism
    "VirtualWeightCurve", "CapSchedule", "TransferSchedule", "KnifeEdgeReport",
    "virtual_weight", "iron_weights", "caps_from_targets", "solve_cap",
    "knife_edge", "transfer_schedule", "leader_cost",
    # discretion
    "SignalRule", "DiscretionSolution", "THRESHOLD", "THRESHOLD_LINEAR_CAP",
    "effective_lambda", "interior_probability", "fixed_point",
    # statics
    "StaticsRow", "StaticsReport", "analytic_partials", "fd_certify", "m_sensitivity",
    # simulation
    "MCReport", "PayoutResult", "RevenueModel", "EffortSolution", "CapMinReport", "BruteForceReport",
    "mc_run", "simulate_payout", "gap_density_at_rule", "solve_effort", "capmin_oracle", "welfare_bruteforce",
    # config
    "RunConfig", "DiscretionSettings", "SimulationSettings", "GridSettings", "OutputSettings",
    "parse_config", "load_config",
    # errors
    "SoftBudgetError", "ParameterError", "DomainError", "UpperSupportError", "GridMismatchError",
    "UnsupportedRuleError", "IllPosedError", "NumericalError", "ConfigError",
]
