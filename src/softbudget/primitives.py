"""Policy primitives: welfare weights, cap bound, and the ex-post rescue rule.

A :class:`PolicyPrimitives` bundle collects everything about the policy
environment that is not the type distribution or the cost technology:

* ``omega_T``   -- welfare weight on transfer resources,
* ``omega_b``   -- weight on rescue payouts; either a constant or a
  nondecreasing tabulated curve over types (heavier weight on needier
  governments preserves monotone cap schedules),
* ``gamma``     -- shadow price of public funds on the authority's side,
* ``b_bar``     -- hard upper bound on any rescue cap,
* ``m``         -- reduced-form sensitivity of the ex-post rescue rule to
  interior types (enters the discretionary fixed point),
* ``chi``       -- weight on period-2 recipient welfare in the ex-post
  rescue problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ParameterError

__all__ = ["WeightCurve", "PolicyPrimitives"]

# solver defaults that ``config`` reads; ``mechanism`` and ``simulation`` re-export them
DEFAULT_GRID_SIZE = 4097  # type-grid nodes
DEFAULT_TAIL_MASS = 1e-10  # survivor mass cut off the top of an unbounded support
DEFAULT_BINS = 30  # Monte Carlo bins
MIN_SAMPLES = 1000  # fewest Monte Carlo draws


class WeightCurve:
    """Nondecreasing tabulated welfare weight over types.

    Evaluation clamps to the end values outside the tabulated range, so the
    curve is defined (and finite) on any type support.
    """

    def __init__(self, theta, value):
        nodes = np.asarray(theta, dtype=float)
        vals = np.asarray(value, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2 or nodes.shape != vals.shape:
            raise ParameterError("weight curve needs matching 1-d theta and value arrays (>= 2 nodes)")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(vals))):
            raise ParameterError("weight curve nodes must be finite")
        if np.any(np.diff(nodes) <= 0.0):
            raise ParameterError("weight curve theta grid must be strictly increasing")
        if np.any(vals <= 0.0):
            raise ParameterError("weight curve values must be positive")
        if np.any(np.diff(vals) < 0.0):
            raise ParameterError("weight curve must be nondecreasing in theta")
        self.nodes = nodes
        self.values = vals

    def __call__(self, theta):
        arr = np.asarray(theta, dtype=float)
        out = np.interp(arr, self.nodes, self.values)
        return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class PolicyPrimitives:
    """Validated bundle of welfare weights, cap bound and the ex-post rule's m and chi."""

    omega_T: float
    omega_b: Union[float, WeightCurve]
    gamma: float
    b_bar: float
    m: float = 0.0
    chi: float = 1.0

    def __post_init__(self):
        for name in ("omega_T", "gamma", "b_bar", "chi"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ParameterError(f"{name} must be positive and finite")
        if not (0.0 <= self.m < 1.0):
            raise ParameterError("m must lie in [0, 1)")
        if isinstance(self.omega_b, WeightCurve):
            return
        # zero is allowed: it switches the rescue channel off entirely
        if not (isinstance(self.omega_b, (int, float)) and math.isfinite(self.omega_b) and self.omega_b >= 0.0):
            raise ParameterError("omega_b must be nonnegative and finite (or a WeightCurve)")

    @property
    def omega_b_constant(self) -> bool:
        return not isinstance(self.omega_b, WeightCurve)

    def omega_b_at(self, theta):
        """Rescue weight evaluated at the given type(s)."""
        if isinstance(self.omega_b, WeightCurve):
            return self.omega_b(theta)
        arr = np.asarray(theta, dtype=float)
        out = np.full_like(arr, float(self.omega_b))
        return float(out) if arr.ndim == 0 else out
