"""Rescue-cost technologies.

The budget authority pays a convex resource cost C(x) for a rescue payout
x >= 0.  The solver only ever touches the cost through three methods:

* ``marginal``          -- C'(x),
* ``inverse_marginal``  -- the payout: smallest x >= 0 with C'(x) = y, and 0
  for targets at or below C'(0+) (where the nonnegativity constraint binds);
  a float for scalar input,
* ``value``             -- C(x) itself, for expected-cost quadrature.

Two kinds are supported, both inverted in closed form.  The quadratic kind
C(x) = alpha*x + kappa/2 * x^2 inverts to (y - alpha)/kappa.  The tabulated
kind takes (payout, marginal) pairs, models the marginal as piecewise
linear, and inverts on the first segment whose upper node reaches the
target, which is the *leftmost* preimage when the marginal has flat
stretches; it rejects a target that is not finite or lies above its table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "QuadraticCost",
    "TabulatedCost",
    "RescueCost",
]


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class QuadraticCost:
    """C(x) = alpha*x + kappa/2 * x^2 with alpha >= 0, kappa > 0."""

    alpha: float
    kappa: float
    kind: str = field(default="quadratic", init=False)

    def __post_init__(self):
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ParameterError("quadratic cost needs alpha >= 0 and finite")
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise ParameterError("quadratic cost needs kappa > 0 and finite")

    @property
    def marginal_at_zero(self) -> float:
        return self.alpha

    def marginal(self, x):
        arr, scalar = _as_float_array(x)
        _check_nonnegative(arr)
        out = self.alpha + self.kappa * arr
        return float(out) if scalar else out

    def inverse_marginal(self, y):
        arr, scalar = _as_float_array(y)
        x = np.maximum(arr - self.alpha, 0.0) / self.kappa
        return float(x) if scalar else x

    def value(self, x):
        arr, scalar = _as_float_array(x)
        _check_nonnegative(arr)
        out = self.alpha * arr + 0.5 * self.kappa * arr**2
        return float(out) if scalar else out


class TabulatedCost:
    """Piecewise-linear marginal cost given as (payout, marginal) pairs."""

    kind = "tabulated"

    def __init__(self, payout, marginal):
        xs = np.asarray(payout, dtype=float)
        ms = np.asarray(marginal, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or xs.shape != ms.shape:
            raise ParameterError("tabulated cost needs matching 1-d payout and marginal arrays (>= 2 nodes)")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ms))):
            raise ParameterError("tabulated cost nodes must be finite")
        if xs[0] != 0.0:
            raise ParameterError("tabulated cost payout grid must start at 0")
        if np.any(np.diff(xs) <= 0.0):
            raise ParameterError("tabulated cost payout grid must be strictly increasing")
        if ms[0] < 0.0 or np.any(np.diff(ms) < 0.0):
            raise ParameterError("tabulated marginal cost must be nonnegative and nondecreasing")
        self.payout_nodes = xs
        self.marginal_nodes = ms
        # exact integral of the piecewise-linear marginal at each node
        cell = 0.5 * (ms[:-1] + ms[1:]) * np.diff(xs)
        self._value_nodes = np.concatenate([[0.0], np.cumsum(cell)])

    @property
    def marginal_at_zero(self) -> float:
        return float(self.marginal_nodes[0])

    def marginal(self, x):
        arr, scalar = _as_float_array(x)
        _check_nonnegative(arr)
        # constant extension beyond the last node keeps C' nondecreasing
        out = np.interp(arr, self.payout_nodes, self.marginal_nodes)
        return float(out) if scalar else out

    def inverse_marginal(self, y):
        arr, scalar = _as_float_array(y)
        if not np.all(np.isfinite(arr)):
            bad = arr[~np.isfinite(arr)]
            raise ParameterError(f"marginal-cost targets must be finite; {bad.size} are not, the first is {bad[0]}")
        xs, ms = self.payout_nodes, self.marginal_nodes
        if np.any(arr > ms[-1]):
            raise ParameterError(f"marginal-cost target exceeds the tabulated maximum {ms[-1]:.6g}; extend the table")
        # segment i with ms[i - 1] < y <= ms[i]: the first node reaching the
        # target, so a flat stretch at y maps to its left end; targets at or
        # below C'(0) have no such segment and take 0
        i = np.clip(np.searchsorted(ms, arr, side="left"), 1, ms.size - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = xs[i - 1] + (arr - ms[i - 1]) / (ms[i] - ms[i - 1]) * (xs[i] - xs[i - 1])
        x = np.where(arr <= ms[0], 0.0, x)
        return float(x) if scalar else x

    def value(self, x):
        arr, scalar = _as_float_array(x)
        _check_nonnegative(arr)
        xs, ms = self.payout_nodes, self.marginal_nodes
        clipped = np.minimum(arr, xs[-1])
        idx = np.clip(np.searchsorted(xs, clipped, side="right") - 1, 0, xs.size - 2)
        s = clipped - xs[idx]
        slope = (ms[idx + 1] - ms[idx]) / (xs[idx + 1] - xs[idx])
        out = self._value_nodes[idx] + ms[idx] * s + 0.5 * slope * s**2
        # flat marginal beyond the table
        out = out + ms[-1] * np.maximum(arr - xs[-1], 0.0)
        return float(out) if scalar else out


RescueCost = Union[QuadraticCost, TabulatedCost]


def _check_nonnegative(arr: np.ndarray) -> None:
    if np.any(arr < 0.0):
        raise DomainError("payout must be nonnegative")
