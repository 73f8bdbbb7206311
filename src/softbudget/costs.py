"""Rescue-cost technologies.

The budget authority pays a convex resource cost C(x) for a rescue payout
x >= 0.  The solver only ever touches the cost through three methods:

* ``marginal``          -- C'(x),
* ``inverse_marginal``  -- smallest x >= 0 with C'(x) = y, plus a flag for
  targets below C'(0+) (where the nonnegativity constraint binds),
* ``value``             -- C(x) itself, for expected-cost quadrature.

Two kinds are supported.  The quadratic kind C(x) = alpha*x + kappa/2 * x^2
has closed-form marginal inversion.  The tabulated kind takes (payout,
marginal) pairs, models the marginal as piecewise linear, and inverts by
bisection on the predicate C'(x) >= y, which lands on the *leftmost*
preimage when the marginal has flat stretches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "QuadraticCost",
    "TabulatedCost",
    "RescueCost",
    "InverseMarginal",
]


class InverseMarginal(NamedTuple):
    """Result of a marginal-cost inversion.

    ``payout`` is the smallest x >= 0 with C'(x) = y (or 0 when the target
    sits below C'(0+), in which case ``below_origin`` is set).
    """

    payout: Union[float, np.ndarray]
    below_origin: Union[bool, np.ndarray]


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

    def inverse_marginal(self, y) -> InverseMarginal:
        arr, scalar = _as_float_array(y)
        below = arr < self.alpha
        x = np.maximum(arr - self.alpha, 0.0) / self.kappa
        if scalar:
            return InverseMarginal(float(x), bool(below))
        return InverseMarginal(x, below)

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

    def inverse_marginal(self, y) -> InverseMarginal:
        arr, scalar = _as_float_array(y)
        top = float(self.marginal_nodes[-1])
        if np.any(arr > top):
            raise ParameterError(
                f"marginal-cost target exceeds the tabulated maximum {top:.6g}; extend the table"
            )
        below = arr < self.marginal_nodes[0]
        lo = np.zeros_like(arr)
        hi = np.full_like(arr, self.payout_nodes[-1])
        # bisect C'(x) >= y; the marginal is nondecreasing so this converges
        # to the leftmost preimage, including across flat stretches.  The
        # bisection never reaches 0 itself, which is the leftmost preimage of
        # every target at or below C'(0).
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            ge = np.interp(mid, self.payout_nodes, self.marginal_nodes) >= arr
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid)
        x = np.where(arr <= self.marginal_nodes[0], 0.0, hi)
        resid = np.abs(np.interp(x, self.payout_nodes, self.marginal_nodes) - arr)
        ok = below | (resid <= 1e-10 * np.maximum(1.0, np.abs(arr)))
        if not np.all(ok):  # pragma: no cover - bisection is exhaustive
            raise ParameterError("marginal inversion residual above tolerance")
        if scalar:
            return InverseMarginal(float(x), bool(below))
        return InverseMarginal(x, below)

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
