"""Type distributions for the fiscal-need parameter.

The screening solver treats the recipient government's fiscal need ("type")
as a scalar random variable with density f, CDF F, and hazard rate

    h(theta) = f(theta) / (1 - F(theta)).

Everything downstream (virtual weights, cap schedules, cutoff probabilities)
consumes the distribution through the small interface defined here: density,
CDF, survival function, quantile function, hazard, and hazard slope.  The
survival function is always computed directly rather than as ``1 - cdf`` so
hazards stay accurate deep into the upper tail.

Evaluation protocol
-------------------
A kind writes only its formulas on float arrays: ``_pdf``, ``_cdf``,
``_survivor``, ``_ppf`` (into its argument, which it returns), the
closed-form ``_hazard_slope``, and ``_hazard`` where it has a closed form
(the default is ``_pdf / _survivor``).  :class:`TypeDistribution` owns the
six public evaluators: each coerces its input once to a float array (``ppf``
to a copy) and returns a Python float for scalar input, a float64 array of
the input's shape otherwise; ``ppf`` raises :class:`DomainError` outside
[0, 1), and ``hazard`` and ``hazard_slope`` raise it outside the support and
:class:`UpperSupportError` wherever the value is not finite (zero survival
at the upper end, or a divergence such as a decreasing-hazard Weibull's at zero).

Supported kinds
---------------
* :class:`Weibull` -- shape/scale parameterization; IFR when shape >= 1.
* :class:`Exponential` -- constant hazard equal to the rate.
* :class:`Uniform` -- linear CDF on a compact interval; IFR.
* :class:`Truncated` -- any analytic base restricted to a subinterval.
* :class:`Tabulated` -- (theta, density) pairs on a uniform grid, with a
  piecewise-linear density model integrated exactly per cell.
* :class:`PointMass` -- degenerate single-type distribution, accepted so
  oracle tests can exercise the mechanism layer without screening; its
  hazard is deliberately undefined.

Sampling
--------
``sample_types`` draws i.i.d. types by inverse-CDF transform of a
deterministic uniform stream.  The stream is produced by the Philox4x64-10
counter-based generator: sample block ``j`` (blocks of 65,536 draws) is
``Philox(key=seed)`` at counter (0, 0, j, 0), with no jump needed.  The
mapping from ``(seed, n)`` to output is bit-reproducible and independent of
how a caller partitions the blocks.  Each block is drawn straight into the
output and inverted there by ``_ppf``, so the types are the only array of
the sample's size; the draws are ``ppf(uniform_stream(seed, n))`` bit for bit.
A :class:`Tabulated` quantile finds each CDF cell in O(1) from a guide table
over u (Chen & Asau, 1974), built on the first query of ``GUIDE_CELLS`` or
more entries; smaller ones, such as ``grid()``'s, keep the binary search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError, UpperSupportError

__all__ = [
    "TypeDistribution",
    "Weibull",
    "Exponential",
    "Uniform",
    "Truncated",
    "Tabulated",
    "PointMass",
    "sample_types",
    "uniform_stream",
    "SAMPLE_BLOCK",
]

# Samples are produced in fixed blocks so that partitioning work across
# processes cannot change the merged output.
SAMPLE_BLOCK = 65_536

MAX_SEED = 2**64 - 1

GUIDE_CELLS = 2**13  # tabulated quantile's guide-table cells: a power of two, so u*K and k/K are exact


def _returned(values, arr: np.ndarray):
    """A Python float for 0-d input ``arr``, the array of values otherwise."""
    return float(values) if arr.ndim == 0 else values


class TypeDistribution:
    """Abstract interface shared by every type-distribution kind: the public
    evaluators and grid construction (see the module's evaluation protocol)."""

    kind: str = "abstract"

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def pdf(self, theta):
        """Density f(theta); zero outside the support."""
        arr = np.asarray(theta, dtype=float)
        return _returned(self._pdf(arr), arr)

    def cdf(self, theta):
        """P(type <= theta)."""
        arr = np.asarray(theta, dtype=float)
        return _returned(self._cdf(arr), arr)

    def survivor(self, theta):
        """P(type > theta), computed without forming ``1 - cdf``."""
        arr = np.asarray(theta, dtype=float)
        return _returned(self._survivor(arr), arr)

    def ppf(self, u):
        """Quantile function; accepts u in [0, 1) and leaves ``u`` as it is (``_ppf`` inverts a copy)."""
        arr = np.array(u, dtype=float)
        return _returned(self._quantiles(arr), arr)

    def _quantiles(self, arr: np.ndarray) -> np.ndarray:
        """``_ppf`` written into ``arr``, after the quantile argument's check."""
        if not (arr.size == 0 or 0.0 <= arr.min() and arr.max() < 1.0):  # NaN fails both; an empty array passes
            raise DomainError("quantile argument must lie in [0, 1)")
        return self._ppf(arr)

    def hazard(self, theta):
        """Hazard rate f(theta) / P(type > theta).

        Raises
        ------
        DomainError
            If any evaluation point lies outside the support.
        UpperSupportError
            If the hazard is not finite at some point (zero survival or a
            divergence); the caller must truncate its grid there.
        """
        return self._on_support(self._hazard, theta, "hazard")

    def hazard_slope(self, theta):
        """Derivative of the hazard in theta, in closed form, with the checks of :meth:`hazard`."""
        return self._on_support(self._hazard_slope, theta, "hazard slope")

    def _on_support(self, formula, theta, name: str):
        arr = np.asarray(theta, dtype=float)
        lo, hi = self.support
        scalar = arr.ndim == 0  # tested with Python comparisons, the same tests
        # an array by its extremes, and an empty one passes; NaN fails both comparisons
        if not (lo <= float(arr) <= hi if scalar else arr.size == 0 or lo <= arr.min() and arr.max() <= hi):
            raise DomainError(f"type value outside support [{lo}, {hi}] for kind '{self.kind}'")
        with np.errstate(divide="ignore", invalid="ignore"):
            out = formula(arr)
        if not (math.isfinite(out) if scalar else np.all(np.isfinite(out))):
            raise UpperSupportError(f"{self.kind} {name} not finite (zero survival or a divergence); truncate the grid")
        return _returned(out, arr)

    def _hazard(self, arr: np.ndarray) -> np.ndarray:
        """Hazard at types inside the support; non-finite where undefined."""
        return self._pdf(arr) / self._survivor(arr)

    # -- grids ----------------------------------------------------------

    def grid(self, size: int, tail_mass: float) -> np.ndarray:
        """Uniform evaluation grid on the truncated support.

        The upper end sits at the ``1 - tail_mass`` quantile so hazards stay
        finite even for unbounded supports; the truncation discards only
        ``tail_mass`` of probability.  Where the hazard is infinite at the
        lower support (a decreasing-hazard Weibull at zero), the lower end
        moves to the ``tail_mass`` quantile in the same way.
        """
        if size < 2:
            raise ParameterError("grid size must be at least 2")
        if not (0.0 < tail_mass < 0.5):
            raise ParameterError("tail_mass must lie in (0, 0.5)")
        lo, hi_q = self.support[0], self.ppf(1.0 - tail_mass)
        try:
            self.hazard(lo)
        except UpperSupportError:
            lo = self.ppf(tail_mass)
        if hi_q <= lo:
            raise ParameterError("degenerate grid: truncated support has zero width")
        return np.linspace(lo, hi_q, size)


# ---------------------------------------------------------------------------
# analytic kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weibull(TypeDistribution):
    """Weibull(shape k, scale s): F(t) = 1 - exp(-(t/s)^k) on [0, inf)."""

    shape: float
    scale: float = 1.0
    kind: str = field(default="weibull", init=False)

    def __post_init__(self):
        if not (self.shape > 0.0 and math.isfinite(self.shape)):
            raise ParameterError("weibull shape must be positive and finite")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ParameterError("weibull scale must be positive and finite")

    @property
    def support(self):
        return (0.0, math.inf)

    def _pdf(self, arr):
        z = np.maximum(arr, 0.0) / self.scale
        with np.errstate(divide="ignore"):
            dens = (self.shape / self.scale) * z ** (self.shape - 1.0) * np.exp(-(z**self.shape))
        return np.where(arr < 0.0, 0.0, dens)

    def _cdf(self, arr):
        z = np.maximum(arr, 0.0) / self.scale
        return np.where(arr < 0.0, 0.0, -np.expm1(-(z**self.shape)))

    def _survivor(self, arr):
        z = np.maximum(arr, 0.0) / self.scale
        return np.where(arr < 0.0, 1.0, np.exp(-(z**self.shape)))

    def _ppf(self, arr):
        arr = np.negative(np.log1p(np.negative(arr, out=arr), out=arr), out=arr)
        arr[()] **= 1.0 / self.shape  # in place; 0-d input keeps numpy's scalar power, which a loop can round otherwise
        return np.multiply(arr, self.scale, out=arr)

    def _hazard(self, arr):
        return (self.shape / self.scale) * (arr / self.scale) ** (self.shape - 1.0)

    def _hazard_slope(self, arr):
        k, s = self.shape, self.scale
        if k == 1.0:
            return np.zeros_like(arr)
        with np.errstate(divide="ignore"):
            return (k * (k - 1.0) / s**2) * (arr / s) ** (k - 2.0)


@dataclass(frozen=True)
class Exponential(TypeDistribution):
    """Exponential(rate): constant hazard equal to the rate."""

    rate: float
    kind: str = field(default="exponential", init=False)

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ParameterError("exponential rate must be positive and finite")

    @property
    def support(self):
        return (0.0, math.inf)

    def _pdf(self, arr):
        return np.where(arr < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(arr, 0.0)))

    def _cdf(self, arr):
        return np.where(arr < 0.0, 0.0, -np.expm1(-self.rate * np.maximum(arr, 0.0)))

    def _survivor(self, arr):
        return np.where(arr < 0.0, 1.0, np.exp(-self.rate * np.maximum(arr, 0.0)))

    def _ppf(self, arr):
        return np.divide(np.log1p(np.negative(arr, out=arr), out=arr), -self.rate, out=arr)  # -log1p(-u) / rate

    def _hazard(self, arr):
        return np.full_like(arr, self.rate)

    def _hazard_slope(self, arr):
        return np.zeros_like(arr)


@dataclass(frozen=True)
class Uniform(TypeDistribution):
    """Uniform on [lower, upper]; hazard 1/(upper - theta) is increasing."""

    lower: float
    upper: float
    kind: str = field(default="uniform", init=False)

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ParameterError("uniform bounds must be finite")
        if not self.upper > self.lower:
            raise ParameterError("uniform requires upper > lower")

    @property
    def support(self):
        return (self.lower, self.upper)

    def _pdf(self, arr):
        inside = (arr >= self.lower) & (arr <= self.upper)
        return np.where(inside, 1.0 / (self.upper - self.lower), 0.0)

    def _cdf(self, arr):
        return np.clip((arr - self.lower) / (self.upper - self.lower), 0.0, 1.0)

    def _survivor(self, arr):
        return np.clip((self.upper - arr) / (self.upper - self.lower), 0.0, 1.0)

    def _ppf(self, arr):
        return np.add(np.multiply(arr, self.upper - self.lower, out=arr), self.lower, out=arr)

    def _hazard_slope(self, arr):
        return 1.0 / (self.upper - arr) ** 2


@dataclass(frozen=True)
class Truncated(TypeDistribution):
    """An analytic base distribution conditioned on [lower, upper]."""

    base: TypeDistribution
    lower: float
    upper: float
    kind: str = field(default="truncated", init=False)

    def __post_init__(self):
        if isinstance(self.base, (Truncated, Tabulated, PointMass)):
            raise ParameterError("truncation is supported for analytic base kinds only")
        blo, bhi = self.base.support
        lo = max(self.lower, blo)
        hi = min(self.upper, bhi)
        if not hi > lo:
            raise ParameterError("truncation interval does not intersect the base support")
        mass = self.base.cdf(hi) - self.base.cdf(lo)
        if mass <= 0.0:
            raise ParameterError("truncation interval carries zero probability mass")
        object.__setattr__(self, "lower", float(lo))
        object.__setattr__(self, "upper", float(hi))
        object.__setattr__(self, "_mass", mass)
        object.__setattr__(self, "_cdf_lo", self.base.cdf(lo))
        object.__setattr__(self, "_surv_hi", self.base.survivor(hi))

    @property
    def support(self):
        return (self.lower, self.upper)

    def _pdf(self, arr):
        inside = (arr >= self.lower) & (arr <= self.upper)
        return np.where(inside, self.base.pdf(arr) / self._mass, 0.0)

    def _cdf(self, arr):
        return np.clip((self.base.cdf(arr) - self._cdf_lo) / self._mass, 0.0, 1.0)

    def _survivor(self, arr):
        return np.clip((self.base.survivor(arr) - self._surv_hi) / self._mass, 0.0, 1.0)

    def _ppf(self, arr):
        # cdf_lo + u*mass reaches 1.0 where the base CDF rounds to 1: hold it below, in [0, 1) as ppf checks
        np.add(np.multiply(arr, self._mass, out=arr), self._cdf_lo, out=arr)
        np.minimum(arr, math.nextafter(1.0, 0.0), out=arr)
        return np.clip(self.base._ppf(arr), self.lower, self.upper, out=arr)

    def _hazard_slope(self, arr):
        # h_T = f_b / (S_b - S_b(upper)), and f_b' = S_b (h_b' - h_b^2), so
        # h_T' = S_b (h_b' - h_b^2) / (S_b - S_b(upper)) + h_T^2
        base = self.base
        surv, h_base = base._survivor(arr), base._hazard(arr)
        return surv * (base._hazard_slope(arr) - h_base * h_base) / (surv - self._surv_hi) + self._hazard(arr) ** 2


# ---------------------------------------------------------------------------
# tabulated kind
# ---------------------------------------------------------------------------


class Tabulated(TypeDistribution):
    """Density supplied as (theta, f) pairs on a uniform grid.

    The density is modeled as piecewise linear between nodes, which makes
    the CDF piecewise quadratic and exactly integrable per cell.  The input
    is renormalized so the trapezoid integral equals one; the survival
    function is accumulated from the right so upper-tail hazards do not
    suffer cancellation.  The quantile finds its cell in a guide table over u
    (module docstring), equal to ``searchsorted(cdf, u, "right") - 1``.
    """

    kind = "tabulated"

    def __init__(self, theta, density):
        nodes = np.asarray(theta, dtype=float)
        dens = np.asarray(density, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2 or nodes.shape != dens.shape:
            raise ParameterError("tabulated kind needs matching 1-d theta and density arrays (>= 2 nodes)")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(dens))):
            raise ParameterError("tabulated nodes and densities must be finite")
        steps = np.diff(nodes)
        if np.any(steps <= 0.0):
            raise ParameterError("tabulated theta grid must be strictly increasing")
        # relative to the step, plus the few ulps by which a rounded linspace's steps differ far from zero
        ulps = 4.0 * np.spacing(max(-nodes[0], nodes[-1]))
        if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0] + ulps:
            raise ParameterError("tabulated theta grid must be uniformly spaced")
        if ulps > 1e-6 * steps[0]:  # then those ulps are a visible share of every cell
            raise ParameterError(f"tabulated theta grid step {steps[0]:.6g} is within a few ulps of its nodes "
                                 f"(up to {max(-nodes[0], nodes[-1]):.6g}), so it cannot be uniform")
        if np.any(dens < 0.0):
            raise ParameterError("tabulated densities must be nonnegative")
        total = np.trapezoid(dens, nodes)
        if total <= 0.0:
            raise ParameterError("tabulated density integrates to zero")
        self.nodes = nodes
        self.density = dens / total
        # each cell's width and density slope, computed once for every lookup
        self._step = nodes[1] - nodes[0]
        self._slope = np.diff(self.density) / self._step
        # per-cell areas under the piecewise-linear density
        self._areas = 0.5 * (self.density[:-1] + self.density[1:]) * steps
        self._cdf_nodes = np.concatenate([[0.0], np.cumsum(self._areas)])
        self._cdf_nodes[-1] = 1.0
        surv = np.concatenate([[0.0], np.cumsum(self._areas[::-1])])[::-1]
        surv[0] = 1.0
        self._surv_nodes = surv
        self._guide = None

    @property
    def support(self):
        return (float(self.nodes[0]), float(self.nodes[-1]))

    def _locate(self, arr):
        flat = np.ravel(arr)  # 1-d, so that take gives arrays to write into
        idx = _cell_index(flat, self.nodes)
        return idx, flat - self.nodes.take(idx)

    def _density_in(self, idx, s):
        """Density at offset ``s`` into cell ``idx``."""
        dens = self._slope.take(idx)
        dens *= s
        dens += self.density.take(idx)
        return np.maximum(dens, 0.0, out=dens)

    def _survival_in(self, idx, s):
        """Survival at offset ``s`` into cell ``idx``: the rest of the cell plus the cells above.  Overwrites ``s``."""
        t = np.subtract(self._step, s, out=s)
        surv = self.density[1:].take(idx)
        surv *= t
        rest = self._slope.take(idx)
        rest *= 0.5
        rest *= np.square(t, out=t)
        surv -= rest
        surv += self._surv_nodes[1:].take(idx)
        return np.clip(surv, 0.0, 1.0, out=surv)

    def _pdf(self, arr):
        lo, hi = self.support
        idx, s = self._locate(np.clip(arr, lo, hi))
        return np.where((arr >= lo) & (arr <= hi), self._density_in(idx, s).reshape(arr.shape), 0.0)

    def _cdf(self, arr):
        lo, hi = self.support
        idx, s = self._locate(np.clip(arr, lo, hi))
        vals = (self._cdf_nodes[idx] + self.density[idx] * s + 0.5 * self._slope[idx] * s**2).reshape(arr.shape)
        return np.where(arr < lo, 0.0, np.where(arr >= hi, 1.0, np.clip(vals, 0.0, 1.0)))

    def _survivor(self, arr):
        lo, hi = self.support
        idx, s = self._locate(np.clip(arr, lo, hi))
        return np.where(arr <= lo, 1.0, np.where(arr > hi, 0.0, self._survival_in(idx, s).reshape(arr.shape)))

    def _hazard_factors(self, arr):
        """Cell, density and survival (1 at the first node) of each point, as ``_locate``'s; one lookup for both."""
        idx, s = self._locate(arr)
        dens, surv = self._density_in(idx, s), self._survival_in(idx, s)
        np.copyto(surv, 1.0, where=np.ravel(arr) <= self.nodes[0])
        return idx, dens, surv

    def _hazard(self, arr):
        # the float operations of _pdf and _survivor, so the hazard equals pdf / survivor bit for bit
        _, dens, surv = self._hazard_factors(arr)
        return np.divide(dens, surv, out=dens).reshape(arr.shape)

    def _hazard_slope(self, arr):
        # the density is linear inside a cell, so h' = f'/S + h^2 with f' the
        # cell's slope, exact on either side of a node's kink, which a
        # difference stencil would straddle; a node takes the slope above it
        idx, dens, surv = self._hazard_factors(arr)
        h = np.divide(dens, surv, out=dens)
        return (self._slope[idx] / surv + h * h).reshape(arr.shape)

    def _cdf_cell(self, u):
        """searchsorted(cdf, u, "right") - 1, through the guide table for large queries."""
        if u.size < GUIDE_CELLS:
            return np.searchsorted(self._cdf_nodes, u, side="right") - 1
        if self._guide is None:
            self._guide = _guide_table(self._cdf_nodes)
        idx = self._guide.take((u * GUIDE_CELLS).astype(np.intp))
        miss = idx < 0
        idx[miss] = np.searchsorted(self._cdf_nodes, u[miss], side="right") - 1
        return idx

    def _ppf(self, arr):
        u = np.atleast_1d(arr)  # a view of 0-d input, so that take gives arrays
        idx = self._cdf_cell(u)
        np.clip(idx, 0, self.nodes.size - 2, out=idx)
        f0 = self.density.take(idx)
        u -= self._cdf_nodes.take(idx)
        # s in [0, step] with f0*s + slope*s^2/2 = u (the residual), stably 2u / (f0 + sqrt(f0^2 + 2 slope u)) or else 0
        denom = self._slope.take(idx)
        denom *= 2.0
        denom *= u
        denom += np.square(f0)
        denom = np.add(f0, np.sqrt(np.maximum(denom, 0.0, out=denom), out=denom), out=denom)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(np.multiply(u, 2.0, out=u), denom, out=u)
        np.copyto(u, 0.0, where=~(denom > 0.0))
        np.add(np.clip(u, 0.0, self._step, out=u), self.nodes.take(idx), out=u)
        return arr


@dataclass(frozen=True)
class PointMass(TypeDistribution):
    """Degenerate distribution at a single type, for oracle tests.

    The density and hazard are undefined; mechanism routines that accept
    point masses bypass hazard weighting entirely.
    """

    value: float
    kind: str = field(default="point-mass", init=False)

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ParameterError("point mass location must be finite")

    @property
    def support(self):
        return (self.value, self.value)

    def _pdf(self, arr):
        raise ParameterError("density undefined for a point mass")

    def _cdf(self, arr):
        return (arr >= self.value).astype(float)

    def _survivor(self, arr):
        return (arr < self.value).astype(float)

    def _ppf(self, arr):
        arr.fill(self.value)
        return arr

    def _hazard(self, arr):
        raise ParameterError("hazard undefined for degenerate (point-mass) supports")

    _hazard_slope = _hazard

    def grid(self, size: int, tail_mass: float) -> np.ndarray:
        return np.array([self.value])


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Per u-cell k, the CDF cell of every u in [k/K, (k+1)/K), or -1 where that cell is not unique."""
    edges = np.arange(GUIDE_CELLS + 1) / GUIDE_CELLS
    lo = np.searchsorted(cdf, edges[:-1], side="right") - 1
    hi = np.searchsorted(cdf, edges[1:], side="left") - 1
    return np.where(lo == hi, lo, -1)


def _grid_cell(x: np.ndarray, xp: np.ndarray) -> np.ndarray | None:
    """Cell j of each x on an increasing grid, xp[j] <= x < xp[j + 1], clipped to [0, xp.size - 2].

    The guess floor((x - xp[0]) * (n - 1) / (xp[-1] - xp[0])), one multiply
    on a linspace, moves one cell where rounding put x on the wrong side of a
    node.  None where that leaves an x in [xp[0], xp[-1]) unbracketed (an
    uneven grid, NaN), or when xp[-1] <= xp[0].
    """
    lo, hi, last = xp[0], xp[-1], xp.size - 2
    if not hi > lo:
        return None
    with np.errstate(all="ignore"):
        guess = np.subtract(x, lo)
        guess *= (last + 1) / (hi - lo)
    np.fmax(guess, 0.0, out=guess)
    np.fmin(guess, last, out=guess)
    j = guess.astype(np.intp)
    # j is in range: mode="clip" writes straight into ``out``, "raise" buffers it
    below = ~(xp.take(j, out=guess, mode="clip") <= x)  # NaN counts as below
    above = xp[1:].take(j, out=guess, mode="clip") <= x
    moved = np.flatnonzero(below | above)  # rounding, or x outside the grid
    if moved.size:
        xm = x[moved]
        jm = np.clip(j[moved] - below[moved] + above[moved], 0, last)
        if not np.all(((xp[jm] <= xm) | (xm < lo)) & ((xm < xp[jm + 1]) | (xm >= hi))):
            return None
        j[moved] = jm
    return j


def _cell_index(x: np.ndarray, xp: np.ndarray) -> np.ndarray:
    """``np.clip(np.searchsorted(xp, x, side="right") - 1, 0, xp.size - 2)``, by ``_grid_cell`` where it can."""
    j = _grid_cell(x, xp) if x.ndim == 1 else None
    return np.clip(np.searchsorted(xp, x, side="right") - 1, 0, xp.size - 2) if j is None else j


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def uniform_stream(seed: int, n: int) -> np.ndarray:
    """Deterministic uniforms in [0, 1) from Philox4x64-10 counter blocks.

    Block ``j`` of 65,536 values is drawn from ``Philox(key=seed)`` at counter
    (0, 0, j, 0), the generator jumped ``j`` times, so any partition of
    [0, n) into whole blocks generates the identical merged array.
    """
    return _by_block(seed, n, lambda u: u)


def sample_types(dist: TypeDistribution, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. types by inverse-CDF transform of the uniform stream.

    Each block is inverted where it is drawn, in the output (module
    docstring): ``dist.ppf(uniform_stream(seed, n))`` bit for bit.
    """
    return _by_block(seed, n, dist._quantiles)


def _by_block(seed: int, n: int, transform) -> np.ndarray:
    """The stream drawn block by block into one output array, ``transform`` writing each block in place."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError("sample size must be a positive integer")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not (0 <= int(seed) <= MAX_SEED):
        raise ParameterError("seed must be an unsigned 64-bit integer")
    out = np.empty(int(n), dtype=float)
    for j, start in enumerate(range(0, int(n), SAMPLE_BLOCK)):
        block = out[start : start + SAMPLE_BLOCK]
        np.random.Generator(np.random.Philox(key=int(seed), counter=(0, 0, j, 0))).random(out=block)
        transform(block)
    return out
