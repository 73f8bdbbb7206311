"""Type distributions for the fiscal-need parameter.

The screening solver treats the recipient government's fiscal need ("type")
as a scalar random variable with density f, CDF F, and hazard rate

    h(theta) = f(theta) / (1 - F(theta)).

Everything downstream (virtual weights, cap schedules, cutoff probabilities)
consumes the distribution through the small interface defined here: density,
CDF, survival function, quantile function, hazard, and hazard slope.  The
survival function is always computed directly rather than as ``1 - cdf`` so
hazards stay accurate deep into the upper tail.

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
counter-based generator: sample block ``j`` (blocks of 65,536 draws) comes
from ``Philox(key=seed)`` jumped ``j`` times.  The mapping from
``(seed, n)`` to output is therefore bit-reproducible and independent of
how a caller partitions the blocks across workers.
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


def _aligned(theta):
    """Coerce input to a float array, remembering whether it was scalar."""
    arr = np.asarray(theta, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


class TypeDistribution:
    """Abstract interface shared by every type-distribution kind.

    Subclasses provide vectorized ``pdf``, ``cdf``, ``survivor`` and ``ppf``;
    the hazard machinery and grid construction live here.
    """

    kind: str = "abstract"

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def pdf(self, theta):
        raise NotImplementedError

    def cdf(self, theta):
        raise NotImplementedError

    def survivor(self, theta):
        """P(type > theta), computed without forming ``1 - cdf``."""
        raise NotImplementedError

    def ppf(self, u):
        """Quantile function; accepts u in [0, 1)."""
        raise NotImplementedError

    # -- hazard ---------------------------------------------------------

    def hazard(self, theta):
        """Hazard rate f(theta) / P(type > theta).

        Raises
        ------
        DomainError
            If any evaluation point lies outside the support.
        UpperSupportError
            If the survival probability is zero to machine precision; the
            caller must truncate its grid short of the upper support.
        """
        arr, scalar = _aligned(theta)
        lo, hi = self.support
        if np.any(arr < lo) or np.any(arr > hi):
            raise DomainError(
                f"type value outside support [{lo}, {hi}] for kind '{self.kind}'"
            )
        dens, surv = self._pdf_and_survivor(arr)
        if np.any(surv <= 0.0):
            raise UpperSupportError(
                "survival probability underflowed to zero; truncate the grid "
                "below the upper support before evaluating hazards"
            )
        return _maybe_scalar(dens / surv, scalar)

    def _pdf_and_survivor(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Density and survival at types inside the support, for :meth:`hazard`."""
        return np.asarray(self.pdf(arr), dtype=float), np.asarray(self.survivor(arr), dtype=float)

    def hazard_slope(self, theta):
        """Derivative of the hazard in theta.

        Analytic for kinds that have one; otherwise a 5-point central
        stencil on :meth:`hazard`.
        """
        arr, scalar = _aligned(theta)
        lo, hi = self.support
        width = (hi - lo) if math.isfinite(hi) else max(1.0, abs(float(np.max(arr))))
        step = 1e-4 * max(width, 1e-8)
        # keep the stencil inside the support
        step = float(np.minimum(step, np.maximum((np.minimum(arr - lo, hi - arr)) / 2.5, 1e-12)).min()) \
            if arr.size else step
        shifts = np.array([-2.0, -1.0, 1.0, 2.0]) * step
        coeff = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * step)
        vals = sum(c * np.asarray(self.hazard(arr + s), dtype=float) for s, c in zip(shifts, coeff))
        return _maybe_scalar(np.asarray(vals, dtype=float), scalar)

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
        lo, hi_q = self.support[0], float(self.ppf(1.0 - tail_mass))
        try:
            finite_at_lo = math.isfinite(self.hazard(lo))
        except UpperSupportError:  # hazards that diverge may raise instead of returning inf
            finite_at_lo = False
        if not finite_at_lo:
            lo = float(self.ppf(tail_mass))
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

    def pdf(self, theta):
        arr, scalar = _aligned(theta)
        z = np.maximum(arr, 0.0) / self.scale
        with np.errstate(divide="ignore"):
            out = np.where(
                arr < 0.0,
                0.0,
                (self.shape / self.scale) * z ** (self.shape - 1.0) * np.exp(-(z**self.shape)),
            )
        return _maybe_scalar(out, scalar)

    def cdf(self, theta):
        arr, scalar = _aligned(theta)
        z = np.maximum(arr, 0.0) / self.scale
        return _maybe_scalar(np.where(arr < 0.0, 0.0, -np.expm1(-(z**self.shape))), scalar)

    def survivor(self, theta):
        arr, scalar = _aligned(theta)
        z = np.maximum(arr, 0.0) / self.scale
        return _maybe_scalar(np.where(arr < 0.0, 1.0, np.exp(-(z**self.shape))), scalar)

    def ppf(self, u):
        arr, scalar = _aligned(u)
        _check_unit_interval(arr)
        return _maybe_scalar(self.scale * (-np.log1p(-arr)) ** (1.0 / self.shape), scalar)

    def hazard(self, theta):
        arr, scalar = _aligned(theta)
        if np.any(arr < 0.0):
            raise DomainError("type value outside support [0, inf) for kind 'weibull'")
        with np.errstate(divide="ignore"):
            out = (self.shape / self.scale) * (arr / self.scale) ** (self.shape - 1.0)
        if np.any(~np.isfinite(out)):
            raise UpperSupportError("weibull hazard not finite at the requested point")
        return _maybe_scalar(out, scalar)

    def hazard_slope(self, theta):
        arr, scalar = _aligned(theta)
        k, s = self.shape, self.scale
        if k == 1.0:
            return _maybe_scalar(np.zeros_like(arr), scalar)
        with np.errstate(divide="ignore"):
            out = (k * (k - 1.0) / s**2) * (arr / s) ** (k - 2.0)
        return _maybe_scalar(out, scalar)


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

    def pdf(self, theta):
        arr, scalar = _aligned(theta)
        return _maybe_scalar(np.where(arr < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(arr, 0.0))), scalar)

    def cdf(self, theta):
        arr, scalar = _aligned(theta)
        return _maybe_scalar(np.where(arr < 0.0, 0.0, -np.expm1(-self.rate * np.maximum(arr, 0.0))), scalar)

    def survivor(self, theta):
        arr, scalar = _aligned(theta)
        return _maybe_scalar(np.where(arr < 0.0, 1.0, np.exp(-self.rate * np.maximum(arr, 0.0))), scalar)

    def ppf(self, u):
        arr, scalar = _aligned(u)
        _check_unit_interval(arr)
        return _maybe_scalar(-np.log1p(-arr) / self.rate, scalar)

    def hazard(self, theta):
        arr, scalar = _aligned(theta)
        if np.any(arr < 0.0):
            raise DomainError("type value outside support [0, inf) for kind 'exponential'")
        return _maybe_scalar(np.full_like(arr, self.rate), scalar)

    def hazard_slope(self, theta):
        arr, scalar = _aligned(theta)
        return _maybe_scalar(np.zeros_like(arr), scalar)


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

    def pdf(self, theta):
        arr, scalar = _aligned(theta)
        inside = (arr >= self.lower) & (arr <= self.upper)
        return _maybe_scalar(np.where(inside, 1.0 / (self.upper - self.lower), 0.0), scalar)

    def cdf(self, theta):
        arr, scalar = _aligned(theta)
        return _maybe_scalar(np.clip((arr - self.lower) / (self.upper - self.lower), 0.0, 1.0), scalar)

    def survivor(self, theta):
        arr, scalar = _aligned(theta)
        return _maybe_scalar(np.clip((self.upper - arr) / (self.upper - self.lower), 0.0, 1.0), scalar)

    def ppf(self, u):
        arr, scalar = _aligned(u)
        _check_unit_interval(arr)
        return _maybe_scalar(self.lower + arr * (self.upper - self.lower), scalar)

    def hazard_slope(self, theta):
        arr, scalar = _aligned(theta)
        return _maybe_scalar(1.0 / (self.upper - arr) ** 2, scalar)


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
        mass = float(self.base.cdf(hi)) - float(self.base.cdf(lo))
        if mass <= 0.0:
            raise ParameterError("truncation interval carries zero probability mass")
        object.__setattr__(self, "lower", float(lo))
        object.__setattr__(self, "upper", float(hi))
        object.__setattr__(self, "_mass", mass)
        object.__setattr__(self, "_cdf_lo", float(self.base.cdf(lo)))
        object.__setattr__(self, "_surv_hi", float(self.base.survivor(hi)))

    @property
    def support(self):
        return (self.lower, self.upper)

    def pdf(self, theta):
        arr, scalar = _aligned(theta)
        inside = (arr >= self.lower) & (arr <= self.upper)
        return _maybe_scalar(np.where(inside, np.asarray(self.base.pdf(arr), dtype=float) / self._mass, 0.0), scalar)

    def cdf(self, theta):
        arr, scalar = _aligned(theta)
        raw = (np.asarray(self.base.cdf(arr), dtype=float) - self._cdf_lo) / self._mass
        return _maybe_scalar(np.clip(raw, 0.0, 1.0), scalar)

    def survivor(self, theta):
        arr, scalar = _aligned(theta)
        raw = (np.asarray(self.base.survivor(arr), dtype=float) - self._surv_hi) / self._mass
        return _maybe_scalar(np.clip(raw, 0.0, 1.0), scalar)

    def ppf(self, u):
        arr, scalar = _aligned(u)
        _check_unit_interval(arr)
        out = np.asarray(self.base.ppf(self._cdf_lo + arr * self._mass), dtype=float)
        return _maybe_scalar(np.clip(out, self.lower, self.upper), scalar)


# ---------------------------------------------------------------------------
# tabulated kind
# ---------------------------------------------------------------------------


class Tabulated(TypeDistribution):
    """Density supplied as (theta, f) pairs on a uniform grid.

    The density is modeled as piecewise linear between nodes, which makes
    the CDF piecewise quadratic and exactly integrable per cell.  The input
    is renormalized so the trapezoid integral equals one; the survival
    function is accumulated from the right so upper-tail hazards do not
    suffer cancellation.
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
        if np.max(np.abs(steps - steps[0])) > 1e-9 * max(steps[0], 1.0):
            raise ParameterError("tabulated theta grid must be uniformly spaced")
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

    @property
    def support(self):
        return (float(self.nodes[0]), float(self.nodes[-1]))

    def _locate(self, arr):
        idx = np.clip(np.searchsorted(self.nodes, arr, side="right") - 1, 0, self.nodes.size - 2)
        return idx, arr - self.nodes[idx]

    def pdf(self, theta):
        arr, scalar = _aligned(theta)
        lo, hi = self.support
        idx, s = self._locate(np.clip(arr, lo, hi))
        vals = self.density[idx] + self._slope[idx] * s
        inside = (arr >= lo) & (arr <= hi)
        return _maybe_scalar(np.where(inside, np.maximum(vals, 0.0), 0.0), scalar)

    def cdf(self, theta):
        arr, scalar = _aligned(theta)
        lo, hi = self.support
        clipped = np.clip(arr, lo, hi)
        idx, s = self._locate(clipped)
        vals = self._cdf_nodes[idx] + self.density[idx] * s + 0.5 * self._slope[idx] * s**2
        vals = np.where(arr < lo, 0.0, np.where(arr >= hi, 1.0, np.clip(vals, 0.0, 1.0)))
        return _maybe_scalar(vals, scalar)

    def survivor(self, theta):
        arr, scalar = _aligned(theta)
        lo, hi = self.support
        clipped = np.clip(arr, lo, hi)
        idx, s = self._locate(clipped)
        # accumulate the remaining area of the current cell from the right
        t = self._step - s
        cell_rest = self.density[idx + 1] * t - 0.5 * self._slope[idx] * t**2
        vals = self._surv_nodes[idx + 1] + cell_rest
        vals = np.where(arr <= lo, 1.0, np.where(arr > hi, 0.0, np.clip(vals, 0.0, 1.0)))
        return _maybe_scalar(vals, scalar)

    def _pdf_and_survivor(self, arr):
        # one cell lookup for both, with the float operations of pdf and
        # survivor on in-support types, so the hazard equals their ratio bit for bit
        idx, s = self._locate(arr)
        slope = self._slope[idx]
        t = self._step - s
        cell_rest = self.density[idx + 1] * t - 0.5 * slope * t**2
        surv = np.where(arr <= self.nodes[0], 1.0, np.clip(self._surv_nodes[idx + 1] + cell_rest, 0.0, 1.0))
        return np.maximum(self.density[idx] + slope * s, 0.0), surv

    def ppf(self, u):
        arr, scalar = _aligned(u)
        _check_unit_interval(arr)
        # in place, to hold few sample-sized arrays at once (for 200,000
        # draws 9.2 MB of numpy memory, not 13.7); the float operations and
        # so the results are those of the plain expression form
        flat = np.atleast_1d(arr)
        idx = np.searchsorted(self._cdf_nodes, flat, side="right")
        idx -= 1
        np.clip(idx, 0, self.nodes.size - 2, out=idx)
        f0 = self.density[idx]
        resid = self._cdf_nodes[idx]
        np.subtract(flat, resid, out=resid)
        # solve f0*s + slope*s^2/2 = resid for s in [0, step], stable form:
        # s = 2 resid / (f0 + sqrt(f0^2 + 2 slope resid)), 0 where that fails
        denom = self._slope[idx]
        denom *= 2.0
        denom *= resid
        denom += np.square(f0)
        np.maximum(denom, 0.0, out=denom)
        np.sqrt(denom, out=denom)
        denom += f0
        s = resid
        s *= 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            s /= denom
        s[~(denom > 0.0)] = 0.0
        np.clip(s, 0.0, self._step, out=s)
        out = self.nodes[idx]
        out += s
        return _maybe_scalar(out.reshape(arr.shape), scalar)


@dataclass(frozen=True)
class PointMass(TypeDistribution):
    """Degenerate distribution at a single type, for oracle tests.

    The hazard is undefined; mechanism routines that accept point masses
    bypass hazard weighting entirely.
    """

    value: float
    kind: str = field(default="point-mass", init=False)

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ParameterError("point mass location must be finite")

    @property
    def support(self):
        return (self.value, self.value)

    def pdf(self, theta):
        raise ParameterError("density undefined for a point mass")

    def cdf(self, theta):
        arr, scalar = _aligned(theta)
        return _maybe_scalar((arr >= self.value).astype(float), scalar)

    def survivor(self, theta):
        arr, scalar = _aligned(theta)
        return _maybe_scalar((arr < self.value).astype(float), scalar)

    def ppf(self, u):
        arr, scalar = _aligned(u)
        _check_unit_interval(arr)
        return _maybe_scalar(np.full_like(arr, self.value), scalar)

    def hazard(self, theta):
        raise ParameterError("hazard undefined for degenerate (point-mass) supports")

    def grid(self, size: int, tail_mass: float) -> np.ndarray:
        return np.array([self.value])


def _check_unit_interval(arr: np.ndarray) -> None:
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise DomainError("quantile argument must lie in [0, 1)")


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def uniform_stream(seed: int, n: int) -> np.ndarray:
    """Deterministic uniforms in [0, 1) from Philox4x64-10 counter blocks.

    Block ``j`` of 65,536 values is drawn from ``Philox(key=seed)`` jumped
    ``j`` times, so any partition of [0, n) into whole blocks generates the
    identical merged array.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError("sample size must be a positive integer")
    if not isinstance(seed, (int, np.integer)) or not (0 <= int(seed) <= MAX_SEED):
        raise ParameterError("seed must be an unsigned 64-bit integer")
    out = np.empty(int(n), dtype=float)
    for j in range((int(n) + SAMPLE_BLOCK - 1) // SAMPLE_BLOCK):
        start = j * SAMPLE_BLOCK
        count = min(SAMPLE_BLOCK, int(n) - start)
        gen = np.random.Generator(np.random.Philox(key=int(seed)).jumped(j))
        out[start : start + count] = gen.random(count)
    return out


def sample_types(dist: TypeDistribution, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. types by inverse-CDF transform of the uniform stream.

    Identical ``(seed, n, kind)`` triples reproduce bit-identical output.
    """
    u = uniform_stream(seed, n)
    return np.asarray(dist.ppf(u), dtype=float)
