import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softbudget import (
    DomainError,
    Exponential,
    ParameterError,
    PointMass,
    Tabulated,
    Truncated,
    Uniform,
    UpperSupportError,
    Weibull,
    sample_types,
    uniform_stream,
)
from softbudget.distributions import SAMPLE_BLOCK
from conftest import irregular_tabulated

ANALYTIC = [
    Weibull(2.0, 1.0),
    Weibull(0.7, 2.0),
    Exponential(1.3),
    Uniform(0.25, 1.75),
    Truncated(Weibull(2.0, 1.0), 0.2, 1.4),
]


@pytest.mark.parametrize("dist", ANALYTIC, ids=lambda d: repr(d))
def test_pdf_matches_cdf_derivative(dist):
    lo, hi = dist.support
    hi = min(hi, float(dist.ppf(1.0 - 1e-6)))
    pts = np.linspace(lo, hi, 102)[1:-1]
    eps = 1e-6 * max(hi - lo, 1.0)
    fd = (dist.cdf(pts + eps) - dist.cdf(pts - eps)) / (2.0 * eps)
    assert np.max(np.abs(fd - dist.pdf(pts))) <= 1e-5


@pytest.mark.parametrize("dist", ANALYTIC, ids=lambda d: repr(d))
def test_survivor_complements_cdf(dist):
    lo, hi = dist.support
    hi = min(hi, float(dist.ppf(1.0 - 1e-9)))
    pts = np.linspace(lo, hi, 65)
    total = np.asarray(dist.cdf(pts)) + np.asarray(dist.survivor(pts))
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_weibull_sampling_moments_and_ks():
    dist = Weibull(2.0, 1.0)
    n = 200_000
    draws = sample_types(dist, n, seed=7)
    # mean of Weibull(2, 1) is Gamma(1.5)
    assert abs(draws.mean() - math.gamma(1.5)) < 0.01
    sorted_draws = np.sort(draws)
    ecdf_hi = np.arange(1, n + 1) / n
    model = np.asarray(dist.cdf(sorted_draws))
    ks = max(np.max(np.abs(ecdf_hi - model)), np.max(np.abs(ecdf_hi - 1.0 / n - model)))
    assert ks < 1.5 / math.sqrt(n)


def test_sampling_is_deterministic():
    a = sample_types(Weibull(2.0, 1.0), 3 * SAMPLE_BLOCK + 17, seed=123)
    b = sample_types(Weibull(2.0, 1.0), 3 * SAMPLE_BLOCK + 17, seed=123)
    assert np.array_equal(a, b)
    c = sample_types(Weibull(2.0, 1.0), 3 * SAMPLE_BLOCK + 17, seed=124)
    assert not np.array_equal(a, c)


def test_uniform_stream_prefix_stability():
    # a shorter request is a prefix of a longer one with the same seed
    short = uniform_stream(99, SAMPLE_BLOCK + 10)
    long = uniform_stream(99, 2 * SAMPLE_BLOCK)
    assert np.array_equal(short, long[: SAMPLE_BLOCK + 10])
    assert np.all((long >= 0.0) & (long < 1.0))


def test_uniform_stream_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        uniform_stream(-1, 10)
    with pytest.raises(ParameterError):
        uniform_stream(2**64, 10)
    with pytest.raises(ParameterError):
        uniform_stream(0, 0)


def test_uniform_containment_small_sample():
    draws = sample_types(Uniform(0.0, 1.0), 4, seed=5)
    assert draws.shape == (4,)
    assert np.all((draws >= 0.0) & (draws < 1.0))


@pytest.mark.parametrize(
    "dist",
    [Weibull(2.0, 1.0), Weibull(1.0, 0.5), Exponential(0.8), Uniform(0.0, 2.0)],
    ids=lambda d: repr(d),
)
def test_ifr_kinds_have_nondecreasing_hazard(dist):
    g = dist.grid(513, tail_mass=1e-6)
    h = np.asarray(dist.hazard(g))
    assert np.all(np.diff(h) >= -1e-9 * np.maximum(1.0, np.abs(h[:-1])))


def test_weibull_below_one_is_not_ifr():
    dist = Weibull(0.7, 1.0)
    g = np.linspace(0.05, 2.0, 200)
    h = np.asarray(dist.hazard(g))
    assert np.any(np.diff(h) < 0.0)


def bimodal_tabulated():
    nodes = np.linspace(0.0, 1.0, 201)
    dens = np.exp(-0.5 * ((nodes - 0.25) / 0.07) ** 2) + 0.85 * np.exp(
        -0.5 * ((nodes - 0.75) / 0.07) ** 2
    )
    return Tabulated(nodes, dens)


def test_bimodal_tabulated_hazard_dips():
    dist = bimodal_tabulated()
    g = dist.grid(801, tail_mass=1e-4)
    h = np.asarray(dist.hazard(g))
    assert np.min(np.diff(h)) < 0.0


def test_tabulated_hazard_is_bit_identical_to_pdf_over_survivor():
    dist = irregular_tabulated()
    nodes = dist.nodes
    inside = np.concatenate([
        nodes[:-1],  # every node short of the upper end, the lower end included
        0.5 * (nodes[:-1] + nodes[1:]),  # cell midpoints
        np.nextafter(nodes[1:], -np.inf),  # just below each node
        np.random.default_rng(3).uniform(nodes[0], nodes[-1], 5000),
    ])
    reference = np.asarray(dist.pdf(inside)) / np.asarray(dist.survivor(inside))  # two locates
    assert np.asarray(dist.hazard(inside)).tobytes() == reference.tobytes()
    assert dist.hazard(float(nodes[0])) == dist.pdf(float(nodes[0])) / dist.survivor(float(nodes[0]))
    for point in (float(nodes[-1]), [0.5, float(nodes[-1])]):  # survival is zero at the upper end
        with pytest.raises(UpperSupportError):
            dist.hazard(point)
    for point in (-1e-9, [1.0, 3.0 + 1e-9]):
        with pytest.raises(DomainError):
            dist.hazard(point)


def test_tabulated_interpolation_consistency():
    dist = bimodal_tabulated()
    pts = np.linspace(0.01, 0.99, 137)
    eps = 1e-6
    fd = (dist.cdf(pts + eps) - dist.cdf(pts - eps)) / (2.0 * eps)
    assert np.max(np.abs(fd - dist.pdf(pts))) <= 1e-5
    # cdf and survivor agree exactly at the nodes and in between
    total = np.asarray(dist.cdf(pts)) + np.asarray(dist.survivor(pts))
    assert np.max(np.abs(total - 1.0)) <= 1e-12
    assert dist.cdf(dist.support[1]) == 1.0
    assert dist.survivor(dist.support[0]) == 1.0


def test_tabulated_validation():
    with pytest.raises(ParameterError):
        Tabulated([0.0, 0.5, 0.9], [1.0, 1.0, 1.0])  # uneven spacing
    with pytest.raises(ParameterError):
        Tabulated([0.0, 0.5, 1.0], [1.0, -0.1, 1.0])  # negative density
    with pytest.raises(ParameterError):
        Tabulated([0.0], [1.0])  # too short
    with pytest.raises(ParameterError):
        Tabulated([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])  # zero mass


def test_truncated_renormalizes():
    base = Weibull(2.0, 1.0)
    dist = Truncated(base, 0.2, 1.4)
    assert dist.cdf(0.2) == 0.0
    assert dist.cdf(1.4) == 1.0
    mass = float(base.cdf(1.4)) - float(base.cdf(0.2))
    assert abs(float(dist.pdf(0.7)) - float(base.pdf(0.7)) / mass) <= 1e-14
    with pytest.raises(ParameterError):
        Truncated(base, 5.0, 4.0)
    with pytest.raises(ParameterError):
        Truncated(dist, 0.3, 1.0)  # no nesting


def test_point_mass_behavior():
    dist = PointMass(0.5)
    assert dist.support == (0.5, 0.5)
    assert float(dist.ppf(0.3)) == 0.5
    assert float(dist.cdf(0.5)) == 1.0
    assert float(dist.cdf(0.49)) == 0.0
    with pytest.raises(ParameterError):
        dist.hazard(0.5)
    with pytest.raises(ParameterError):
        dist.pdf(0.5)


def test_hazard_domain_and_tail_errors():
    dist = Weibull(2.0, 1.0)
    with pytest.raises(DomainError):
        dist.hazard(-0.1)
    with pytest.raises(DomainError):
        Uniform(0.0, 1.0).hazard(1.5)
    with pytest.raises(UpperSupportError):
        Uniform(0.0, 1.0).hazard(1.0)


def test_grid_truncates_tail():
    dist = Weibull(2.0, 1.0)
    g = dist.grid(1025, tail_mass=1e-10)
    assert g[0] == 0.0
    assert abs(float(dist.survivor(g[-1])) - 1e-10) <= 1e-12
    h = dist.hazard(g)
    assert np.all(np.isfinite(h))
    with pytest.raises(ParameterError):
        dist.grid(1)
    with pytest.raises(ParameterError):
        dist.grid(100, tail_mass=0.7)


def test_grid_starts_at_tail_quantile_when_hazard_diverges():
    dist = Weibull(0.7, 1.0)
    with pytest.raises(UpperSupportError):
        dist.hazard(0.0)
    g = dist.grid(1025, tail_mass=1e-10)
    assert g[0] == float(dist.ppf(1e-10)) > 0.0
    assert np.all(np.isfinite(dist.hazard(g)))


@given(u=st.floats(min_value=0.0, max_value=0.999999, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_ppf_cdf_roundtrip_weibull(u):
    dist = Weibull(2.0, 1.0)
    assert abs(float(dist.cdf(dist.ppf(u))) - u) <= 1e-12


@given(
    u=st.floats(min_value=0.0, max_value=0.999999, allow_nan=False),
    lo=st.floats(min_value=-2.0, max_value=1.0, allow_nan=False),
    width=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_ppf_cdf_roundtrip_uniform(u, lo, width):
    dist = Uniform(lo, lo + width)
    assert abs(float(dist.cdf(dist.ppf(u))) - u) <= 1e-9


@given(u=st.floats(min_value=1e-6, max_value=0.999, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_ppf_cdf_roundtrip_tabulated(u):
    dist = bimodal_tabulated()
    assert abs(float(dist.cdf(dist.ppf(u))) - u) <= 1e-9
