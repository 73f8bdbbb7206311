import hashlib
import itertools
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
from softbudget.distributions import GUIDE_CELLS, SAMPLE_BLOCK, _cell_index, _grid_cell
from conftest import assert_scalar_path_matches, irregular_tabulated

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
    # a bool is an int, but no seed and no sample size: True would read as 1
    for draw in (uniform_stream, lambda seed, n: sample_types(Weibull(2.0, 1.0), n, seed)):
        for flag in (True, False, np.True_):
            with pytest.raises(ParameterError, match="seed must be an unsigned 64-bit integer"):
                draw(flag, 3)
            with pytest.raises(ParameterError, match="sample size must be a positive integer"):
                draw(0, flag)


@pytest.mark.parametrize("seed", [0, 20260814, 2**64 - 1])
def test_uniform_stream_blocks_are_numpys_jumped_philox(seed):
    # block j is Philox(key=seed) jumped j times, as numpy itself jumps it
    n = 3 * SAMPLE_BLOCK + 17
    stream = uniform_stream(seed, n)
    for j, start in enumerate(range(0, n, SAMPLE_BLOCK)):
        size = min(SAMPLE_BLOCK, n - start)
        block = np.random.Generator(np.random.Philox(key=seed).jumped(j)).random(size)
        assert np.array_equal(stream[start : start + size].view(np.int64), block.view(np.int64))


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


def test_tabulated_hazard_slope_is_the_cells_derivative_next_to_a_node():
    # a type a fraction of the stencil's step below a node: the slope is the
    # derivative inside its cell, not a blend of the two cells' slopes
    dist = irregular_tabulated()
    nodes = dist.nodes[1:-60]
    for gap in (1e-5, 1e-4, 1e-3):
        theta = nodes - gap * dist._step
        eps = 0.5 * gap * dist._step  # stays inside the cell below the node
        diff = (np.asarray(dist.hazard(theta + eps)) - np.asarray(dist.hazard(theta - eps))) / (2.0 * eps)
        slope = np.asarray(dist.hazard_slope(theta))
        assert np.max(np.abs(slope - diff) / np.maximum(np.abs(slope), 1.0)) <= 1e-5


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


# the second cell is twice as wide as the first, far below a step of 1
UNEVEN_TINY_TABLE = ([0.0, 1e-10, 3e-10], [1.0, 1.0, 1.0])
# a rounded linspace far from zero: its steps differ by ~1 ulp of 1e6, 4.7e-8 of the step
FAR_LINSPACE_TABLE = (np.linspace(1e6, 1e6 + 1.0, 401), np.ones(401))
# cells of one and two ulps of 1e6: within the ulp term of the spacing tolerance, yet 2:1 uneven
NEAR_ULP_TABLE = ([1e6, 1e6 + np.spacing(1e6), 1e6 + 3 * np.spacing(1e6)], [1.0, 1.0, 1.0])


def test_tabulated_validation():
    with pytest.raises(ParameterError):
        Tabulated([0.0, 0.5, 0.9], [1.0, 1.0, 1.0])  # uneven spacing
    with pytest.raises(ParameterError, match="uniformly spaced"):
        Tabulated(*UNEVEN_TINY_TABLE)
    with pytest.raises(ParameterError, match=r"step 1\.16415e-10 is within a few ulps of its nodes \(up to 1e\+06\)"):
        Tabulated(*NEAR_ULP_TABLE)
    with pytest.raises(ParameterError):
        Tabulated([0.0, 0.5, 1.0], [1.0, -0.1, 1.0])  # negative density
    with pytest.raises(ParameterError):
        Tabulated([0.0], [1.0])  # too short
    with pytest.raises(ParameterError):
        Tabulated([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])  # zero mass


def test_tabulated_accepts_a_rounded_linspace_far_from_zero():
    theta, dens = FAR_LINSPACE_TABLE
    steps = np.diff(theta)
    assert np.max(np.abs(steps - steps[0])) > 1e-8 * steps[0]  # a tolerance relative to the step alone rejects it
    dist = Tabulated(theta, dens)
    mid = float(theta[200])
    assert dist.survivor(mid) == pytest.approx(0.5, abs=1e-9)
    assert dist.hazard(mid) == pytest.approx(2.0, rel=1e-9)


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


@pytest.mark.parametrize("lower", [0.0, 1.0, 1.5, 1.910885061964363, 3.0, 4.0])
def test_truncated_ppf_accepts_u_next_to_one(lower):
    # the base CDF rounds to 1 at upper = 10, so cdf_lo + u*mass reaches 1.0
    # for u < 1 once the lower cut carries enough mass; the base argument is
    # held just below 1, and every argument that stayed below 1 keeps its value
    dist = Truncated(Weibull(2.0, 1.0), lower, 10.0)
    u = np.array([0.0, 0.5, 0.9, 1 - 2**-40, 1 - 2**-50, 1 - 2**-52, 1 - 2**-53])
    got = dist.ppf(u)
    assert np.all((got >= lower) & (got <= 10.0)) and np.all(np.diff(got) >= 0.0)
    base_u = dist._cdf_lo + u * dist._mass
    kept = base_u < 1.0
    assert np.array_equal(got[kept], np.clip(Weibull(2.0, 1.0).ppf(base_u[kept]), lower, 10.0))
    assert got[-1] == dist.ppf(1 - 2**-53) == float(Weibull(2.0, 1.0).ppf(1 - 2**-53))


def test_point_mass_behavior():
    dist = PointMass(0.5)
    assert dist.support == (0.5, 0.5)
    assert float(dist.ppf(0.3)) == 0.5
    assert float(dist.cdf(0.5)) == 1.0
    assert float(dist.cdf(0.49)) == 0.0
    # the atom convention: P(type > 0.5) = 0 at the atom itself
    assert dist.survivor(np.array([0.49, 0.5, 0.51])).tolist() == [1.0, 0.0, 0.0]
    with pytest.raises(ParameterError):
        dist.hazard(0.5)
    with pytest.raises(ParameterError):
        dist.hazard_slope(0.5)
    with pytest.raises(ParameterError):
        dist.pdf(0.5)
    with pytest.raises(DomainError, match=r"outside support \[0.5, 0.5\]"):
        dist.hazard(0.6)


def test_hazard_domain_and_tail_errors():
    dist = Weibull(2.0, 1.0)
    with pytest.raises(DomainError, match=r"outside support \[0.0, inf\] for kind 'weibull'"):
        dist.hazard(-0.1)
    with pytest.raises(DomainError, match=r"outside support \[0.0, inf\] for kind 'exponential'"):
        Exponential(1.0).hazard([0.5, -0.1])
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
        dist.grid(1, 1e-10)
    with pytest.raises(ParameterError):
        dist.grid(100, tail_mass=0.7)


def test_grid_starts_at_tail_quantile_when_hazard_diverges():
    dist = Weibull(0.7, 1.0)
    with pytest.raises(UpperSupportError):
        dist.hazard(0.0)
    g = dist.grid(1025, tail_mass=1e-10)
    assert g[0] == float(dist.ppf(1e-10)) > 0.0
    assert np.all(np.isfinite(dist.hazard(g)))


def test_infinite_hazard_at_positive_survival_raises():
    # the truncated density diverges at zero while the survival there is 1
    dist = Truncated(Weibull(0.7, 1.0), 0.0, 3.0)
    for point in (0.0, [0.0, 1.0]):
        with pytest.raises(UpperSupportError):
            dist.hazard(point)
    assert dist.grid(1025, tail_mass=1e-10)[0] == dist.ppf(1e-10) > 0.0


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


# Every evaluator of every continuous kind, pinned by digest on fixed points.
PINNED = {
    "weibull": Weibull(2.0, 1.0),
    "weibull-dfr": Weibull(0.7, 2.0),
    "exponential": Exponential(1.3),
    "uniform": Uniform(0.25, 1.75),
    "truncated": Truncated(Weibull(2.0, 1.0), 0.2, 1.4),
    "tabulated": irregular_tabulated(),
}

# SHA-256 of the array result on the points, then of one scalar call per 16th point
PINNED_DIGESTS = {
    "weibull": {
        "pdf": "b161f1298a4217363e60436f74fec43da0e32634cd9cd42920c57053c16d28c0",
        "cdf": "0e17a104aa174d338e605cf668517416f14fb762ebfa3cfbb7cd08c2d96df2df",
        "survivor": "2714329cd451e7d5f07ce90d8812efddbb0c3e7008b603b3c4e93373e96db8ef",
        "ppf": "0c92d8128dffa133e6b681be1f52b14df0c12bb132a610fea66c07b3cdcaf01e",
        "hazard": "3fa841081cd853f65551992ebea1233cbc5cf54a18c8f872a6d514c51f5a8fcc",
        "hazard_slope": "33b77a21e8efcd994d3e2add7fe7740543f0d8df758a657b5e704adf7de6a481",
    },
    "weibull-dfr": {
        "pdf": "21daef6f117fe2c12e5feb9ca0ad48a19931b20deafaf57e5ff37b6d6a83de05",
        "cdf": "353ecb9a02dfff67a843cb796ca2b49714c34deaa5b152ed246572b950cc554f",
        "survivor": "acfdff56226282d5f97d75487b991c7a5e59d2e03d97f755fce01e11619f0efd",
        "ppf": "34073720028b7db85f484ed48fe857b018a60ca7f6d7f411046d176530229825",
        "hazard": "a957b9c6515e4732aa82d0a61f886d045dcf1fc6fb98fbd60efdccb2c5c19d04",
        "hazard_slope": "29c40e56b27926f276d5aad59639f29c75ed7e74852081bdb71394492a98cb4e",
    },
    "exponential": {
        "pdf": "6b4fc94d69287f8b8f7b24caf5a015089d5f9848b25aa4a616a5f540cd41a937",
        "cdf": "1206bbb2d7c8c449a71da522d1cfdf8fc86bafaab35ed894360b421458555256",
        "survivor": "d7c23ecd02dd185e00b0cc645c96dc7caf2a77d5cd0704f350732a2b39b7f136",
        "ppf": "ea8c7bed96caa3054681594761f52fbd6dd9de6a5fe0c5fa520254cdfb81c24d",
        "hazard": "ba4088e466becaa44262ee8d5a97070da40d121b6953842de3e4681b9dc93bcc",
        "hazard_slope": "fda84991ef0af11f9dc37593fb262f63bb130cdc82f8dee61fa1385996ff052d",
    },
    "uniform": {
        "pdf": "914abade91b747e28851c89cb6728f65f7f7fb333196efa8f9be4b9f61888cc4",
        "cdf": "439e014b0072821aa9451a48ff78e405764c3267e34f3a2db972f1c1f4198302",
        "survivor": "7181892ae405717970bb6b531bc5db0246a294febde18b6c743a9cc5866481d1",
        "ppf": "9d90034a85de8d594a68275b2f4a47943de2b02655da1067bce2937699f4caea",
        "hazard": "c324f77d8e98efa7218d40d9e52223a326792c78cf780e9384b12fba4b0cee7b",
        "hazard_slope": "726cf7d983a69ef2bbe09f1e19d53f0f93a08b32c2bbfdb953ca66218c9f75b6",
    },
    "truncated": {
        "pdf": "1d9284c4a035017f558d648d25956fdfebbb133af5a8e98b9ed7bd3be492c062",
        "cdf": "152464b87145605db2cbffdb1b29c0bbd380ddefa9ddfcc67eab06e14bebb0f5",
        "survivor": "e9fa66f41ab277e8635dd15d1e3444715d277cbd731e02eaaed5aeedc4da0b65",
        "ppf": "6c6b179ff99a2fed25d2173a80aa53eb38dbd6eb635058808683f3dfaf8e9093",
        "hazard": "93a2eb1fd3492dabd1ea16f3b31d760ba0b1dfb3741d49cfb947e4843621306b",
        "hazard_slope": "cee174632c24c1ad01a1bd0a887983ac885732fce7d56b9c25156d35070c6570",
    },
    "tabulated": {
        "pdf": "d43e6e09f3451fa19afe75ab8c81117e13280e02ed37468eca6fbd22d836944d",
        "cdf": "d207f7e1b70256e135ca3a5ced8ed75c8b647b647d97e144f1627188c0d4e12c",
        "survivor": "3e108b94183451616826f2a3768f1377b8561f552c40e405b546e14218936889",
        "ppf": "c4360122d1b4a67123e879fcf768016e37f39c334492f6a8afaf38659819a1a0",
        "hazard": "cc8f82b99ec53e11ffb0c8ca6cf2d1c5ab9f2a771010f94f7f41c3c382c4ec40",
        "hazard_slope": "2fe1619f84d7b5a3028e663de3c24343d8e44fc49bbe822c543ffd2649c4daf9",
    },
}


def evaluator_points(dist):
    """Points for each evaluator: pdf, cdf and survivor also outside the support."""
    lo, hi = dist.support
    top = hi if math.isfinite(hi) else float(dist.ppf(1.0 - 1e-12))
    edges = np.array([lo, hi] if math.isfinite(hi) else [lo])
    wide = np.concatenate([
        np.linspace(lo - 0.5, top + 0.5, 301),
        np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf),
    ])
    u = np.concatenate([np.linspace(0.0, 1.0, 257)[:-1], [1.0 - 1e-12, np.nextafter(1.0, 0.0)]])
    grid = dist.grid(257, 1e-9)
    extra = np.random.default_rng(9).uniform(grid[0], grid[-1], 64)
    inner = np.concatenate([grid[1:-1], extra])  # the slope's points leave out the grid's end nodes
    return {"pdf": wide, "cdf": wide, "survivor": wide, "ppf": u,
            "hazard": np.concatenate([grid, extra]), "hazard_slope": inner}


def evaluator_digests(dist):
    digests = {}
    for name, pts in evaluator_points(dist).items():
        evaluate = getattr(dist, name)
        scalars = np.array([evaluate(float(x)) for x in pts[::16]])
        digests[name] = hashlib.sha256(evaluate(pts).tobytes() + scalars.tobytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", PINNED)
def test_evaluators_are_pinned(name):
    assert evaluator_digests(PINNED[name]) == PINNED_DIGESTS[name]


@pytest.mark.parametrize("name", PINNED)
def test_evaluator_contract(name):
    dist = PINNED[name]
    lo, hi = dist.support
    mid = dist.ppf(0.5)
    block = dist.ppf(np.linspace(0.2, 0.8, 6).reshape(2, 3))
    args = {"ppf": (0.5, np.linspace(0.2, 0.8, 6).reshape(2, 3))}
    for evaluator in ("pdf", "cdf", "survivor", "ppf", "hazard", "hazard_slope"):
        scalar, array = args.get(evaluator, (mid, block))
        evaluate = getattr(dist, evaluator)
        assert type(evaluate(scalar)) is float and type(evaluate(np.float64(scalar))) is float
        out = evaluate(array)
        assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (2, 3)
    for u in (-1e-12, 1.0, 1.5, [0.5, 1.0]):
        with pytest.raises(DomainError):
            dist.ppf(u)
    outside = [lo - 1e-9, [mid, lo - 1.0]] + ([hi + 1e-9] if math.isfinite(hi) else [])
    for point in outside:
        with pytest.raises(DomainError) as raised:
            dist.hazard(point)
        assert raised.type is DomainError
    divergent = {"uniform": hi, "truncated": hi, "tabulated": hi, "weibull-dfr": 0.0}
    if name in divergent:
        for point in (divergent[name], [mid, divergent[name]]):
            with pytest.raises(UpperSupportError):
                dist.hazard(point)


@pytest.mark.parametrize("name", PINNED)
def test_hazard_slope_checks_the_support_like_the_hazard(name):
    dist = PINNED[name]
    lo, hi = dist.support
    mid = dist.ppf(0.5)
    for point in [lo - 1e-9, [mid, lo - 1.0]] + ([hi + 1e-9] if math.isfinite(hi) else []):
        with pytest.raises(DomainError):
            dist.hazard_slope(point)
    # zero survival at the upper end, or the decreasing-hazard Weibull's divergence at zero
    divergent = {"uniform": hi, "truncated": hi, "tabulated": hi, "weibull-dfr": 0.0}
    if name in divergent:
        for point in (divergent[name], [mid, divergent[name]]):
            with pytest.raises(UpperSupportError):
                dist.hazard_slope(point)


TRUNCATED_BASES = [
    Truncated(Weibull(2.0, 1.0), 0.5, 2.0),
    Truncated(Weibull(0.7, 2.0), 0.3, 4.0),
    Truncated(Exponential(1.3), 0.2, 1.5),
    Truncated(Uniform(0.0, 3.0), 1.0, 2.5),
]


@pytest.mark.parametrize("dist", TRUNCATED_BASES, ids=lambda d: d.base.kind + f"-{d.lower}")
def test_truncated_hazard_slope_at_the_lower_bound(dist):
    # the slope at the lower bound needs no evaluation below it: a second-order
    # forward difference of the hazard checks it
    lo = dist.support[0]
    slope = dist.hazard_slope(lo)
    step = 1e-6
    forward = (-3.0 * dist.hazard(lo) + 4.0 * dist.hazard(lo + step) - dist.hazard(lo + 2 * step)) / (2 * step)
    assert slope == pytest.approx(forward, rel=1e-5)
    inside = np.linspace(lo, dist.support[1], 9)[:-1]
    assert dist.hazard_slope(inside)[0] == pytest.approx(slope, rel=1e-12)
    if dist == TRUNCATED_BASES[0]:
        assert slope == pytest.approx(2.0728324987, abs=1e-9)


def test_exponential_weibull_hazard_slope_is_zero_at_the_origin():
    # shape 1: the general formula k(k-1)/s^2 (theta/s)^(k-2) reads 0 * inf at 0
    dist = Weibull(1.0, 2.0)
    assert float(dist.hazard_slope(0.0)) == 0.0
    assert dist.hazard_slope(np.array([0.0, 1.0])).tolist() == [0.0, 0.0]


# every kind; the point mass has no hazard, but its domain checks come first
KINDS = {**PINNED, "point-mass": PointMass(0.5)}


@pytest.mark.parametrize("name", KINDS)
def test_nan_lies_outside_every_domain(name):
    dist = KINDS[name]
    mid = dist.ppf(0.5)
    for evaluator, inside in (("ppf", 0.5), ("hazard", mid), ("hazard_slope", mid)):
        for point in (math.nan, [inside, math.nan]):
            with pytest.raises(DomainError) as raised:
                getattr(dist, evaluator)(point)
            assert raised.type is DomainError


@pytest.mark.parametrize("evaluator", ["hazard", "hazard_slope"])
@pytest.mark.parametrize("name", KINDS)
def test_scalar_input_is_checked_as_a_one_element_array(name, evaluator):
    # 0-d input is checked with Python comparisons and math.isfinite, not
    # the array tests: the outcome must be the one-element array's, the
    # value to the bit or the same exception with the same message
    dist = KINDS[name]
    lo, hi = dist.support
    points = [math.nan, math.inf, -math.inf, -0.0, lo, hi, lo - 1.0, math.nextafter(lo, -math.inf),
              math.nextafter(hi, math.inf), float(dist.ppf(0.5))]
    assert_scalar_path_matches(getattr(dist, evaluator), points)


def outcome(evaluate, x):
    """What an evaluator gives: ("value", dtype, shape), or the exception's class and message."""
    try:
        value = evaluate(x)
    except Exception as exc:
        return type(exc), str(exc)
    return "value", np.asarray(value).dtype, np.shape(value)


@pytest.mark.parametrize("name", KINDS)
def test_array_domain_checks_fail_as_their_worst_point(name):
    # ppf, hazard and hazard_slope test an array by its min and max: an
    # empty array passes; a point outside the domain, NaN among them, raises
    # DomainError with the kind's message wherever it sits; otherwise each
    # pair fails as its failing point does alone (non-finite, or no hazard)
    dist = KINDS[name]
    lo, hi = dist.support
    mid = float(dist.ppf(0.5))
    edges = [math.nan, math.inf, -math.inf, -0.0, 0.0]
    quantile = ("quantile argument must lie in [0, 1)", lambda u: 0.0 <= u < 1.0,
                edges + [1.0, math.nextafter(1.0, 0.0), math.nextafter(0.0, -1.0), 1.5, 0.25])
    typed = (f"type value outside support [{lo}, {hi}] for kind '{dist.kind}'", lambda t: lo <= t <= hi,
             edges + [lo, hi, lo - 1.0, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), mid])
    for evaluator, (message, inside, points) in (("ppf", quantile), ("hazard", typed), ("hazard_slope", typed)):
        evaluate = getattr(dist, evaluator)
        alone = {x: outcome(evaluate, x) for x in points}  # the 0-d path
        for empty in (np.array([]), np.empty((0, 3))):  # the point mass has no hazard, even on no types
            want = alone[points[-1]] if alone[points[-1]][0] != "value" else ("value", np.float64, empty.shape)
            assert outcome(evaluate, empty) == want
        for x in points:
            if not inside(x):
                assert alone[x] == (DomainError, message)
            elif alone[x][0] == "value":
                assert alone[x] == ("value", np.float64, ())
        for a, b in itertools.product(points, repeat=2):
            if not (inside(a) and inside(b)):
                want = (DomainError, message)
            else:
                want = next((alone[x] for x in (a, b) if alone[x][0] != "value"), ("value", np.float64, (2, 1)))
            assert outcome(evaluate, np.array([[a], [b]])) == want, (evaluator, a, b)


@pytest.mark.parametrize("name", KINDS)
def test_sampling_by_block_is_the_whole_stream_inverted(name):
    dist = KINDS[name]
    n = 3 * SAMPLE_BLOCK + 17
    for seed in (0, 20260814):
        whole = dist.ppf(uniform_stream(seed, n))
        assert np.array_equal(sample_types(dist, n, seed).view(np.int64), whole.view(np.int64))


@pytest.mark.parametrize("name", KINDS)
def test_ppf_neither_changes_nor_returns_its_argument(name):
    # _ppf writes into its argument; ppf hands it a copy, so whatever the
    # caller passes (0-d, 1-d, 2-d, Fortran-ordered, strided or read-only)
    # keeps its values, and an array result owns its memory; the values are
    # the 1-d array's, bit for bit
    dist = KINDS[name]
    u = np.linspace(0.0, 0.95, 24)
    read_only = u.reshape(4, 6).copy()
    read_only.flags.writeable = False
    for arg in (np.array(0.3), u.copy(), u.reshape(4, 6).copy(), np.asfortranarray(u.reshape(4, 6)), u[::3], read_only):
        before = arg.copy()
        out = dist.ppf(arg)
        assert np.array_equal(arg.view(np.int64), before.view(np.int64))
        flat = dist.ppf(np.ravel(before))
        if arg.ndim == 0:
            assert type(out) is float and out == dist.ppf(float(before))
            continue
        assert isinstance(out, np.ndarray) and out is not arg and not np.shares_memory(out, arg)
        assert out.shape == arg.shape and np.array_equal(np.ravel(out).view(np.int64), flat.view(np.int64))
    assert not read_only.flags.writeable


# -- guide-table quantile cells ------------------------------------------------


@st.composite
def tabulated_tables(draw):
    """Densities with zero stretches (repeated CDF nodes), a narrow spike, or 2 nodes."""
    n = draw(st.sampled_from([2, 3, 401]) | st.integers(min_value=2, max_value=64))
    dens = np.array(draw(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=n, max_size=n)))
    shape = draw(st.sampled_from(["plain", "zero-stretches", "spike"]))
    if shape == "zero-stretches":
        dens[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
        lo = draw(st.integers(min_value=0, max_value=n - 1))
        dens[lo : draw(st.integers(min_value=lo, max_value=n))] = 0.0
    elif shape == "spike":
        dens = np.full(n, 1e-9)
        dens[draw(st.integers(min_value=0, max_value=n - 1))] = 1e6
    theta = np.linspace(0.0, draw(st.floats(min_value=0.01, max_value=100.0)), n)
    if not np.trapezoid(dens, theta) > 0.0:  # no mass, or only subnormal mass that the trapezoid rounds to 0
        dens[draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
    return theta, dens


@given(table=tabulated_tables(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=2000, derandomize=True)
def test_tabulated_quantile_cell_is_the_binary_search(table, seed):
    theta, dens = table
    dist = Tabulated(theta, dens)
    cdf = dist._cdf_nodes
    # 0, every cell edge k/K, the largest u below 1, one ulp around every CDF node
    u = np.concatenate([
        [0.0, 1 - 2**-53], np.arange(GUIDE_CELLS) / GUIDE_CELLS,
        cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf),
        np.random.Generator(np.random.Philox(seed)).random(1000),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert u.size >= GUIDE_CELLS
    want = np.searchsorted(cdf, u, side="right") - 1
    # below the size gate: the binary search itself, and no table
    chunks = np.array_split(u, -(-u.size // (GUIDE_CELLS - 1)))
    assert np.array_equal(np.concatenate([dist._cdf_cell(c) for c in chunks]), want)
    assert dist._guide is None
    small = np.concatenate([dist.ppf(c) for c in chunks])
    # at or above it: the guide table, built once
    assert np.array_equal(dist._cdf_cell(u), want)
    guide = dist._guide
    assert guide is not None and guide.size == GUIDE_CELLS
    assert np.array_equal(dist.ppf(u).view(np.int64), small.view(np.int64))
    assert np.array_equal(dist._cdf_cell(u.reshape(-1, 1)).ravel(), want)
    assert dist._guide is guide


# -- grid cells ------------------------------------------------------------------


@st.composite
def cell_grids(draw):
    """A linspace, a table uniform within ``Tabulated``'s tolerance, or coinciding edges."""
    n = draw(st.sampled_from([2, 3, 401, 65_537]) | st.integers(min_value=2, max_value=4097))
    lo = draw(st.floats(min_value=-1e3, max_value=1e3))
    width = draw(st.floats(min_value=1e-3, max_value=1e3))
    shape = draw(st.sampled_from(["linspace", "rounded", "coinciding"]))
    if shape == "coinciding":  # a point mass's Monte Carlo bin edges
        return np.full(n, lo), False
    xp = np.linspace(lo, lo + width, n)
    if shape == "rounded":  # each node moved up to 1 ulp: still uniform to Tabulated
        moves = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1)))).integers(-1, 2, n)
        xp = np.where(moves < 0, np.nextafter(xp, -np.inf), np.where(moves > 0, np.nextafter(xp, np.inf), xp))
        Tabulated(xp, np.ones(n))
    return xp, True


@given(grid=cell_grids(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=2000, derandomize=True)
def test_cell_index_is_the_clipped_binary_search(grid, seed):
    xp, indexed = grid
    rng = np.random.Generator(np.random.Philox(seed))
    nodes = xp[rng.integers(0, xp.size, size=64)]
    width = xp[-1] - xp[0]
    queries = np.concatenate([
        xp if xp.size <= 4097 else nodes,
        nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
        [xp[0] - width - 1.0, xp[-1] + width + 1.0, -np.inf, np.inf, -0.0, 0.0],
        rng.uniform(xp[0], xp[-1], size=256),
    ])

    def reference(x):
        return np.clip(np.searchsorted(xp, x, side="right") - 1, 0, xp.size - 2)

    got = _cell_index(queries, xp)
    assert got.dtype == np.intp and np.array_equal(got, reference(queries))
    assert (_grid_cell(queries, xp) is not None) == indexed  # the one multiply, unless the edges coincide
    with_nan = np.append(queries, np.nan)
    assert np.array_equal(_cell_index(with_nan, xp), reference(with_nan))
    square = queries[: queries.size // 2 * 2].reshape(2, -1)
    assert np.array_equal(_cell_index(square, xp), reference(square))
    for q in (nodes[0], queries[-1], xp[-1], np.nan):
        assert _cell_index(np.asarray(q), xp) == reference(q)
    if indexed:  # the tabulated density finds the same cells and offsets
        idx, offset = Tabulated(xp, np.ones(xp.size))._locate(queries)
        assert np.array_equal(idx, reference(queries))
        assert np.array_equal(offset.view(np.int64), (queries - xp[reference(queries)]).view(np.int64))
