from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from softbudget import (
    CapSchedule,
    Exponential,
    ParameterError,
    PointMass,
    PolicyPrimitives,
    QuadraticCost,
    Tabulated,
    TabulatedCost,
    Uniform,
    Weibull,
    WeightCurve,
    iron_weights,
    knife_edge,
    leader_cost,
    sample_types,
    solve_cap,
    transfer_schedule,
    virtual_weight,
)
from softbudget import mechanism
from softbudget.mechanism import VirtualWeightCurve, _grid_cell, _interp, _leftmost_crossing, _weight, caps_from_targets
from conftest import BENCH, irregular_tabulated


def hull_ironed(psi, weights):
    """Independent ironing oracle via the convex hull of the cumulative sum.

    The weighted monotone projection of psi equals the left derivative of
    the greatest convex minorant of the cumulative weighted sum P plotted
    against the cumulative weight W.  This builds that hull directly with
    the monotone-chain construction and reads the projection off as the
    slope of the hull segment covering each weight increment.
    """
    psi = np.asarray(psi, dtype=float)
    w = np.asarray(weights, dtype=float)
    W = np.concatenate([[0.0], np.cumsum(w)])
    P = np.concatenate([[0.0], np.cumsum(w * psi)])
    hull = []
    for point in zip(W, P):
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            cross = (ax - ox) * (point[1] - oy) - (ay - oy) * (point[0] - ox)
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(point)
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    slopes = np.diff(hy) / np.diff(hx)
    mids = 0.5 * (W[:-1] + W[1:])
    seg = np.clip(np.searchsorted(hx, mids, side="right") - 1, 0, slopes.size - 1)
    return slopes[seg]


def pav_reference(psi: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node-by-node pool-adjacent-violators, the reference for ``iron_weights``.

    This is the Python loop ``iron_weights`` ran before it worked on whole
    decreasing runs, kept unchanged: push each node as a block, and merge
    the top two blocks while the later mean is strictly lower (a zero-weight
    pair takes the plain average).
    """
    psi = np.asarray(psi, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if psi.shape != weights.shape or psi.ndim != 1:
        raise ParameterError("iron_weights needs matching 1-d value and weight arrays")
    if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(weights))):
        raise ParameterError("ironing values and weights must be finite")
    if np.any(weights < 0.0):
        raise ParameterError("ironing weights must be nonnegative")
    n = psi.size
    if bool(np.all(psi[1:] >= psi[:-1])):
        return psi.copy(), np.zeros(n, dtype=bool)
    # blocks as (mean, weight, count); merge while the tail violates monotonicity
    means: list[float] = []
    wts: list[float] = []
    counts: list[int] = []
    for i in range(n):
        means.append(float(psi[i]))
        wts.append(float(weights[i]))
        counts.append(1)
        while len(means) > 1 and means[-1] < means[-2]:
            w_hi, w_lo = wts[-1], wts[-2]
            total = w_hi + w_lo
            if total > 0.0:
                merged = (means[-2] * w_lo + means[-1] * w_hi) / total
            else:  # zero-density stretch: plain average keeps the projection defined
                merged = 0.5 * (means[-2] + means[-1])
            means[-2], wts[-2], counts[-2] = merged, total, counts[-2] + counts[-1]
            means.pop(), wts.pop(), counts.pop()
    out = np.empty(n)
    flags = np.zeros(n, dtype=bool)
    pos = 0
    for mean, count in zip(means, counts):
        if count == 1:
            out[pos] = psi[pos]  # untouched points keep their exact value
        else:
            out[pos : pos + count] = mean
            flags[pos : pos + count] = True
        pos += count
    return out, flags


def assert_matches_reference(psi, weights):
    """Same partition as the reference loop, values within 1e-12 of the input scale."""
    out, flags = iron_weights(psi, weights)
    ref_out, ref_flags = pav_reference(psi, weights)
    assert np.array_equal(flags, ref_flags)
    assert np.max(np.abs(out - ref_out), initial=0.0) <= 1e-12 * max(1.0, float(np.max(np.abs(psi))))
    assert np.array_equal(out[~flags], np.asarray(psi, dtype=float)[~flags])
    return out, flags


def ramp_then_deep_drop(n=65_537):
    """A rising ramp whose last node drops below the whole ramp's mean.

    The last node's block absorbs the ramp from its right end, so all of it
    pools.  Block PAV by rounds (merge every maximal decreasing run, repeat
    until monotone) grows that block by one node per round here: n rounds
    of O(n) work.  The node-by-node reference merges once per node.
    """
    return np.append(np.linspace(0.0, 1.0, n - 1), -float(n)), np.ones(n)


def bimodal_type_dist(gap, sigma=0.06, mix=0.8):
    nodes = np.linspace(0.0, 1.0, 401)
    dens = np.exp(-0.5 * ((nodes - 0.5 + gap / 2) / sigma) ** 2) + mix * np.exp(
        -0.5 * ((nodes - 0.5 - gap / 2) / sigma) ** 2
    )
    return Tabulated(nodes, dens + 1e-4)


# decreasing hazard on [0, inf): infinite at zero, so the grid starts at the
# tail quantile; its whole curve pools
DFR_WEIBULL = Weibull(0.7, 1.0)

NON_IFR_FIXTURES = [
    bimodal_type_dist(0.5),
    bimodal_type_dist(0.35, sigma=0.05, mix=1.2),
    bimodal_type_dist(0.6, sigma=0.08, mix=0.6),
    DFR_WEIBULL,
]
NON_IFR_IDS = ["wide", "tall", "spread", "dfr-weibull"]


# -- virtual weights --------------------------------------------------------


def test_virtual_weight_benchmark_value(bench_dist, bench_prim):
    curve = virtual_weight(bench_dist, bench_prim, 1.0)
    # hazard of Weibull(2, 1) is 2*theta, so the weight at 0.5 is 0.8
    assert float(np.interp(0.5, curve.theta, curve.psi)) == pytest.approx(0.8, abs=1e-12)
    assert not np.any(curve.ironed)
    assert np.array_equal(curve.psi, curve.psi_bar)


def test_virtual_weight_scales_inversely_with_lambda(bench_dist, bench_prim):
    base = virtual_weight(bench_dist, bench_prim, 1.0, grid_size=257)
    half = virtual_weight(bench_dist, bench_prim, 2.0, grid_size=257)
    assert np.allclose(half.psi, base.psi / 2.0, rtol=1e-13)


def test_virtual_weight_rejects_bad_lambda(bench_dist, bench_prim):
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            virtual_weight(bench_dist, bench_prim, bad)


def test_exponential_weight_is_flat_and_unironed(bench_prim):
    curve = virtual_weight(Exponential(1.0), bench_prim, 1.0, grid_size=513)
    assert np.allclose(curve.psi, 0.8, atol=1e-12)
    assert not np.any(curve.ironed)


# -- cap schedule -----------------------------------------------------------


def test_benchmark_cutoffs_and_interior_cap(bench_dist, bench_cost, bench_prim):
    curve = virtual_weight(bench_dist, bench_prim, 1.0)
    sched = solve_cap(curve, bench_cost)
    assert sched.regime == "mixed"
    assert sched.theta_min == pytest.approx(BENCH["theta_min"], abs=1e-6)
    assert sched.theta_dagger == pytest.approx(BENCH["theta_dagger"], abs=1e-6)
    # interior branch: b = (1.6 theta - 0.2) / 1
    assert float(sched.cap_at(0.3)) == pytest.approx(0.28, abs=1e-9)
    assert float(sched.cap_at(0.05)) == 0.0
    assert float(sched.cap_at(0.7)) == 0.8


def test_interior_first_order_condition(bench_dist, bench_cost, bench_prim):
    curve = virtual_weight(bench_dist, bench_prim, 1.0)
    sched = solve_cap(curve, bench_cost)
    interior = (sched.b_star > 1e-9) & (sched.b_star < bench_prim.b_bar - 1e-9) & ~curve.ironed
    assert np.any(interior)
    resid = np.abs(bench_cost.marginal(sched.b_star[interior]) - curve.psi_bar[interior])
    scale = np.maximum(1.0, curve.psi_bar[interior])
    assert np.max(resid / scale) <= 1e-8


def test_uniform_support_cutoff_at_lower_edge(bench_cost, bench_prim):
    # Uniform(0, 1) hazard starts at 1, so the weight 0.8 already exceeds
    # marginal cost at zero: every type gets a positive cap
    curve = virtual_weight(Uniform(0.0, 1.0), bench_prim, 1.0, grid_size=2049)
    sched = solve_cap(curve, bench_cost)
    assert sched.theta_min == 0.0
    assert float(sched.b_star[0]) == pytest.approx(0.6, abs=1e-12)
    assert np.all(sched.b_star > 0.0)


def test_monotone_cap_schedule(bench_dist, bench_cost, bench_prim):
    curve = virtual_weight(bench_dist, bench_prim, 1.0)
    sched = solve_cap(curve, bench_cost)
    assert np.all(np.diff(sched.b_star) >= -1e-12)
    assert np.all((sched.b_star >= 0.0) & (sched.b_star <= bench_prim.b_bar))


def test_cap_regime_interior_when_bound_never_binds(bench_cost, bench_prim):
    curve = virtual_weight(Exponential(1.0), bench_prim, 1.0, grid_size=513)
    sched = solve_cap(curve, bench_cost)
    assert sched.regime == "interior"
    assert sched.theta_dagger is None
    assert np.allclose(sched.b_star, 0.6, atol=1e-12)


def test_schedule_records_the_curve_and_cost_it_was_solved_from(bench_dist, bench_cost, bench_prim):
    curve = virtual_weight(bench_dist, replace(bench_prim, b_bar=0.5), 0.9, grid_size=257)
    sched = solve_cap(curve, bench_cost)
    assert sched.curve is curve and sched.cost is bench_cost
    assert sched.b_star.max() == 0.5  # b_bar is the curve's
    assert transfer_schedule(sched).cap is sched


# -- knife edge -------------------------------------------------------------


def test_knife_edge_exponential_margin(bench_prim):
    dist = Exponential(1.0)
    curve = virtual_weight(dist, bench_prim, 1.0)
    report = knife_edge(curve, QuadraticCost(1.0, 1.0))
    assert report.no_rescue is True
    assert report.margin == pytest.approx(0.2, abs=1e-12)
    assert report.truncated_support is True
    report2 = knife_edge(curve, QuadraticCost(0.5, 1.0))
    assert report2.no_rescue is False
    assert report2.margin == pytest.approx(-0.3, abs=1e-12)


def test_knife_edge_unbounded_hazard_never_shuts_down(bench_dist, bench_prim):
    report = knife_edge(virtual_weight(bench_dist, bench_prim, 1.0), QuadraticCost(5.0, 1.0))
    # Weibull(2) hazard grows without bound; the truncated sup already
    # exceeds any practical origin cost
    assert report.truncated_support is True
    assert report.no_rescue is False


def test_knife_edge_true_forces_zero_caps(bench_prim):
    dist = Exponential(1.0)
    cost = QuadraticCost(1.0, 1.0)
    curve = virtual_weight(dist, bench_prim, 1.0, grid_size=513)
    assert knife_edge(curve, cost).no_rescue
    sched = solve_cap(curve, cost)
    assert sched.regime == "no-rescue"
    assert sched.theta_min is None and sched.theta_dagger is None
    assert np.all(sched.b_star == 0.0)


def test_knife_edge_uses_commitment_lambda_by_default(bench_prim):
    commitment = virtual_weight(Exponential(1.0), bench_prim, bench_prim.omega_T)
    assert knife_edge(commitment, QuadraticCost(1.0, 1.0)).lambda_T == bench_prim.omega_T


# -- transfers --------------------------------------------------------------


def test_benchmark_transfers_clip_to_zero(bench_dist, bench_cost, bench_prim):
    curve = virtual_weight(bench_dist, bench_prim, 1.0)
    sched = solve_cap(curve, bench_cost)
    tr = transfer_schedule(sched)
    # caps rise with type, so the unprojected transfer falls; the
    # nonnegativity projection pins it at zero everywhere
    assert np.all(tr.t_star == 0.0)
    above = curve.theta > sched.theta_min + 1e-3
    assert np.all(tr.t_pre[above] < 0.0)
    assert np.all(tr.ll_binding[above])
    below = curve.theta < sched.theta_min - 1e-3
    assert np.all(tr.t_pre[below] == 0.0)
    assert not np.any(tr.ll_binding[below])


def test_no_rescue_transfers_unpinned(bench_prim):
    curve = virtual_weight(Exponential(1.0), bench_prim, 1.0, grid_size=257)
    sched = solve_cap(curve, QuadraticCost(1.0, 1.0))
    tr = transfer_schedule(sched)
    assert np.all(tr.t_star == 0.0)
    assert np.all(tr.t_pre == 0.0)
    assert np.all(tr.unpinned)


def test_decreasing_cap_fixture_raises_transfers(bench_prim):
    # hand-built schedule with a cap that declines by 0.1: the transfer
    # must rise by (omega_b / omega_T) * 0.1 = 0.08 to keep incentives flat
    theta = np.linspace(0.0, 1.0, 101)
    b = 0.5 - 0.1 * theta
    curve = VirtualWeightCurve(theta, np.ones(theta.size), Uniform(0.0, 1.0), bench_prim, 1.0)
    sched = CapSchedule(curve=curve, cost=QuadraticCost(0.2, 1.0), b_star=b, theta_min=0.0, theta_dagger=None,
                        regime="interior")
    tr = transfer_schedule(sched)
    assert tr.t_star[0] == 0.0
    assert tr.t_star[-1] == pytest.approx(0.08, abs=1e-12)
    assert np.all(np.diff(tr.t_star) > 0.0)
    assert not np.any(tr.ll_binding)
    assert not np.any(tr.unpinned)


# -- leader cost ------------------------------------------------------------


def test_leader_cost_zero_under_no_rescue(bench_prim):
    curve = virtual_weight(Exponential(1.0), bench_prim, 1.0, grid_size=257)
    sched = solve_cap(curve, QuadraticCost(1.0, 1.0))
    tr = transfer_schedule(sched)
    assert leader_cost(tr) == 0.0


def test_leader_cost_benchmark_quadrature(bench_dist, bench_cost, bench_prim):
    curve = virtual_weight(bench_dist, bench_prim, 1.0)
    sched = solve_cap(curve, bench_cost)
    tr = transfer_schedule(sched)
    value = leader_cost(tr)
    assert value == pytest.approx(BENCH["leader_cost"], abs=1e-5)


def test_leader_cost_monte_carlo_cross_check(bench_dist, bench_cost, bench_prim):
    curve = virtual_weight(bench_dist, bench_prim, 1.0)
    sched = solve_cap(curve, bench_cost)
    tr = transfer_schedule(sched)
    value = leader_cost(tr)
    draws = sample_types(bench_dist, 400_000, seed=31)
    caps = sched.cap_at(np.minimum(draws, curve.theta[-1]))
    mc = float(np.mean(bench_cost.value(caps)))  # transfers are zero here
    assert abs(mc - value) <= 2e-3


def test_leader_cost_point_mass(bench_cost, bench_prim):
    dist = PointMass(0.5)
    curve = virtual_weight(dist, bench_prim, 1.0)
    sched = solve_cap(curve, bench_cost)
    assert float(sched.b_star[0]) == pytest.approx(0.6, abs=1e-12)
    tr = transfer_schedule(sched)
    value = leader_cost(tr)
    assert value == pytest.approx(0.30, abs=1e-12)



def test_leader_cost_reads_the_curve_density(monkeypatch, bench_dist, bench_cost, bench_prim):
    curve = virtual_weight(bench_dist, bench_prim, 1.0, grid_size=257)
    sched = solve_cap(curve, bench_cost)
    tr = transfer_schedule(sched)
    expected = np.trapezoid(bench_cost.value(sched.b_star) * curve.density, curve.theta)

    def no_pdf(self, theta):
        raise AssertionError("leader_cost evaluated the density again")

    monkeypatch.setattr(type(bench_dist), "pdf", no_pdf)
    assert leader_cost(tr) == expected


# -- ironing ----------------------------------------------------------------


@pytest.mark.parametrize("dist", NON_IFR_FIXTURES, ids=NON_IFR_IDS)
def test_ironing_matches_hull_oracle(dist, bench_prim):
    curve = virtual_weight(dist, bench_prim, 1.0, grid_size=801, tail_mass=1e-6)
    assert np.any(curve.ironed), "fixture must actually trigger pooling"
    oracle = hull_ironed(curve.psi, curve.density)
    assert np.max(np.abs(curve.psi_bar - oracle)) <= 1e-6
    assert np.all(np.diff(curve.psi_bar) >= -1e-12)


@pytest.mark.parametrize("dist", NON_IFR_FIXTURES, ids=NON_IFR_IDS)
def test_ironing_preserves_weighted_mass_per_block(dist, bench_prim):
    curve = virtual_weight(dist, bench_prim, 1.0, grid_size=801, tail_mass=1e-6)
    flags = curve.ironed
    edges = np.flatnonzero(np.diff(flags.astype(int))) + 1
    blocks = np.split(np.arange(flags.size), edges)
    for block in blocks:
        if not flags[block[0]]:
            continue
        w = curve.density[block]
        before = float(np.sum(w * curve.psi[block]))
        after = float(np.sum(w * curve.psi_bar[block]))
        assert abs(after - before) <= 1e-9 * max(1.0, abs(before))


def test_ironing_untouched_points_exact(bench_prim):
    curve = virtual_weight(NON_IFR_FIXTURES[0], bench_prim, 1.0, grid_size=801, tail_mass=1e-6)
    free = ~curve.ironed
    assert np.any(free)
    assert np.array_equal(curve.psi_bar[free], curve.psi[free])


def test_ironing_idempotent(bench_prim):
    curve = virtual_weight(NON_IFR_FIXTURES[1], bench_prim, 1.0, grid_size=801, tail_mass=1e-6)
    again, flags = iron_weights(curve.psi_bar, curve.density)
    assert np.max(np.abs(again - curve.psi_bar)) <= 1e-12
    assert not np.any(flags)


def test_iron_weights_validation():
    with pytest.raises(ParameterError):
        iron_weights(np.array([1.0, 0.5]), np.array([1.0]))
    with pytest.raises(ParameterError):
        iron_weights(np.array([1.0, 0.5]), np.array([1.0, -1.0]))


def test_iron_weights_rejects_a_nan_value():
    # unchecked, the NaN passed every merge test and came back unpooled
    with pytest.raises(ParameterError):
        iron_weights(np.array([1.0, np.nan, 0.5]), np.ones(3))


def test_iron_weights_rejects_a_nan_weight():
    # unchecked, the NaN weight failed total > 0 and was averaged as zero density
    with pytest.raises(ParameterError):
        iron_weights(np.array([1.0, 2.0, 0.5]), np.array([1.0, np.nan, 1.0]))


def test_iron_weights_rejects_an_infinite_value():
    # unchecked, the infinity pooled its right neighbour up to infinity
    with pytest.raises(ParameterError):
        iron_weights(np.array([1.0, np.inf, 0.5]), np.ones(3))


def test_decreasing_hazard_weibull_solves(bench_prim, bench_cost):
    curve = virtual_weight(DFR_WEIBULL, bench_prim, 1.0)
    assert curve.theta[0] > 0.0
    assert np.all(np.isfinite(curve.psi))
    assert np.any(curve.ironed)
    assert np.max(np.abs(curve.psi_bar - hull_ironed(curve.psi, curve.density))) <= 1e-8 * np.max(curve.psi_bar)
    sched = solve_cap(curve, bench_cost)
    assert np.all(np.diff(sched.b_star) >= 0.0)
    transfers = transfer_schedule(sched)
    assert np.isfinite(leader_cost(transfers))
    assert not knife_edge(curve, bench_cost).no_rescue


def test_iron_weights_monotone_with_ties_is_untouched():
    psi = np.array([0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 2.0])
    w = np.array([1.0, 0.25, 2.0, 1.0, 0.5, 3.0, 1.0])
    out, flags = iron_weights(psi, w)
    assert np.array_equal(out, psi)
    assert flags.dtype == bool and not np.any(flags)
    assert np.array_equal(out, hull_ironed(psi, w))


def test_iron_weights_monotone_returns_a_copy():
    psi = np.linspace(0.0, 1.0, 9)
    out, _ = iron_weights(psi, np.ones(9))
    assert out is not psi and not np.shares_memory(out, psi)
    out[0] = 99.0
    assert psi[0] == 0.0


def test_iron_weights_monotone_input_still_validated():
    psi = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ParameterError):
        iron_weights(psi, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ParameterError):
        iron_weights(psi, np.ones(2))


def test_iron_weights_pools_a_one_ulp_drop():
    psi = np.array([1.0, np.nextafter(1.0, 0.0), 2.0])
    out, flags = iron_weights(psi, np.ones(3))
    assert flags.tolist() == [True, True, False]
    assert out[0] == out[1]


def test_knife_edge_reads_a_given_curve(bench_dist, bench_prim, bench_cost):
    curve = virtual_weight(bench_dist, bench_prim, 0.9)
    report = knife_edge(curve, bench_cost)
    assert report.lambda_T == 0.9
    assert report.sup_virtual_weight == float(np.max(curve.psi))
    assert report.margin == bench_cost.marginal_at_zero - report.sup_virtual_weight


def test_curve_records_its_inputs(bench_dist, bench_prim):
    curve = virtual_weight(bench_dist, bench_prim, 0.9, 257, 1e-8)
    assert (curve.dist, curve.prim, curve.lambda_T) == (bench_dist, bench_prim, 0.9)
    assert np.array_equal(curve.theta, bench_dist.grid(257, 1e-8))


def test_point_mass_curve_irons_to_itself(bench_prim):
    curve = virtual_weight(PointMass(0.5), bench_prim, 0.9)
    assert curve.degenerate and curve.theta.tolist() == [0.5]
    assert curve.psi.tolist() == [bench_prim.gamma * bench_prim.omega_b / 0.9]
    assert curve.density.tolist() == [1.0]
    assert np.array_equal(curve.psi_bar, curve.psi) and curve.psi_bar is not curve.psi
    assert curve.ironed.tolist() == [False]


def _count_ironing(monkeypatch):
    from softbudget import mechanism

    calls = []
    original = mechanism.iron_weights

    def counting(psi, weights):
        calls.append(len(psi))
        return original(psi, weights)

    monkeypatch.setattr(mechanism, "iron_weights", counting)
    return calls


def test_knife_edge_never_irons(monkeypatch, bench_prim, bench_cost):
    calls = _count_ironing(monkeypatch)
    for dist in (DFR_WEIBULL, Exponential(1.0)):
        knife_edge(virtual_weight(dist, bench_prim, 1.0, grid_size=257), bench_cost)
    assert calls == []


def test_curve_irons_at_most_once(monkeypatch, bench_prim, bench_cost):
    calls = _count_ironing(monkeypatch)
    curve = virtual_weight(DFR_WEIBULL, bench_prim, 1.0, grid_size=257)
    assert calls == []
    first = curve.psi_bar
    for _ in range(3):
        assert curve.psi_bar is first
        assert np.any(curve.ironed) and curve.density.size == 257
        solve_cap(curve, bench_cost)
    assert calls == [257]


@given(
    values=st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=2, max_size=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_iron_weights_properties(values, seed):
    psi = np.array(values)
    rng = np.random.Generator(np.random.Philox(seed))
    w = rng.uniform(0.1, 2.0, size=psi.size)
    out, flags = iron_weights(psi, w)
    assert np.all(np.diff(out) >= -1e-12)
    assert abs(np.sum(w * out) - np.sum(w * psi)) <= 1e-9 * max(1.0, abs(np.sum(w * psi)))
    assert out.min() >= psi.min() - 1e-12 and out.max() <= psi.max() + 1e-12
    oracle = hull_ironed(psi, w)
    assert np.max(np.abs(out - oracle)) <= 1e-8



# ties: repeated values; 0.5 and the double just below it: one-ulp drops
_TIE_VALUES = [-1.0, 0.0, float(np.nextafter(0.5, 0.0)), 0.5, 1.0, 2.0]


@st.composite
def pav_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    value = st.one_of(st.sampled_from(_TIE_VALUES), st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    psi = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    if draw(st.booleans()):
        psi = np.unique(psi)[::-1].copy()  # all decreasing
        n = psi.size
    weight = st.floats(min_value=-9.0, max_value=0.0).map(lambda e: 10.0**e)
    w = np.array(draw(st.lists(weight, min_size=n, max_size=n)))
    zeros = draw(st.sampled_from(["none", "leading", "interior", "scattered", "all"]))
    if zeros == "leading":
        w[: draw(st.integers(min_value=1, max_value=n))] = 0.0
    elif zeros == "interior":
        lo = draw(st.integers(min_value=0, max_value=n - 1))
        w[lo : draw(st.integers(min_value=lo + 1, max_value=n))] = 0.0
    elif zeros == "scattered":
        w[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    elif zeros == "all":
        w[:] = 0.0
    return psi, w


@given(pav_inputs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_iron_weights_matches_the_reference_loop(case):
    # Weights are drawn from a continuum, so a pooled mean never exactly ties
    # a neighbour: at such a tie (equal weights, values on a coarse lattice)
    # the loop's running pairwise means and the run-level block sums round
    # differently, and either may merge.  Repeated values do tie exactly.
    psi, w = case
    assert_matches_reference(psi, w)


@pytest.mark.parametrize("psi, pooled", [
    # the block's mean reaches the next node's value exactly: the node stays
    # out, after a short reach and after one long enough to scan in chunks,
    # met leftward and rightward
    ([0.5, 1.0, 1.0, -0.5], slice(1, None)),
    ([0.5] + [1.0] * 10 + [-4.5], slice(1, None)),
    ([3.0, 0.0, 0.0, 1.0], slice(0, -1)),
    ([12.0] + [0.0] * 11 + [1.0], slice(0, -1)),
], ids=["left-short", "left-long", "right-short", "right-long"])
def test_iron_weights_a_mean_tying_its_neighbour_does_not_pool(psi, pooled):
    psi = np.array(psi)
    out, flags = assert_matches_reference(psi, np.ones(psi.size))
    expected = np.zeros(psi.size, dtype=bool)
    expected[pooled] = True
    assert np.array_equal(flags, expected)
    assert np.all(out == out[pooled][0])


def test_iron_weights_single_node():
    out, flags = iron_weights(np.array([0.3]), np.array([0.0]))
    assert out.tolist() == [0.3] and flags.tolist() == [False]


def test_iron_weights_zero_weight_blocks_average_in_node_order():
    # all-zero weights: each merge takes the plain average, in the order the
    # node-by-node pass merges; 1.1875 here, not 1.5625 from pooling the
    # drop first
    psi = np.array([0.0, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0])
    out, flags = assert_matches_reference(psi, np.zeros(7))
    assert flags.tolist() == [False] + [True] * 6
    assert out[1:].tolist() == [1.1875] * 6


def test_iron_weights_ramp_then_deep_drop():
    psi, w = ramp_then_deep_drop()
    out, flags = assert_matches_reference(psi, w)
    assert np.all(flags)
    assert out[0] == pytest.approx((np.sum(psi[:-1]) + psi[-1]) / psi.size, rel=1e-15)


def exact_pav(values, weights):
    """Pool-adjacent-violators in exact rational arithmetic, ties not pooled.

    Returns the per-node means, the per-node pooled flags, and whether any
    comparison of a block mean with its left neighbour met an exact tie.
    """
    blocks = []  # [mass, weight, nodes]
    tied = False
    for value, weight in zip(values, weights):
        blocks.append([value * weight, Fraction(weight), 1])
        while len(blocks) > 1:
            (m0, w0, c0), (m1, w1, c1) = blocks[-2], blocks[-1]
            tied |= m1 / w1 == m0 / w0
            if not m1 / w1 < m0 / w0:
                break
            blocks[-2:] = [[m0 + m1, w0 + w1, c0 + c1]]
    means, flags, sizes = [], [], []
    for mass, weight, count in blocks:
        means += [mass / weight] * count
        flags += [count > 1] * count
        sizes += [count] * count
    return means, flags, sizes, tied


@given(
    steps=st.sampled_from([10, 100]),
    cells=st.lists(st.tuples(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=5)),
                   min_size=2, max_size=15),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_iron_weights_matches_exact_pav_on_lattices(steps, cells):
    # values k/steps on a 0.1 or 0.01 lattice, small-integer weights: exact
    # ties between a pooled mean and its neighbour are common, and only
    # there may rounding decide whether a node pools
    values = [Fraction(k % (5 * steps + 1), steps) for k, _ in cells]
    weights = [w for _, w in cells]
    out, flags = iron_weights(np.array([float(v) for v in values]), np.array(weights, dtype=float))
    means, exact_flags, sizes, tied = exact_pav(values, weights)
    exact = np.array([float(m) for m in means])
    # a pooled value is one sum of m rounded products w*psi over an exact sum
    # of weights: within 2 ulp up to 6 nodes a block, within m/2 above
    ulps = np.maximum(2.0, np.array(sizes) / 2.0) * np.spacing(exact)
    assert np.all(np.abs(out - exact) <= ulps)
    if not tied:
        assert flags.tolist() == exact_flags


def hand_built_curve(hazard, density):
    """A curve whose psi is ``hazard`` exactly (gamma = omega_b = lambda_T = 1), with the given ironing weights."""
    prim = PolicyPrimitives(omega_T=1.0, omega_b=1.0, gamma=1.0, b_bar=1.0)
    curve = VirtualWeightCurve(np.arange(float(hazard.size)), hazard.copy(), None, prim, 1.0)
    curve.__dict__.update(hazard=hazard, density=density)
    return curve


@given(pav_inputs(), st.integers(min_value=-8, max_value=8))
@example(case=(np.array([1.5, 0.5, 1.0, 0.8]), np.array([2.0, 3.0, 2.0, 2.0])), power=3)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_curve_at_other_weights_repools_as_iron_weights_irons(case, power):
    # at lambda_T = 2^-power psi is 2^power times the source's, exactly, so
    # PAV on it pools the source's blocks and rounds every mean the same
    # way: the inherited partition must give iron_weights' output bit for
    # bit.  The example holds two adjacent blocks with the same mean 0.9,
    # which PAV keeps apart; pooled as one block they read 0.8999999999999999
    psi, w = case
    assume(np.all((psi == 0.0) | (np.abs(psi) > 1e-200)))  # no subnormal products
    derived = hand_built_curve(psi, w).at(PolicyPrimitives(omega_T=1.0, omega_b=1.0, gamma=1.0, b_bar=1.0),
                                          2.0**-power)
    assert derived.psi.tobytes() == (psi * 2.0**power).tobytes()
    out, flags = iron_weights(derived.psi, w)
    assert derived.psi_bar.tobytes() == out.tobytes()
    assert derived.ironed.tobytes() == flags.tobytes()


def test_ironing_records_adjacent_blocks_with_equal_means_apart():
    curve = hand_built_curve(np.array([1.5, 0.5, 1.0, 0.8]), np.array([2.0, 3.0, 2.0, 2.0]))
    assert curve.psi_bar.tolist() == [0.9] * 4 and curve.ironed.all()
    assert curve._ironing.starts.tolist() == [0, 2] and curve._ironing.pooled.tolist() == [True, True]


def test_curve_at_keeps_its_omega_b_curve(bench_dist, bench_prim):
    # re-pooling holds for a scalar rescale only: a different omega_b curve
    # is rejected, while the same curve at another lambda_T or gamma is kept
    weights = WeightCurve([0.0, 3.0], [0.5, 1.0])
    prim = replace(bench_prim, omega_b=weights)
    curve = virtual_weight(bench_dist, prim, 1.0, grid_size=257)
    derived = curve.at(replace(prim, gamma=0.9), 0.8)
    assert derived.psi.tobytes() == virtual_weight(bench_dist, derived.prim, 0.8, grid_size=257).psi.tobytes()
    for other in (WeightCurve([0.0, 3.0], [0.5, 1.0]), 0.8):
        with pytest.raises(ParameterError, match="omega_b"):
            curve.at(replace(prim, omega_b=other), 1.0)
    with pytest.raises(ParameterError, match="omega_b"):
        virtual_weight(bench_dist, bench_prim, 1.0, grid_size=257).at(prim, 1.0)


def test_strict_crossing_on_a_node_that_meets_the_target_is_that_node(bench_dist, bench_prim):
    # quadratic alpha = 0 on Weibull(2, 1): psi(0) = 0 = C'(0), so the lower
    # cutoff is the support's edge theta[0], not 8.52e-15 inside the first cell
    sched = solve_cap(virtual_weight(bench_dist, bench_prim, 1.0), QuadraticCost(0.0, 1.0))
    assert sched.theta_min == sched.curve.theta[0] == 0.0
    theta = np.array([0.0, 1.0, 2.0, 3.0])
    values = np.array([0.0, 0.5, 0.5, 1.0])
    assert _leftmost_crossing(theta, values, 0.5, strict=True) == 2.0
    assert _leftmost_crossing(theta, values, 0.5, strict=False) == 1.0
    assert 0.0 < _leftmost_crossing(theta, values, 0.25, strict=True) - 0.5 < 1e-13


def test_caps_from_targets_sends_targets_at_or_above_the_top_to_b_bar():
    # C'^{-1}(C'(0.7)) is 0.6999999999999998 for this cost, so only the
    # comparison with C'(b_bar) gives the cap exactly b_bar there
    cost = QuadraticCost(0.1, 0.2)
    c_top = cost.marginal(0.7)
    b = caps_from_targets(np.array([0.05, 0.2, c_top, 2.0]), cost, 0.7)
    assert b.tolist() == [0.0, cost.inverse_marginal(0.2), 0.7, 0.7]
    # a tabulated cost never inverts a target above its table
    table = TabulatedCost([0.0, 0.5, 1.0], [0.2, 0.6, 1.0])
    targets = np.array([0.1, table.marginal(0.8), 5.0])
    assert caps_from_targets(targets, table, 0.8).tolist() == [0.0, 0.8, 0.8]


def test_caps_from_targets_gives_no_cap_at_the_marginal_cost_at_zero():
    # solve_cap puts a type whose target equals C'(0) below theta_min (its
    # test is psi > C'(0)), so its cap must be exactly 0, the leftmost
    # preimage, for a tabulated cost as for a quadratic one
    for cost in (TabulatedCost([0.0, 0.5, 1.0], [0.2, 0.6, 1.0]), QuadraticCost(0.2, 1.0)):
        assert cost.inverse_marginal(0.2) == 0.0
        assert caps_from_targets(np.array([0.2, 0.3]), cost, 0.8)[0] == 0.0
    # a plateau starting at the origin inverts to the origin too
    assert TabulatedCost([0.0, 0.5, 1.0], [0.2, 0.2, 1.0]).inverse_marginal(0.2) == 0.0


# -- caps keep the bits of their select forms ---------------------------------


def quadratic_inverse_reference(cost, y):
    """``QuadraticCost.inverse_marginal`` as a select, the form it had before."""
    arr = np.asarray(y, dtype=float)
    return np.where(arr < cost.alpha, 0.0, (arr - cost.alpha) / cost.kappa)


def caps_reference(psi_values, cost, b_bar):
    """``caps_from_targets`` with its select always applied, the form it had before."""
    psi_values = np.asarray(psi_values, dtype=float)
    c_top = float(cost.marginal(b_bar))
    clipped = np.minimum(psi_values, c_top)
    if isinstance(cost, QuadraticCost):
        payout = quadratic_inverse_reference(cost, clipped)
    else:
        payout = cost.inverse_marginal(clipped)
    return np.where(psi_values >= c_top, float(b_bar), np.clip(payout, 0.0, b_bar))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_select_bits(got, want, targets):
    """Equal bits, but a target of -0.0 gives +0.0 where the select gave -0.0 (alpha = 0)."""
    signed_zero = (targets == 0.0) & np.signbit(targets)
    assert same_bits(got[~signed_zero], want[~signed_zero])
    assert same_bits(got[signed_zero], np.abs(want[signed_zero]))


def edge_targets(cost, b_bar, nan=True):
    """-0.0, 0.0, NaN, C'(0) and C'(b_bar) each with its neighbours, and a spread between."""
    ends = np.array([cost.marginal_at_zero, cost.marginal(b_bar)])
    spread = np.linspace(-0.5, 1.5, 41) * ends[1]
    targets = [[-0.0, 0.0], ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf), spread]
    if nan:
        targets.append([np.nan, -np.inf, np.inf])
    return np.concatenate(targets)


# alpha = 0 and alpha > 0; the select path: C'^{-1}(C'(2.22)) rounds to 2.2199999999999998;
# a kappa whose quotient underflows to -0.0 just below alpha
QUADRATIC_CASES = [
    (QuadraticCost(0.0, 1.0), 0.8),
    (QuadraticCost(0.0, 0.37), 2.22),
    (QuadraticCost(0.2, 1.0), 0.8),
    (QuadraticCost(1.16, 0.37), 2.22),
    (QuadraticCost(0.5, 1e308), 1e-300),
]


@pytest.mark.parametrize("cost, b_bar", QUADRATIC_CASES, ids=lambda v: repr(v))
def test_quadratic_inverse_keeps_the_bits_of_its_select(cost, b_bar):
    targets = edge_targets(cost, b_bar)
    payouts = cost.inverse_marginal(targets)
    assert_select_bits(payouts, quadratic_inverse_reference(cost, targets), targets)
    for y, payout in zip(targets, payouts):
        scalar = cost.inverse_marginal(float(y))
        assert type(scalar) is float and same_bits(scalar, payout)


@pytest.mark.parametrize("cost, b_bar", QUADRATIC_CASES + [(TabulatedCost([0.0, 0.5, 1.0], [0.2, 0.6, 1.0]), 0.8)],
                         ids=lambda v: repr(v))
def test_caps_from_targets_keeps_the_bits_of_its_select(cost, b_bar):
    targets = edge_targets(cost, b_bar, nan=isinstance(cost, QuadraticCost))  # a table rejects NaN
    assert_select_bits(caps_from_targets(targets, cost, b_bar), caps_reference(targets, cost, b_bar), targets)


def test_caps_from_targets_selects_only_where_the_top_inversion_rounds_off_b_bar(monkeypatch):
    select = QuadraticCost(1.16, 0.37)
    assert select.inverse_marginal(select.marginal(2.22)) == 2.2199999999999998
    assert caps_from_targets(np.array([select.marginal(2.22), 9.0]), select, 2.22).tolist() == [2.22, 2.22]
    bench = QuadraticCost(0.2, 1.0)  # the benchmark cost needs no select
    assert bench.inverse_marginal(bench.marginal(0.8)) == 0.8
    # count the selects: none for the benchmark cost, one for a cost whose
    # C'^{-1}(C'(b_bar)) rounds off b_bar, which still caps every target at
    # or above C'(b_bar) at exactly b_bar
    selects = []
    where = np.where
    monkeypatch.setattr(np, "where", lambda *args: selects.append(1) or where(*args))
    caps_from_targets(np.linspace(0.0, 2.0, 101), bench, 0.8)
    assert selects == []
    rounds_off = QuadraticCost(0.0, 0.2)
    c_top = rounds_off.marginal(0.7)
    assert rounds_off.inverse_marginal(c_top) == 0.6999999999999998
    top = np.array([c_top, np.nextafter(c_top, np.inf), 1.0, 9.0, np.inf])
    assert caps_from_targets(top, rounds_off, 0.7).tolist() == [0.7] * top.size
    assert selects == [1]


def caps_out_of_place(psi_values, cost, b_bar):
    """``caps_from_targets`` with a fresh array at every step, the form it had before."""
    psi_values = np.asarray(psi_values, dtype=float)
    c_top = float(cost.marginal(b_bar))
    caps = np.clip(cost.inverse_marginal(np.minimum(psi_values, c_top)), 0.0, b_bar)
    if float(np.clip(cost.inverse_marginal(c_top), 0.0, b_bar)) != b_bar:
        caps = np.where(psi_values >= c_top, float(b_bar), caps)
    return caps


# both kinds; the second table starts with a plateau at zero
IN_PLACE_CASES = QUADRATIC_CASES + [(TabulatedCost([0.0, 0.5, 1.0], [0.2, 0.6, 1.0]), 0.8),
                                    (TabulatedCost([0.0, 0.4, 2.0], [0.0, 0.0, 3.0]), 2.0)]


@pytest.mark.parametrize("cost, b_bar", IN_PLACE_CASES,
                         ids=[f"{c.kind}{i}-{b}" for i, (c, b) in enumerate(IN_PLACE_CASES)])
def test_caps_from_targets_in_place_keeps_the_bits_and_its_inputs(cost, b_bar):
    # the inversion's fresh array is clipped in place: the bits, dtype and
    # shape of the out-of-place form, with the targets and the cost's tables
    # left as they were
    targets = edge_targets(cost, b_bar, nan=isinstance(cost, QuadraticCost)).reshape(-1, 1)
    names = [name for name in ("payout_nodes", "marginal_nodes", "_value_nodes") if hasattr(cost, name)]
    kept = [a.tobytes() for a in [targets] + [getattr(cost, name) for name in names]]
    caps = caps_from_targets(targets, cost, b_bar)
    want = caps_out_of_place(targets, cost, b_bar)
    assert caps.dtype == want.dtype == np.float64 and same_bits(caps, want)
    assert [a.tobytes() for a in [targets] + [getattr(cost, name) for name in names]] == kept
    assert not np.shares_memory(caps, targets)


# -- the one weight expression -------------------------------------------------


def weight_reference(prim, lam, theta, hazard):
    """``_weight`` with a constant omega_b spread over theta by ``np.full_like``, the form it had before."""
    return prim.gamma * np.asarray(prim.omega_b_at(theta), dtype=float) / lam * hazard


WEIGHT_PRIMS = [
    PolicyPrimitives(omega_T=1.0, omega_b=0.8, gamma=1.0, b_bar=0.8),
    PolicyPrimitives(omega_T=1.0, omega_b=0.37, gamma=0.7, b_bar=0.8),
    PolicyPrimitives(omega_T=1.0, omega_b=1, gamma=3, b_bar=0.8),  # integers, which the primitives accept
    PolicyPrimitives(omega_T=1.0, omega_b=0.0, gamma=1.3, b_bar=0.8),
    PolicyPrimitives(omega_T=1.0, omega_b=WeightCurve([0.0, 3.0], [0.5, 1.0]), gamma=0.9, b_bar=0.8),
]


@pytest.mark.parametrize("prim", WEIGHT_PRIMS, ids=["0.8", "0.37", "integers", "zero", "curve"])
def test_weight_keeps_the_bits_of_the_full_like_form(prim):
    # a constant omega_b enters as a float: the products and quotient are
    # the same doubles, and the array is hazard's
    theta = np.linspace(0.0, 2.5, 1001)
    hazard = np.asarray(Weibull(2.0, 1.0).hazard(theta))
    for lam in (1.0, 0.8974, 1.3, 2.0**-5):
        for th, h in ((theta, hazard), (theta.reshape(7, 143), hazard.reshape(7, 143)), (theta[:0], hazard[:0])):
            got, want = _weight(prim, lam, th, h), weight_reference(prim, lam, th, h)
            assert isinstance(got, np.ndarray) and got.dtype == want.dtype == np.float64
            assert same_bits(got, want)
        # the re-pooling scale weighs hazard 1.0: a float for a constant omega_b, equal to every element
        got, want = _weight(prim, lam, theta[:5], 1.0), weight_reference(prim, lam, theta[:5], 1.0)
        if prim.omega_b_constant:
            assert type(got) is float and same_bits(np.full(5, got), want)
        else:
            assert same_bits(got, want)


@pytest.mark.parametrize("gamma", [1.0, 0.7, 1.9])
def test_repooled_curve_keeps_its_bits_with_a_scalar_scale(gamma, bench_prim, monkeypatch):
    # at(), the fixed point's _repooled and the pooled blocks' scale: the same
    # psi and psi_bar with the scalar scale as with the full_like arrays
    curve = virtual_weight(irregular_tabulated(), bench_prim, 1.0, grid_size=4097)
    assert bool(np.any(curve.ironed))
    prim = replace(bench_prim, gamma=gamma)
    lambdas = (0.9, 1.0, 1.17, 0.6036508928)
    got = [curve._repooled(prim, lam) for lam in lambdas]
    monkeypatch.setattr(mechanism, "_weight", weight_reference)
    for lam, (g_lam, g_psi, g_iron) in zip(lambdas, got):
        w_lam, w_psi, w_iron = curve._repooled(prim, lam)
        assert g_lam == w_lam and same_bits(g_psi, w_psi)
        assert g_iron[0].tobytes() == w_iron[0].tobytes() and g_iron[1].tobytes() == w_iron[1].tobytes()


# -- grid-indexed interpolation ----------------------------------------------


def assert_interp_bits(x, xp, fp):
    """``_interp`` returns what ``np.interp`` returns: the same type and the same bits."""
    got, want = _interp(x, xp, fp), np.interp(x, xp, fp)
    assert type(got) is type(want)
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


@given(
    n=st.sampled_from([2, 3, 65_537]) | st.integers(min_value=2, max_value=65_537),
    lo=st.floats(min_value=-1e3, max_value=1e3),
    width=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=2000, derandomize=True)
def test_interp_is_np_interp_bit_for_bit_on_linspace_grids(n, lo, width, seed):
    xp = np.linspace(lo, lo + width, n)
    rng = np.random.Generator(np.random.Philox(seed))
    fp = rng.standard_normal(n) * rng.uniform(0.0, 10.0)
    nodes = xp[rng.integers(0, n, size=64)]
    queries = np.concatenate([
        nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
        [xp[0], xp[-1], -0.0, 0.0, xp[0] - width, xp[-1] + width, -np.inf, np.inf],
        rng.uniform(xp[0], xp[-1], size=256),
    ])
    assert _grid_cell(queries, xp) is not None  # the indexed path, not the fallback
    assert_interp_bits(queries, xp, fp)
    assert_interp_bits(queries.reshape(2, -1), xp, fp)
    for q in (nodes[0], queries[-1], xp[-1], -0.0):
        assert_interp_bits(q, xp, fp)
        assert_interp_bits(np.asarray(q), xp, fp)


def test_interp_falls_back_off_a_linspace():
    rng = np.random.Generator(np.random.Philox(5))
    xp = np.geomspace(1e-6, 1e3, 4097)  # cells of very different widths
    fp = np.cumsum(rng.uniform(0.0, 1.0, xp.size))
    queries = np.concatenate([rng.uniform(0.0, 1e3, 1000), xp, [0.0, 2e3]])
    assert _grid_cell(queries, xp) is None
    assert_interp_bits(queries, xp, fp)
    assert_interp_bits(np.array([0.5, np.nan]), np.linspace(0.0, 1.0, 5), np.arange(5.0))
    assert_interp_bits(0.3, np.array([0.5]), np.array([2.0]))  # a 1-node grid
