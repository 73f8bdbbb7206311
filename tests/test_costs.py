import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softbudget import DomainError, ParameterError, QuadraticCost, TabulatedCost


def test_quadratic_marginal_values(bench_cost):
    assert bench_cost.marginal(0.0) == 0.2
    assert bench_cost.marginal(0.8) == pytest.approx(1.0, abs=1e-15)
    assert bench_cost.marginal_at_zero == 0.2
    assert bench_cost.value(0.8) == pytest.approx(0.2 * 0.8 + 0.5 * 0.64, abs=1e-15)


def test_quadratic_inverse_marginal(bench_cost):
    assert bench_cost.inverse_marginal(1.0) == pytest.approx(0.8, abs=1e-15)
    assert bench_cost.inverse_marginal(0.1) == 0.0
    assert np.allclose(bench_cost.inverse_marginal(np.array([0.1, 0.2, 0.7])), [0.0, 0.0, 0.5])


def test_quadratic_validation():
    with pytest.raises(ParameterError):
        QuadraticCost(-0.1, 1.0)
    with pytest.raises(ParameterError):
        QuadraticCost(0.2, 0.0)
    with pytest.raises(DomainError):
        QuadraticCost(0.2, 1.0).marginal(-0.5)


def test_tabulated_interpolates_and_inverts():
    cost = TabulatedCost([0.0, 1.0], [0.1, 0.5])
    assert cost.marginal(0.5) == pytest.approx(0.3, abs=1e-15)
    assert cost.inverse_marginal(0.3) == pytest.approx(0.5, abs=1e-12)
    assert cost.inverse_marginal(0.05) == 0.0
    # exact value from integrating the linear marginal
    assert cost.value(1.0) == pytest.approx(0.3, abs=1e-15)
    assert cost.value(0.5) == pytest.approx(0.1 * 0.5 + 0.5 * 0.4 * 0.25, abs=1e-15)


def test_tabulated_plateau_returns_leftmost_preimage():
    cost = TabulatedCost([0.0, 0.3, 0.7, 1.0], [0.1, 0.4, 0.4, 0.9])
    assert cost.inverse_marginal(0.4) == pytest.approx(0.3, abs=1e-9)


def test_tabulated_rejects_targets_beyond_table():
    cost = TabulatedCost([0.0, 1.0], [0.1, 0.5])
    with pytest.raises(ParameterError):
        cost.inverse_marginal(0.6)


def test_tabulated_rejects_non_finite_targets_by_name():
    cost = TabulatedCost([0.0, 1.0], [0.1, 0.5])
    for bad in (np.nan, -np.inf):
        with pytest.raises(ParameterError, match=f"must be finite; 1 are not, the first is {bad}"):
            cost.inverse_marginal(np.array([0.3, bad]))


def bisection_inverse(cost, y, steps=200):
    """Leftmost preimage by bisection on C'(x) >= y, 0 at or below C'(0): the inversion's definition."""
    lo, hi = 0.0, float(cost.payout_nodes[-1])
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if cost.marginal(mid) >= y else (mid, hi)
    return 0.0 if y <= cost.marginal_at_zero else hi


def test_tabulated_closed_form_inverse_matches_bisection_on_plateaus_and_nodes():
    cost = TabulatedCost([0.0, 0.2, 0.5, 0.6, 1.0, 1.5], [0.1, 0.1, 0.4, 0.4, 0.9, 1.3])
    targets = np.concatenate([cost.marginal_nodes, np.linspace(-0.2, 1.3, 301)])
    closed = cost.inverse_marginal(targets)
    assert type(cost.inverse_marginal(0.4)) is float
    for y, x in zip(targets, closed):
        assert x == pytest.approx(bisection_inverse(cost, y), abs=1e-15), y
    # flat stretches and the origin plateau invert to their left end exactly
    assert cost.inverse_marginal(np.array([0.1, 0.4])).tolist() == [0.0, 0.5]


def test_tabulated_validation():
    with pytest.raises(ParameterError):
        TabulatedCost([0.1, 1.0], [0.1, 0.5])  # grid must start at 0
    with pytest.raises(ParameterError):
        TabulatedCost([0.0, 1.0], [0.5, 0.1])  # decreasing marginal
    with pytest.raises(ParameterError):
        TabulatedCost([0.0, 0.0, 1.0], [0.1, 0.2, 0.5])  # non-increasing grid
    with pytest.raises(ParameterError):
        TabulatedCost([0.0], [0.1])


@given(y=st.floats(min_value=0.2, max_value=50.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_quadratic_inverse_identity(y):
    cost = QuadraticCost(0.2, 1.0)
    x = cost.inverse_marginal(y)
    assert abs(cost.marginal(x) - y) <= 1e-9 * max(1.0, abs(y))


@given(y=st.floats(min_value=0.1, max_value=0.9, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_tabulated_inverse_identity(y):
    cost = TabulatedCost([0.0, 0.25, 0.5, 1.0], [0.1, 0.3, 0.6, 0.9])
    x = cost.inverse_marginal(y)
    assert abs(cost.marginal(x) - y) <= 1e-6


@given(x=st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_marginal_is_derivative_of_value(x):
    cost = TabulatedCost([0.0, 0.25, 0.5, 1.0], [0.1, 0.3, 0.6, 0.9])
    eps = 1e-6
    fd = (cost.value(x + eps) - cost.value(max(x - eps, 0.0))) / (eps + min(x, eps))
    assert abs(fd - cost.marginal(x)) <= 1e-4
