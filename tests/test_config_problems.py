"""Pinned problem lists for malformed config documents.

Each document below is malformed in one or more ways; the expected
``ConfigError.problems`` list (messages and their order) was recorded from
the schema before its kind tables existed, so any change to how a block is
read shows up here as a changed message or a reordered list.
"""

import math

import pytest

from softbudget import ConfigError, parse_config

HUGE_INT = 10**330  # a JSON integer literal beyond float range

WEIGHTS = {"omega_T": 1.0, "omega_b": 0.8, "gamma": 1.0, "b_bar": 0.8}
WEIBULL = {"kind": "weibull", "shape": 2.0, "scale": 1.0}
QUADRATIC = {"kind": "quadratic", "alpha": 0.2, "kappa": 1.0}


def doc(distribution=WEIBULL, cost=QUADRATIC, weights=WEIGHTS, **blocks):
    out = {"distribution": distribution, "cost": cost, "weights": weights}
    out.update(blocks)
    return out


DOCS = {
    "weibull-types": doc({"kind": "weibull", "shape": "fat", "bogus": 1, "zeta": None}),
    "weibull-constructor": doc({"kind": "weibull", "shape": -2.0, "scale": 1.0}),
    "weibull-scale": doc({"kind": "weibull", "shape": 2.0, "scale": 0.0}),
    "weibull-non-finite": doc({"kind": "weibull", "shape": math.nan, "scale": math.inf}),
    "exponential-types": doc({"kind": "exponential", "rate": True, "scale": 1.0}),
    "exponential-constructor": doc({"kind": "exponential", "rate": 0.0}),
    "uniform-types": doc({"kind": "uniform", "lower": "0", "upper": HUGE_INT}),
    "uniform-constructor": doc({"kind": "uniform", "lower": 1.0, "upper": 0.5}),
    "tabulated-types": doc({"kind": "tabulated", "theta": {"a": 1}, "density": [1.0, "x", None]}),
    "tabulated-elements": doc({"kind": "tabulated", "theta": [0.0, True, 1.0], "density": [1.0, 1.0, HUGE_INT]}),
    "tabulated-constructor": doc({"kind": "tabulated", "theta": [0.0, 0.0, 1.0], "density": [1.0, 1.0, 1.0]}),
    "truncated-missing": doc({"kind": "truncated", "lower": "a", "extra": 0}),
    "truncated-base-not-object": doc({"kind": "truncated", "base": [1, 2], "lower": 0.1, "upper": 1.0}),
    "truncated-base-bad": doc({"kind": "truncated", "base": {"kind": "weibull", "shape": 2.0, "rate": 1.0},
                               "lower": 0.1, "upper": "x", "zzz": 1}),
    "truncated-base-unknown-kind": doc({"kind": "truncated", "base": {"kind": "gamma", "k": 2.0},
                                        "lower": 0.1, "upper": 1.0}),
    "truncated-base-constructor": doc({"kind": "truncated", "base": {"kind": "exponential", "rate": -1.0},
                                       "lower": 0.1, "upper": 1.0}),
    "truncated-constructor": doc({"kind": "truncated", "base": WEIBULL, "lower": 1.0, "upper": 0.5}),
    "truncated-no-mass": doc({"kind": "truncated", "base": WEIBULL, "lower": 100.0, "upper": 200.0}),
    "truncated-of-point": doc({"kind": "truncated", "base": {"kind": "point", "value": 0.5},
                               "lower": 0.1, "upper": 1.0}),
    "point-types": doc({"kind": "point", "value": "half", "weight": 1.0}),
    "point-missing": doc({"kind": "point"}),
    "distribution-unknown-kind": doc({"kind": "laplace", "loc": 0.0, "scale": 1.0}),
    "distribution-kind-type": doc({"kind": 3, "shape": 2.0}),
    "distribution-kind-missing": doc({"shape": 2.0, "scale": 1.0}),
    "quadratic-types": doc(cost={"kind": "quadratic", "alpha": "x", "beta": 1.0}),
    "quadratic-constructor": doc(cost={"kind": "quadratic", "alpha": 0.2, "kappa": -1.0}),
    "quadratic-overflow": doc(cost={"kind": "quadratic", "alpha": HUGE_INT, "kappa": math.inf}),
    "tabulated-cost-types": doc(cost={"kind": "tabulated", "payout": 1.0, "marginal": [0.1, "y"]}),
    "tabulated-cost-constructor": doc(cost={"kind": "tabulated", "payout": [0.0, 1.0], "marginal": [1.0, 0.5]}),
    "cost-unknown-kind": doc(cost={"kind": "cubic", "alpha": 0.2}),
    "cost-kind-missing": doc(cost={"alpha": 0.2, "kappa": 1.0}),
    "blocks-not-objects": doc("weibull", [], 3, discretion=[], simulation=3, grid="x", output=None),
    "blocks-missing": {"mystery": {}, "grid": {"size": 5}},
    "weights-types": doc(weights={"omega_T": "1", "omega_b": True, "b_bar": HUGE_INT, "delta": 0.9}),
    "weights-omega_b-table": doc(weights={**WEIGHTS, "omega_b": {"theta": 1.0, "val": [0.5]}}),
    "weights-omega_b-constructor": doc(weights={**WEIGHTS, "omega_b": {"theta": [0.0, 1.0], "value": [0.9, 0.5]}}),
    "weights-omega_b-one-node": doc(weights={**WEIGHTS, "omega_b": {"theta": [0.0], "value": [0.5]}}),
    "weights-omega_b-theta": doc(weights={**WEIGHTS, "omega_b": {"theta": [0.0, 0.0], "value": [0.5, 0.6]}}),
    "weights-omega_b-zero": doc(weights={**WEIGHTS, "omega_b": {"theta": [0.0, 1.0], "value": [0.0, 0.6]}}),
    "weights-omega_b-negative": doc(weights={**WEIGHTS, "omega_b": -0.1}),
    "discretion-block": doc(discretion={"enabled": "yes", "m": "x", "chi": True, "tol": 0.0,
                                        "max_iter": 0.5, "damping": 0.5}),
    "discretion-solver-settings": doc(discretion={"enabled": True, "tol": 1e-8, "max_iter": 1000}),
    "simulation-block": doc(simulation={"n": 10, "seed": -1, "bins": True, "rho0": 1.0}),
    "simulation-types": doc(simulation={"n": 2000.0, "seed": 2**64, "bins": 10**30}),
    "grid-block": doc(grid={"size": 5, "truncation_quantile": 1.0, "tail": 1e-10}),
    "grid-types": doc(grid={"size": "big", "truncation_quantile": HUGE_INT}),
    "output-block": doc(output={"directory": "", "formats": ["yaml", 3, "csv"], "compress": True}),
    "output-types": doc(output={"directory": 5, "formats": []}),
    "output-formats-type": doc(output={"formats": "csv"}),
    "primitives-m": doc(discretion={"enabled": True, "m": 1.5}),
    "primitives-chi": doc(weights={**WEIGHTS, "gamma": -1.0}, discretion={"chi": 0.0}),
    "everything-at-once": {
        "distribution": {"kind": "truncated", "base": {"kind": "uniform", "lower": 0.0}, "upper": 2},
        "cost": {"kind": "tabulated", "payout": [0.0], "marginal": []},
        "weights": {"omega_b": {"theta": [0.0, 1.0], "value": [0.5, "x"]}, "gamma": 1.0},
        "simulation": {"bins": 1},
        "extra": 1,
    },
}

EXPECTED = {
    "blocks-missing": [
        "mystery: unknown block",
        "distribution: missing required block",
        "cost: missing required block",
        "weights: missing required block",
        "grid.size: must lie in [17, 16777217]",
    ],
    "blocks-not-objects": [
        "distribution: expected an object",
        "cost: expected an object",
        "weights: expected an object",
        "discretion: expected an object",
        "simulation: expected an object",
        "grid: expected an object",
        "output: expected an object",
    ],
    "cost-kind-missing": [
        "cost.kind: missing required field",
        "cost.alpha: unknown key",
        "cost.kappa: unknown key",
    ],
    "cost-unknown-kind": [
        "cost.kind: unknown kind 'cubic'",
        "cost.alpha: unknown key",
    ],
    "discretion-block": [
        "discretion.enabled: expected a boolean, got str",
        "discretion.m: expected a number, got str",
        "discretion.chi: expected a number, got bool",
        "discretion.damping: unknown key",
        "discretion.max_iter: unknown key",
        "discretion.tol: unknown key",
    ],
    "discretion-solver-settings": [
        "discretion.max_iter: unknown key",
        "discretion.tol: unknown key",
    ],
    "distribution-kind-missing": [
        "distribution.kind: missing required field",
        "distribution.scale: unknown key",
        "distribution.shape: unknown key",
    ],
    "distribution-kind-type": [
        "distribution.kind: expected a string, got int",
        "distribution.shape: unknown key",
    ],
    "distribution-unknown-kind": [
        "distribution.kind: unknown kind 'laplace'",
        "distribution.loc: unknown key",
        "distribution.scale: unknown key",
    ],
    "everything-at-once": [
        "extra: unknown block",
        "distribution.lower: missing required field",
        "distribution.upper: missing required field",
        "cost: tabulated cost needs matching 1-d payout and marginal arrays (>= 2 nodes)",
        "weights.omega_T: missing required field",
        "weights.omega_b.value: element 1 is not a finite number",
        "weights.b_bar: missing required field",
        "simulation.bins: must lie in [2, 100000]",
    ],
    "exponential-constructor": [
        "distribution: exponential rate must be positive and finite",
    ],
    "exponential-types": [
        "distribution.rate: expected a number, got bool",
        "distribution.scale: unknown key",
    ],
    "grid-block": [
        "grid.size: must lie in [17, 16777217]",
        "grid.tail: unknown key",
        "grid.truncation_quantile: unknown key",
    ],
    "grid-types": [
        "grid.size: expected an integer, got str",
        "grid.truncation_quantile: unknown key",
    ],
    "output-block": [
        "output.directory: must be nonempty",
        "output.compress: unknown key",
        "output.formats: unknown key",
    ],
    "output-formats-type": [
        "output.formats: unknown key",
    ],
    "output-types": [
        "output.directory: expected a string, got int",
        "output.formats: unknown key",
    ],
    "point-missing": [
        "distribution.value: missing required field",
    ],
    "point-types": [
        "distribution.value: expected a number, got str",
        "distribution.weight: unknown key",
    ],
    "primitives-chi": [
        "weights/discretion: gamma must be positive and finite",
    ],
    "primitives-m": [
        "weights/discretion: m must lie in [0, 1)",
    ],
    "quadratic-constructor": [
        "cost: quadratic cost needs kappa > 0 and finite",
    ],
    "quadratic-overflow": [
        "cost.alpha: must be finite",
        "cost.kappa: must be finite",
    ],
    "quadratic-types": [
        "cost.alpha: expected a number, got str",
        "cost.kappa: missing required field",
        "cost.beta: unknown key",
    ],
    "simulation-block": [
        "simulation.n: must lie in [1000, 100000000]",
        "simulation.seed: must fit in an unsigned 64-bit integer",
        "simulation.bins: expected an integer, got bool",
        "simulation.rho0: unknown key",
    ],
    "simulation-types": [
        "simulation.n: expected an integer, got float",
        "simulation.seed: must fit in an unsigned 64-bit integer",
        "simulation.bins: must lie in [2, 100000]",
    ],
    "tabulated-constructor": [
        "distribution: tabulated theta grid must be strictly increasing",
    ],
    "tabulated-cost-constructor": [
        "cost: tabulated marginal cost must be nonnegative and nondecreasing",
    ],
    "tabulated-cost-types": [
        "cost.payout: expected an array, got float",
        "cost.marginal: element 1 is not a finite number",
    ],
    "tabulated-elements": [
        "distribution.theta: element 1 is not a finite number",
        "distribution.density: element 2 is not a finite number",
    ],
    "tabulated-types": [
        "distribution.theta: expected an array, got dict",
        "distribution.density: element 1 is not a finite number",
    ],
    "truncated-base-bad": [
        "distribution.upper: expected a number, got str",
        "distribution.zzz: unknown key",
        "distribution.scale: missing required field",
        "distribution.rate: unknown key",
    ],
    "truncated-base-constructor": [
        "distribution: exponential rate must be positive and finite",
    ],
    "truncated-base-not-object": [
        "distribution.base: expected an object",
    ],
    "truncated-base-unknown-kind": [
        "distribution.kind: unknown kind 'gamma'",
        "distribution.k: unknown key",
    ],
    "truncated-constructor": [
        "distribution: truncation interval does not intersect the base support",
    ],
    "truncated-missing": [
        "distribution.base: missing required field",
        "distribution.lower: expected a number, got str",
        "distribution.upper: missing required field",
        "distribution.extra: unknown key",
    ],
    "truncated-no-mass": [
        "distribution: truncation interval carries zero probability mass",
    ],
    "truncated-of-point": [
        "distribution: truncation is supported for analytic base kinds only",
    ],
    "uniform-constructor": [
        "distribution: uniform requires upper > lower",
    ],
    "uniform-types": [
        "distribution.lower: expected a number, got str",
        "distribution.upper: must be finite",
    ],
    "weibull-constructor": [
        "distribution: weibull shape must be positive and finite",
    ],
    "weibull-non-finite": [
        "distribution.shape: must be finite",
        "distribution.scale: must be finite",
    ],
    "weibull-scale": [
        "distribution: weibull scale must be positive and finite",
    ],
    "weibull-types": [
        "distribution.shape: expected a number, got str",
        "distribution.scale: missing required field",
        "distribution.bogus: unknown key",
        "distribution.zeta: unknown key",
    ],
    "weights-omega_b-constructor": [
        "weights.omega_b: weight curve must be nondecreasing in theta",
    ],
    "weights-omega_b-negative": [
        "weights/discretion: omega_b must be nonnegative and finite (or a WeightCurve)",
    ],
    "weights-omega_b-one-node": [
        "weights.omega_b: weight curve needs matching 1-d theta and value arrays (>= 2 nodes)",
    ],
    "weights-omega_b-table": [
        "weights.omega_b.theta: expected an array, got float",
        "weights.omega_b.value: missing required field",
        "weights.omega_b.val: unknown key",
    ],
    "weights-omega_b-theta": [
        "weights.omega_b: weight curve theta grid must be strictly increasing",
    ],
    "weights-omega_b-zero": [
        "weights.omega_b: weight curve values must be positive",
    ],
    "weights-types": [
        "weights.omega_T: expected a number, got str",
        "weights.omega_b: expected a number or a {theta, value} table",
        "weights.gamma: missing required field",
        "weights.b_bar: must be finite",
        "weights.delta: unknown key",
    ],
}


def test_every_document_has_a_pinned_list():
    assert sorted(DOCS) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(DOCS))
def test_problem_list_is_pinned(name):
    with pytest.raises(ConfigError) as err:
        parse_config(DOCS[name])
    assert err.value.problems == EXPECTED[name]
