"""Input checks that only library callers reach.

The config schema rejects each of these inputs before it reaches the
library (a non-finite number, a mismatched table), so no command can pass
them; a caller of the library can, and gets the named error.
"""

import math

import pytest

from softbudget import (
    ParameterError,
    PointMass,
    Tabulated,
    TabulatedCost,
    Uniform,
    WeightCurve,
    capmin_oracle,
)
from softbudget.reporting import dumps_json

CASES = {
    "weight-curve-non-finite": (lambda: WeightCurve([0.0, math.inf], [0.5, 0.6]),
                                ParameterError, "weight curve nodes must be finite"),
    "uniform-infinite": (lambda: Uniform(0.0, math.inf), ParameterError, "uniform bounds must be finite"),
    "tabulated-nan-density": (lambda: Tabulated([0.0, 0.5, 1.0], [1.0, math.nan, 1.0]),
                              ParameterError, "tabulated nodes and densities must be finite"),
    "point-mass-nan": (lambda: PointMass(math.nan), ParameterError, "point mass location must be finite"),
    "tabulated-cost-non-finite": (lambda: TabulatedCost([0.0, 1.0], [0.1, math.inf]),
                                  ParameterError, "tabulated cost nodes must be finite"),
    "json-key": (lambda: dumps_json({1: 2}), TypeError, "JSON object keys must be strings, got int"),
    "json-object": (lambda: dumps_json({"a": [object()]}), TypeError, "cannot serialize object to JSON"),
    "capmin-atoms": (lambda: capmin_oracle(([0.1, 0.2], [1.0]), [0.5]),
                     ParameterError, "discrete payout distribution needs matching value/probability arrays"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_library_rejects_what_the_config_cannot_pass(name):
    call, error, message = CASES[name]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
