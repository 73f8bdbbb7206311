"""Exception hierarchy for the softbudget solver.

Every failure mode raised by the library derives from :class:`SoftBudgetError`
so callers (and the CLI) can map errors onto a small set of exit codes:
validation problems, numerical problems, and I/O problems.
"""

from __future__ import annotations


class SoftBudgetError(Exception):
    """Base class for all library errors."""


class ParameterError(SoftBudgetError, ValueError):
    """A supplied parameter or configuration value is inadmissible."""


class DomainError(SoftBudgetError, ValueError):
    """An evaluation point lies outside the object's domain of definition."""


class UpperSupportError(DomainError):
    """The survival probability has underflowed to zero.

    Hazard rates are undefined where the CDF equals 1 to machine precision;
    callers must truncate grids short of the upper support.
    """


class IllPosedError(SoftBudgetError, ArithmeticError):
    """A comparative-statics quantity is ill-posed at the solved point.

    Raised when the implicit-function denominator (the hazard slope at the
    lower cutoff) is zero or numerically indistinguishable from it, or when
    the lower cutoff lies on or next to a pooled stretch of psi_bar.
    """


class NumericalError(SoftBudgetError, ArithmeticError):
    """An iterative routine failed to reach its stated tolerance."""


class ConfigError(ParameterError):
    """A run configuration failed validation.

    Carries the full list of individual problems so a user can fix every
    mistake in one pass instead of replaying the command per error.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        joined = "\n  - ".join(self.problems)
        super().__init__(f"invalid configuration ({len(self.problems)} problem(s)):\n  - {joined}")
