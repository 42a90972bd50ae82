"""Exception types shared across the package.

``PreconditionError`` subclasses correspond to violated theorem hypotheses
and map to CLI exit code 3; ``ConfigError`` maps to exit code 2.
"""


class RoundMomentsError(Exception):
    pass


class ConfigError(RoundMomentsError):
    pass


class PreconditionError(RoundMomentsError):
    pass


class BelowGridError(PreconditionError):
    """No grid point lies at or below the query point (explicit sets only)."""


class AboveGridError(PreconditionError):
    """No grid point lies at or above the query point (explicit sets only)."""


class EmptyRangeError(PreconditionError):
    """No full grid cell lies inside the requested range."""


class MissingVariateError(PreconditionError):
    """Stochastic rounding was requested without a uniform variate."""


class NotUnimodalError(PreconditionError):
    """Declared mode fails the monotonicity probe."""


class SymmetryUnavailableError(PreconditionError):
    """Symmetry-refined bound requested but its hypotheses fail."""


class BadOrderError(PreconditionError):
    """Signed error-power bound requested with an even power."""


class TooManyCellsError(ConfigError):
    """A cell enumeration would exceed the hard cell budget."""


class InfeasibleBudgetError(PreconditionError):
    """Sample budget too small for the requested confidence level."""


class DegenerateFitError(RoundMomentsError):
    """Not enough usable points remain to fit a convergence slope."""
