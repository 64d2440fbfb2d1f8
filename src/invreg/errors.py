"""Exception types shared across the package."""


class InvregError(Exception):
    """Base class for all package errors."""


class DimensionError(InvregError, ValueError):
    """Vector or matrix sizes do not match the design."""


class DegenerateDesignError(InvregError, ValueError):
    """Design matrix is rank deficient on the supplied grid."""


class RankError(InvregError, ValueError):
    """A singular value is numerically zero: below the rank cliff of the
    projected operator, or so small that its squared inverse overflows."""


class ParameterError(InvregError, ValueError):
    """Invalid smoothing or penalty parameter."""


class InsufficientDataError(InvregError, ValueError):
    """Not enough data points for the requested fit."""
