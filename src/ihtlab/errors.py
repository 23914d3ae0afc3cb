"""Exception hierarchy shared across the package."""


class IhtLabError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(IhtLabError, ValueError):
    """An argument violates a documented precondition."""


class ShapeMismatchError(InvalidArgumentError):
    """Array shapes are not mutually consistent."""


class SingularMatrixError(IhtLabError):
    """A least-squares subproblem is numerically rank deficient.

    Carries the 2-norm condition number that triggered the error.
    """

    def __init__(self, condition: float, message: str | None = None):
        self.condition = condition
        super().__init__(message or f"rank-deficient submatrix, condition estimate {condition:.3e}")


class BudgetExceededError(IhtLabError):
    """A combinatorial enumeration would exceed its size budget."""


class NumericalDomainError(IhtLabError):
    """A numerical routine was queried outside its valid domain."""


class StabilityUndefinedError(NumericalDomainError):
    """The stability factor is undefined at the requested point."""


class ShrinkageLoopError(IhtLabError):
    """The stepsize shrinkage loop failed to exit within its guard budget."""


class TableFormatError(IhtLabError):
    """A bound-table file is malformed or violates a validity constraint."""


class ConfigError(IhtLabError):
    """An experiment configuration is invalid."""
