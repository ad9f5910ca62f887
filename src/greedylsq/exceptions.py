"""Exception types shared across the package."""


class GreedyLsqError(Exception):
    """Base class for all package-specific errors."""


class AllZeroGradient(GreedyLsqError):
    """The residual gradient A^T r is identically zero.

    This is not a failure: the current iterate already satisfies the
    normal equation, so selection has nothing left to pick.
    """


class ZeroColumn(GreedyLsqError):
    """A candidate column has zero squared norm and cannot be stepped on."""


class NonFiniteValue(GreedyLsqError):
    """An input or a stopping quantity is NaN or infinite, or a nonzero
    one is below the normal float range, so a solve could not tell
    convergence from overflow or underflow."""


class FactorOutOfRange(GreedyLsqError):
    """A contraction factor fell outside [0, 1); the inputs are inconsistent."""


class NotApplicable(GreedyLsqError):
    """The requested bound is undefined for this problem size (n = 1)."""


class MissingEnergyError(GreedyLsqError):
    """A trace lacks energy-error data, so bounds cannot be checked."""


class RankDeficient(GreedyLsqError):
    """The matrix lacks full column rank, or a solve cannot reach its known
    solution: part of it lies on zero columns, or another one was reached."""


class NullSpaceEmpty(GreedyLsqError):
    """No nonzero vector is orthogonal to the column space (m <= n)."""


class UnsupportedField(GreedyLsqError):
    """Complex input, which this package does not support: a complex or
    hermitian matrix file, or a complex matrix, rhs or known solution."""


class ParseError(GreedyLsqError):
    """A matrix or manifest file could not be parsed."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
