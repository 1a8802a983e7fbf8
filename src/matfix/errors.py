"""Exception types shared across the package."""

from __future__ import annotations


class MatfixError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MatfixError):
    """An equation instance violates one or more structural invariants.

    When several invariants fail at once, ``violations`` carries one
    specific exception instance per failure.
    """

    def __init__(self, message: str, violations: tuple["ValidationError", ...] = ()):
        super().__init__(message)
        self.violations = violations


class DimensionMismatch(ValidationError):
    """Coefficient matrices and Q do not share a common square order."""


class NotHermitian(ValidationError):
    """A matrix required to be Hermitian is not (exact conjugate symmetry)."""


class NotPositiveDefinite(ValidationError):
    """A matrix required to be positive definite is not."""


class NotReal(ValidationError):
    """Real-case routine received data with a nonnegligible imaginary part."""


class SingularMatrix(MatfixError):
    """Matrix is singular to working precision.

    ``condition_estimate`` holds a cheap 1-norm condition estimate when one
    could be formed, else ``inf``.
    """

    def __init__(self, message: str, condition_estimate: float = float("inf")):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class SingularIterate(MatfixError):
    """A fixed-point iterate lost positive definiteness (numerical breakdown)."""


class SingularOperator(MatfixError):
    """The sensitivity operator representation is singular to working precision."""


class OperatorTooLarge(MatfixError):
    """The arrays a call would hold exceed its memory budget: the dense
    n^2 x n^2 operator matrices, or the stacks of a batch of solves."""


class ConditionViolated(MatfixError):
    """A bound's applicability condition fails for the given data.

    ``name`` identifies the failed condition; ``values`` echoes the scalar
    ingredients that witnessed the failure.
    """

    def __init__(self, name: str, message: str, values: dict | None = None):
        super().__init__(message)
        self.name = name
        self.values = dict(values or {})


class NonzeroDeltaQ(MatfixError):
    """The coefficient-only perturbation bound was asked to handle a Q perturbation."""


class EigenSolverError(MatfixError):
    """The dense eigensolver failed to converge."""


class ParseError(MatfixError):
    """An instance or perturbation file could not be parsed; message names the spot."""
