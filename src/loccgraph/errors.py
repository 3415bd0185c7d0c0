"""Exception taxonomy shared across the package."""

from __future__ import annotations


class LoccGraphError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(LoccGraphError):
    pass


class ZeroVector(LoccGraphError):
    pass


class NotInRange(LoccGraphError):
    """Right-hand side is not in the range of the adjoint frame map."""


class NotPSD(LoccGraphError):
    pass


class PatternViolation(LoccGraphError):
    """Matrix entry is nonzero outside the allowed support pattern."""


class NegativePivot(LoccGraphError):
    pass


class NotMutuallyOrthogonal(LoccGraphError):
    def __init__(self, pairs, message: str | None = None):
        self.pairs = list(pairs)
        super().__init__(message or f"non-orthogonal product pairs: {self.pairs}")


class NonOrthogonalBobClique(LoccGraphError):
    pass


class InvalidCover(LoccGraphError):
    pass


class InvalidSpec(LoccGraphError):
    pass


class SearchBudgetExceeded(LoccGraphError):
    pass


class AssertionFailure(LoccGraphError):
    """A generated family violates one of its documented facts."""


class InvalidInput(LoccGraphError):
    pass
