"""Exception hierarchy.

Two failure families matter downstream: bad inputs/config (CLI exit code 2)
and numerical breakdowns inside an otherwise valid computation (exit code 3).
"""


class PsprsimError(Exception):
    """Base class for all package errors."""


class ValidationError(PsprsimError, ValueError):
    """Malformed inputs, schema violations, or inconsistent configuration."""


class NumericalError(PsprsimError, RuntimeError):
    """A numerical procedure failed on structurally valid inputs."""


class SingularDesignError(NumericalError):
    """Rank-deficient regression design matrix."""


class DegenerateDataError(NumericalError):
    """Data-dependent degeneracy, such as an item with zero sandwich variance."""


class FactorizationError(NumericalError):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


class NonConvergenceError(NumericalError):
    """Iterative fit exhausted its iteration budget.

    Carries the objective trace so callers can inspect the failure.
    """

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = list(trace)
