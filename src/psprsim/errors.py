"""Exception hierarchy.

Two failure families matter downstream: bad inputs/config (CLI exit code 2)
and numerical breakdowns inside an otherwise valid computation (exit code 3).
"""

import json
from pathlib import Path


class PsprsimError(Exception):
    """Base class for all package errors."""


class ValidationError(PsprsimError, ValueError):
    """Malformed inputs, schema violations, or inconsistent configuration."""


class NumericalError(PsprsimError, RuntimeError):
    """A numerical procedure failed on structurally valid inputs."""


class SingularDesignError(NumericalError):
    """Rank-deficient regression design matrix.

    Carries the index of the first singular column of a column block (0 for
    a single fit) so callers can name the offending endpoint.
    """

    def __init__(self, message: str, column: int):
        super().__init__(message)
        self.column = column


class DegenerateDataError(NumericalError):
    """Data-dependent degeneracy, such as an item with zero sandwich variance."""


class FactorizationError(NumericalError):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, message: str, pivot: int):
        super().__init__(message)
        self.pivot = pivot


class NonConvergenceError(NumericalError):
    """Iterative fit exhausted its iteration budget or lost ground."""


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in a ``what`` file (plan, model, ...); anything else
    in it is a ValidationError naming the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValidationError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} file {path} must hold a JSON object, "
                              f"got {type(doc).__name__}")
    return doc
