"""Exception types shared across the package.

``SchemaError`` marks malformed input data (CLI exit code 2);
``InternalInvariantError`` marks a violated internal guarantee and
carries a serializable counterexample payload (CLI exit code 3);
``NotIntegrableError`` names the function of a dominated-convergence
run that is not integrable, so the CLI can locate it.
"""

from __future__ import annotations

__all__ = ["SchemaError", "InternalInvariantError", "NotIntegrableError"]


class SchemaError(ValueError):
    """Input data does not match the expected schema.

    Parameters
    ----------
    location : str
        Dotted path into the offending document.
    message : str
    """

    def __init__(self, location: str, message: str) -> None:
        super().__init__(f"{location}: {message}")
        self.location = location
        self.message = message


class InternalInvariantError(RuntimeError):
    """An internal guarantee failed; carries a counterexample payload."""

    def __init__(self, message: str, payload: dict | None = None) -> None:
        super().__init__(message)
        self.payload = payload or {}


class NotIntegrableError(ValueError):
    """A function of a dominated-convergence run is not integrable.

    ``term`` is the index of the sequence term at fault, or None for
    the limit.
    """

    def __init__(self, term: int | None) -> None:
        super().__init__("function is not integrable against this measure")
        self.term = term
