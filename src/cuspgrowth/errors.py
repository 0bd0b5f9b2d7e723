"""Exception types shared across the package."""

from __future__ import annotations


def quoted(text: str) -> str:
    """`repr(text)` for an input quoted in an error message; a text of
    more than 32 characters is quoted by its first 32 and its length, so
    that an error record stays small however large the input."""
    return repr(text) if len(text) <= 32 else f"{text[:32]!r}... ({len(text)} characters)"


class CuspGrowthError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CuspGrowthError, ValueError):
    """An input violates a documented invariant or precondition.

    Maps to CLI exit code 2.
    """


class ResourceLimitError(CuspGrowthError, RuntimeError):
    """A computation was refused because its raw search space exceeds a cap.

    Maps to CLI exit code 3.
    """

    def __init__(self, message: str, space: int, cap: int):
        super().__init__(message)
        self.space = space
        self.cap = cap
