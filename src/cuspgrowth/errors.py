"""Exception types shared across the package."""

from __future__ import annotations

from typing import Optional

#: Every int of at most this many bits prints in decimal under the
#: interpreter's default limit of 4,300 digits: 2^14284 < 10^4300.
PRINTABLE_BITS = 14_284


def quoted(text: str) -> str:
    """`repr(text)` for an input quoted in an error message; a text of
    more than 32 characters is quoted by its first 32 and its length, so
    that an error record stays small however large the input."""
    return repr(text) if len(text) <= 32 else f"{text[:32]!r}... ({len(text)} characters)"


def reported(value: Optional[int], cap: int) -> int:
    """The number a refusal reports for a `value` above `cap`: `value`
    itself when it is known and has at most `PRINTABLE_BITS` bits, else
    2^min(bits(cap), PRINTABLE_BITS), which prints and which the value
    reaches.  A guard leaves `value` unknown (None) only when a lower
    bound on its bits is above both bits(cap) and `PRINTABLE_BITS`."""
    if value is not None and value.bit_length() <= PRINTABLE_BITS:
        return value
    return 1 << min(cap.bit_length(), PRINTABLE_BITS)


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
