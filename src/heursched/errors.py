"""Shared exception type for rejected input, and the finite-number check."""

import math


class InputError(ValueError):
    """Raised when user-supplied data or parameters are invalid.

    The CLI maps this to exit code 1; anything else is an internal error.
    """


def require_finite(value: float, what: str) -> None:
    """Reject NaN and infinities; a plain ``value <= 0`` check lets both through."""
    if not math.isfinite(value):
        raise InputError(f"{what} must be finite, got {value!r}")
