"""Shared exception type for rejected input, and the finite-number and fraction checks."""

import math


class InputError(ValueError):
    """Raised when user-supplied data or parameters are invalid.

    The CLI maps this to exit code 1; anything else is an internal error.
    """


def require_finite(value: float, what: str) -> None:
    """Reject NaN and infinities; a plain ``value <= 0`` check lets both through."""
    if not math.isfinite(value):
        raise InputError(f"{what} must be finite, got {value!r}")


def require_fraction(value: float, what: str) -> None:
    """Reject a value outside [0, 1]; NaN fails both comparisons."""
    if not 0.0 <= value <= 1.0:
        raise InputError(f"{what} must lie in [0, 1], got {value!r}")
