"""Shared exception type for rejected input, and the finite-number and fraction checks."""

import math


class InputError(ValueError):
    """Raised when user-supplied data or parameters are invalid.

    The CLI maps this to exit code 1; anything else is an internal error.
    """


def finite(value: float) -> bool:
    """``math.isfinite(value)``, but False, not ``OverflowError``, for an int beyond
    the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def shown(value) -> str:
    """``repr(value)`` for an error message, except that an int beyond the float
    range is named, not printed: ``repr`` refuses an int of over 4,300 digits."""
    if isinstance(value, int) and not finite(value):
        return "an int beyond the float range"
    return repr(value)


def require_finite(value: float, what: str) -> None:
    """Reject a bool, a value that is not an int or float, NaN, infinities and ints
    beyond the float range; a plain ``value <= 0`` check lets NaN and inf through."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not finite(value):
        raise InputError(f"{what} must be finite, got {shown(value)}")


def require_fraction(value: float, what: str) -> None:
    """Reject a bool and a value outside [0, 1]; NaN fails both comparisons."""
    if isinstance(value, bool) or not 0.0 <= value <= 1.0:
        raise InputError(f"{what} must lie in [0, 1], got {value!r}")
