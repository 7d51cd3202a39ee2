"""Exception types shared across the package, and the two type checks every layer uses."""
from __future__ import annotations

import math
import numbers


class BlockScanError(Exception):
    """Base class for all blockscan errors.

    ``field`` names the input field at fault when the check knows it, e.g.
    ``m1`` or ``confidence_z``; the config keys share these names.
    """

    def __init__(self, *args, field: str | None = None):
        super().__init__(*args)
        self.field = field


class ParameterError(BlockScanError, ValueError):
    """A parameter is not of its type or is outside its domain."""


def check_integer(field: str, value, minimum: int | None = None) -> int:
    """``value`` as an ``int``; raise unless an integer, not a bool, at least ``minimum`` if given.

    So a size, count or seed is one NumPy can take, and no NumPy integer wraps in its arithmetic.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{field} must be an integer, got {value!r}", field=field)
    number = int(value)
    if minimum is not None and number < minimum:
        raise ParameterError(f"{field} must be >= {minimum}, got {number}", field=field)
    return number


def check_real(field: str, value) -> float:
    """``value`` as a ``float``; raise unless a real number, not a bool, with a finite float value.

    nan, the infinities and reals past the float range fail, whatever their type.
    """
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            number = float(value)
        except OverflowError:  # an int or Fraction past the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ParameterError(f"{field} must be a finite number, got {value!r}", field=field)


class GeometryError(BlockScanError, ValueError):
    """Lattice, window or anchor-range dimensions are inconsistent."""


class HypothesisError(BlockScanError, ValueError):
    """An input violates a hypothesis of the extreme-value bound."""


class OrderingError(BlockScanError, ValueError):
    """Probability inputs violate a required ordering beyond tolerance."""


class ValidityError(BlockScanError, ArithmeticError):
    """A constant expression became invalid at the chosen parameters.

    Carries the name of the offending expression in ``expression``.
    """

    def __init__(self, expression: str, message: str = ""):
        self.expression = expression
        super().__init__(message or f"expression {expression!r} is not valid here")


class AlignmentError(BlockScanError, ValueError):
    """A table is not UTF-8 text or lacks a column or number it is read for.

    Or paired tables differ in thresholds.
    """


class ConfigError(BlockScanError, ValueError):
    """A run configuration failed validation; names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key {key!r}: {message}")
