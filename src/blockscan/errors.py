"""Exception types shared across the package."""


class BlockScanError(Exception):
    """Base class for all blockscan errors.

    ``field`` names the input field at fault when the check knows it, e.g.
    ``m1`` or ``confidence_z``; the config keys share these names.
    """

    def __init__(self, *args, field: str | None = None):
        super().__init__(*args)
        self.field = field


class ParameterError(BlockScanError, ValueError):
    """A distribution or transform parameter is outside its domain."""


class GeometryError(BlockScanError, ValueError):
    """Lattice, window or anchor-range dimensions are inconsistent."""


class IndexRangeError(BlockScanError, IndexError):
    """A lattice position lies outside its admissible range."""


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
    """A table lacks a column or number it is read for, or paired tables differ in thresholds."""


class ConfigError(BlockScanError, ValueError):
    """A run configuration failed validation; names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key {key!r}: {message}")
