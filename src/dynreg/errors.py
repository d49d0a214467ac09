"""Exception types shared across the package, and the range checks of its parameters.

_count and _real are the one check of a count or real parameter.  Both raise
"<name> must lie in <interval>, got <value>", and neither converts or stores a value.
"""

import functools
import math
import numbers
import operator


class DynregError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(DynregError, ValueError):
    """Malformed numerical input: non-finite entries, empty data, bad files."""


class DimensionError(DynregError, ValueError):
    """Shapes, grids, or quadrature weights of the operands do not match."""


class UnsupportedGeometryError(DynregError, ValueError):
    """Operation needs Hilbert exponents (p = s = 2) but got something else."""


class DomainError(DynregError, ValueError):
    """Argument lies outside its admissible range, e.g. a time shift >= T."""


class InvalidParameterError(DynregError, ValueError):
    """Model or solver parameter out of range."""


class UnsupportedKindError(DynregError, ValueError):
    """Operation is undefined for this composition kind."""


class ResourceLimitError(DynregError, RuntimeError):
    """A dense probe would exceed the size guard."""


class DivergenceError(DynregError, RuntimeError):
    """Iteration residuals became non-finite or grew past the divergence guard."""


class ConfigError(DynregError, ValueError):
    """Experiment configuration is missing, malformed, or has unknown keys."""


def _count(value, name: str, low: int = 1, high=math.inf, error=InvalidParameterError) -> None:
    """Raise error unless value is an integer in [low, high]: NumPy integers pass, True, 2.5 not."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and low <= value <= high):
        span = f"{{{low}, {low + 1}, ...}}" if high == math.inf else f"{{{low}, ..., {high}}}"
        raise error(f"{name} must lie in {span}, got {value!r}")


@functools.cache
def _bounds(interval: str) -> tuple:
    """Each end of an interval and how a value compares to it: "(0, 1]" -> (0.0, 1.0, gt, le)."""
    low, high = interval[1:-1].split(", ")
    above = operator.ge if interval[0] == "[" else operator.gt
    below = operator.le if interval[-1] == "]" else operator.lt
    return float(low), float(high), above, below


def _real(value, name: str, interval: str, error=InvalidParameterError) -> None:
    """Raise error unless value is a real, not a bool, in interval, written as it reads: "(0, 1]".

    NaN lies in no interval; +-inf only in one closed at that end.
    """
    low, high, above, below = _bounds(interval)
    real = isinstance(value, float) or isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and above(value, low) and below(value, high)):
        raise error(f"{name} must lie in {interval}, got {value!r}")
