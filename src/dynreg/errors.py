"""Exception types shared across the package, and the checks of its parameters and arrays.

_count and _real are the one check of a count or real parameter.  Both raise
"<name> must lie in <interval>, got <value>", and neither converts or stores a value.
_array is the one check of an array input: "<name> must have shape (4, n), got (3,)",
"<name> must be finite, got nan at (2, 0)" or "<name> must be an array of reals (...)".
"""

import functools
import math
import numbers
import operator

import numpy as np


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


def _array(values, name: str, shape: tuple, error=DimensionError, nonfinite=InvalidInputError):
    """values as a new float array; error unless it has shape, nonfinite unless it is finite.

    A None axis takes any length >= 1; it reads n in the message (m, n for two; k, m, n for three).
    Values that are not reals (ragged nesting, text, complex) raise InvalidInputError:
    "<name> must be an array of reals (<reason>)".
    """
    try:
        if np.asarray(values).dtype.kind == "c":
            raise TypeError("got complex values")
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} must be an array of reals ({exc})") from exc
    if not _fits(shape, arr.shape):
        free = iter("kmn"[-shape.count(None):])
        axes = [next(free) if m is None else str(m) for m in shape]
        axes = ", ".join(axes) + "," * (len(axes) == 1)
        raise error(f"{name} must have shape ({axes}), got {arr.shape}")
    if not np.isfinite(arr).all():  # not np.all: its dispatch costs more than a small check
        at = tuple(int(k) for k in np.argwhere(~np.isfinite(arr))[0])
        raise nonfinite(f"{name} must be finite, got {arr[at]} at {at}")
    return arr


@functools.lru_cache(maxsize=256)
def _fits(shape: tuple, actual: tuple) -> bool:
    """Whether actual is shape, a None axis any length >= 1 (cached: every BochnerFunction asks)."""
    return len(actual) == len(shape) and all(n > 0 if m is None else n == m for m, n in zip(shape, actual))
