"""Exception types shared across the package."""


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
