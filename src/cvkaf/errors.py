"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes (parameter -> 2, data -> 3,
numeric -> 4), so raising the right class matters beyond error messages.
"""


class CvkafError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(CvkafError, ValueError):
    """Operand shapes do not conform."""


class ParameterError(CvkafError, ValueError):
    """A configuration value or hyper-parameter is out of its valid range."""


class NumericError(CvkafError, ArithmeticError):
    """A computation produced (or would produce) a non-finite value."""

    trace = None  # the trace so far, when raised out of optim.train


class DataFormatError(CvkafError, ValueError):
    """An input file does not match its declared format."""


class CacheError(CvkafError, ValueError):
    """A serialized container is unreadable or has an unsupported version."""


class StateError(CvkafError, RuntimeError):
    """A cached forward state no longer matches the model it came from."""
