"""Exception taxonomy shared across the package, the seed rule and the error spelling.

The CLI maps these onto distinct exit codes (parameter -> 2, data -> 3,
numeric -> 4), so raising the right class matters beyond error messages.
"""

import numbers


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


def _is_a(value, kind) -> bool:
    """Whether ``value`` is a ``kind`` number; a bool is not a number here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_seed(seed) -> int:
    """``seed`` as an ``int`` if it is a non-negative integer, as numpy's
    generators take it; anything else, a bool too, is a :class:`ParameterError`."""
    if not (_is_a(seed, numbers.Integral) and seed >= 0):
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def describe(exc: BaseException) -> str:
    """``exc`` as ``"{Type}: {message}"``, the spelling ``summary.json``'s ``error`` holds."""
    return f"{type(exc).__name__}: {exc}"
