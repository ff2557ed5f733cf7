"""Exception taxonomy shared across the package, the integer and number rules
every setting and file header is checked by, and the error spelling.

One class per exit code of the CLI: :class:`ParameterError` exits 2,
:class:`DataFormatError` 3 and :class:`NumericError` 4, so raising the right
class matters beyond error messages. :class:`StateError` is a program bug,
which no command raises, and stays a traceback.
"""

import math
import numbers


class CvkafError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(CvkafError, ValueError):
    """A setting, hyper-parameter or operand is out of its valid range or shape."""


class NumericError(CvkafError, ArithmeticError):
    """A computation produced (or would produce) a non-finite value."""

    trace = None  # the trace so far, when raised out of optim.train


class DataFormatError(CvkafError, ValueError):
    """An input file is unreadable, of another format version, or not what it declares."""


class StateError(CvkafError, RuntimeError):
    """A cached forward state no longer matches the model it came from."""


def _is_a(value, kind) -> bool:
    """Whether ``value`` is a ``kind`` number; a bool is not a number here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_int(name: str, value, minimum: int) -> int:
    """``value`` as an ``int`` if it is an integer at or above ``minimum``; anything
    else, a bool too, is a :class:`ParameterError` naming the setting ``name``."""
    if not (_is_a(value, numbers.Integral) and value >= minimum):
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
            minimum, f"an integer >= {minimum}")
        raise ParameterError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def check_number(name: str, value, zero_ok: bool = False) -> float:
    """``value`` as a ``float`` if it is a finite real number above zero (or at zero, with
    ``zero_ok``); anything else, a bool too, is a :class:`ParameterError` naming ``name``."""
    if not (_is_a(value, numbers.Real) and math.isfinite(value)
            and (value >= 0 if zero_ok else value > 0)):
        kind = "non-negative" if zero_ok else "positive"
        raise ParameterError(f"{name} must be a finite {kind} number, got {value!r}")
    return float(value)


def describe(exc: BaseException) -> str:
    """``exc`` as ``"{Type}: {message}"``, the spelling ``summary.json``'s ``error`` holds."""
    return f"{type(exc).__name__}: {exc}"
