"""Exception types shared across the package, and the field checks that raise them.

:func:`check_real` and :func:`check_int` are the one place where a numeric
input field is validated; the estimators, the application wrappers, the
simulation config and the CLI parser all call them, so a field is accepted or
rejected the same way wherever it enters.
"""

import math
import numbers


class DegenerateComponents(ValueError):
    """Every weighted variance vanishes (or a form's positivity requirement fails),
    so the requested degrees-of-freedom estimate is undefined."""


class AllZeroWeights(ValueError):
    """A weight vector sums to zero, so weighted summaries are undefined."""


class LengthMismatch(ValueError):
    """Paired per-component sequences have different lengths."""


class ParseError(ValueError):
    """An input file could not be parsed; carries 1-based line/column when known."""

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


def check_real(name: str, x, low: float | None = None, *, strict: bool = False) -> float:
    """``x`` as a float, or a ValueError naming ``name``.

    ``x`` must be a finite real number (any ``numbers.Real`` except ``bool``;
    strings are refused, not parsed) and, when ``low`` is given, ``>= low``
    (``> low`` if ``strict``).
    """
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {x!r}")
        x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    if low is not None and (x < low or (strict and x == low)):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {low:g}, got {x!r}")
    return x


def check_int(name: str, x, low: int) -> int:
    """``x`` as an int, or a ValueError naming ``name``.

    ``x`` must be an integer ``>= low``: any ``numbers.Integral`` (numpy
    integers included) except ``bool``.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {x!r}")
    return int(x)
