"""Exception types shared across the package."""


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
