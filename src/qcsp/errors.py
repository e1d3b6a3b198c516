"""Exception types shared across the toolkit."""

from __future__ import annotations


class QcspError(Exception):
    """Base class for all toolkit errors."""


class ParseError(QcspError):
    """Malformed language or sentence document; carries the source position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", col {column}"
            where += ": "
        super().__init__(where + message)


class BudgetError(QcspError):
    """An exponential construction would exceed its configured budget."""

    def __init__(self, what: str, required: int | str, limit: int):
        self.what = what
        self.required = required
        self.limit = limit
        super().__init__(f"{what}: requires {required}, budget allows {limit}")


class WitnessRequiredError(QcspError):
    """A reduction was invoked without a valid switchability witness."""
