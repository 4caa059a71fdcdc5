"""Exception types shared across the package, and the CSV row reader."""

import csv
from typing import Iterable, Iterator


class InputError(ValueError):
    """Raised when arguments violate a documented precondition."""


class ParseError(InputError):
    """Raised on malformed input files; carries a 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnsupportedOrderError(InputError):
    """Raised for clique orders outside the supported range."""


class DegenerateReferenceError(InputError):
    """Raised when a chi-squared reference value is zero."""


class UndefinedDensityError(ValueError):
    """Raised when a neighborhood has fewer than two members, so its
    edge density is undefined (as opposed to zero)."""


def _csv_rows(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Each CSV row with the line it starts on (a quoted field may span lines)."""
    reader = csv.reader(lines)
    end = 0
    for row in reader:
        yield end + 1, row
        end = reader.line_num
