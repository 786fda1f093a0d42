"""The CSV tables' input boundary: one row reader and one cell parser.

A table is a header row and rows as wide as it; blank lines after the
header are skipped, and a number cell must hold a finite number.
"""
import csv
import math

from .errors import ValidationError


def read_rows(path, columns: tuple, more: str = None):
    """(header, rows) of the CSV file at ``path``, a Path. The header must be
    ``columns``, or ``columns`` and at least one ``more`` column."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        rows = [row for row in reader if row]
    if more is None:
        if header is None or tuple(header) != columns:
            raise ValidationError(f"{path}: header must be exactly {','.join(columns)}")
    elif header is None:
        raise ValidationError(f"{path}: file is empty")
    elif tuple(header[:len(columns)]) != columns or len(header) == len(columns):
        raise ValidationError(f"{path}: header must start with {','.join(columns)} "
                              f"and name at least one {more} column")
    for row in rows:
        if len(row) != len(header):
            raise ValidationError(f"{path}: row {row!r} has the wrong column count")
    return header, rows


def number(text: str, what: str, convert=float):
    """``convert(text)`` if that is a finite number; otherwise a
    ValidationError says that ``what`` holds ``text`` instead."""
    try:
        value = convert(text)
    except ValueError:
        kind = "integer" if convert is int else "numeric"
        raise ValidationError(f"{what} has non-{kind} value {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{what} has non-finite value {text!r}")
    return value
