"""The CSV tables' input boundary: one row reader and one cell parser.

A table is UTF-8 text, with or without a byte-order mark: a header row and
rows as wide as it; blank lines after the header are skipped. No cell may
hold a NUL, the rule :func:`clean` also sets for config strings. Every cell
is typed by its column's kind (see :func:`read_rows`), and a number cell
must hold a finite number. Each loader is wrapped by :func:`names_file`, so
its errors name the file.
"""
import csv
import functools
import io
import math
import re
from pathlib import Path

from ._records import ValidationError


# JSON decoding pairs every valid surrogate pair, so any left is lone
_SURROGATE = re.compile("[\ud800-\udfff]")


def clean(text: str) -> bool:
    """Whether ``text`` holds no NUL and no lone surrogate, which no file
    path and no UTF-8 report can carry."""
    return "\0" not in text and (text.isascii() or _SURROGATE.search(text) is None)


def names_file(loader):
    """Wrap ``loader(path: Path)`` so its ValidationErrors start ``<path>: ``."""
    @functools.wraps(loader)
    def load(path):
        path = Path(path)
        try:
            return loader(path)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    return load


def read_rows(path, columns: tuple, kinds: tuple, more: str = None):
    """(header, rows) of the CSV file at ``path``, a Path. The header must be
    ``columns``, or ``columns`` and at least one ``more`` column. ``kinds``
    holds a kind per column of ``columns``, and with ``more`` one for all the
    rest; each cell is typed by its column's: ``str.strip`` for text, else a
    converter such as ``int`` that :func:`numbers` applies. The first bad cell
    in reading order raises ``column '<name>' has non-<kind> value '<text>'``.
    """
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            text = handle.read()
        if not clean(text):
            raise ValidationError("file holds a NUL or a lone surrogate")
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        rows = [row for row in reader if row]
    except UnicodeDecodeError:
        raise ValidationError("file is not UTF-8 text") from None
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise ValidationError(f"line {reader.line_num}: {exc}") from None
    if more is None:
        if header is None or tuple(header) != columns:
            raise ValidationError(f"header must be exactly {','.join(columns)}")
    elif header is None:
        raise ValidationError("file is empty")
    elif tuple(header[:len(columns)]) != columns or len(header) == len(columns):
        raise ValidationError(f"header must start with {','.join(columns)} "
                              f"and name at least one {more} column")
    for row in rows:
        if len(row) != len(header):
            raise ValidationError(f"row {row!r} has the wrong column count")
    kinds = kinds + kinds[-1:] * (len(header) - len(kinds))
    try:  # a column at a time: one map() per column, not a call per cell
        typed = [list(map(kind, cells)) if kind is str.strip else numbers(cells, kind)
                 for cells, kind in zip(zip(*rows), kinds)]
    except ValueError:  # find the first bad cell in reading order
        for row in rows:
            for text, name, kind in zip(row, header, kinds):
                if kind is not str.strip:
                    try:
                        numbers([text], kind)
                    except ValueError as exc:
                        raise ValidationError(
                            f"column {name!r} has non-{exc} value {text!r}") from None
        raise
    return header, list(zip(*typed))


def numbers(cells, kind) -> list:
    """``kind`` of each of ``cells`` if each gives a finite number and none
    holds ``_``, which ``int`` and ``float`` take as a digit separator; else
    a ValueError names what one is not: "integer", "numeric" or "finite"."""
    try:
        values = list(map(kind, cells))
        if "_" in "".join(cells):
            raise ValueError
    except ValueError:
        raise ValueError("integer" if kind is int else "numeric") from None
    if kind is not int and not all(map(math.isfinite, values)):
        raise ValueError("finite")
    return values

