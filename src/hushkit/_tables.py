"""The CSV tables' input boundary: one row reader and one cell parser; and
the finite check every report figure passes, with the cent rounding of money.

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


def finite(value) -> float:
    """``value`` as a float if it is finite, the one check of every number a
    report carries; otherwise a ValidationError."""
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"cannot round the non-finite value {value!r}")
    return value


def clear_of_ties(cents: float) -> bool:
    """Whether ``cents``, a figure's absolute value times 100, lies below
    2**51 and more than 2 ulps from a half-cent: there rounding the double to
    cents gives the cents of the Decimal rule of :func:`round_half_away`, and
    so does printing it with two decimals. A non-finite ``cents`` fails.
    """
    # round() gives the same double as the Decimal rule unless the repr is
    # itself a half-cent k.kk5:
    # - round() rounds the exact binary value half to even, quantize() rounds
    #   the repr half up; both end in a correctly rounded decimal-to-double
    #   conversion, so only the cents they pick can differ.
    # - They pick different cents only if the repr is a half-cent h, or h
    #   lies strictly between the value and its repr. While ulp(value) < 0.01
    #   the second cannot happen: h, closer to the value than the repr, would
    #   round-trip too, and the repr, within 0.005 of the value, is no whole
    #   cent and so no shorter than h; repr would have picked h.
    # - A repr of h puts cents within 1.3 ulp(cents) of m + 0.5: the value
    #   is within ulp(value) / 2 of h, and the product rounds once.
    # - cents % 1.0 is exact, and so is its difference from 0.5 wherever
    #   that is small (Sterbenz). cents < 2**51 keeps |value| below 2**46,
    #   where ulp(value) < 0.01; the ulp test alone refuses cents >= 2**50.
    # Formatting with ".2f" rounds the exact binary value correctly, as
    # round() does, and ulp(value) < 0.01 lets the rounded double print as
    # the cents it was rounded to; only the sign of a zero can differ.
    return cents < 2.0 ** 51 and abs(cents % 1.0 - 0.5) > 2.0 * math.ulp(cents)


def round_half_away(value: float) -> float:
    """Round to cents with ties going away from zero (display convention).

    What is rounded is the double's shortest round-trip decimal, its
    ``repr``: 2.675 is stored as 2.674999999999999822... and rounds to 2.68.
    A figure that rounds to zero is ``+0.0``, never ``-0.0``, so no report
    prints a signed zero. Any finite double rounds; a non-finite value is a
    ValidationError.
    """
    value = finite(value)
    # ties, near-ties and huge values take the Decimal path
    if clear_of_ties(abs(value) * 100.0):
        return round(value, 2) + 0.0
    from decimal import ROUND_HALF_UP, Context, Decimal
    # A finite double has at most 309 integer digits, so this precision holds
    # any of them quantized to cents; the default 28-digit context fails from
    # about 1e26 on.
    return float(Decimal(repr(value)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP, context=Context(prec=400))) + 0.0
