"""The library's two base types: :class:`ValidationError`, which every input
check raises, and :class:`Record`, the base of its immutable records, business
and ANC alike: named tuples that check their fields whenever one is made.

A record subclasses :class:`Record` and declares each field once, in order,
as an annotation in its class body (the CLI reads the kinds from these),
with its default, if any, as the value: ``filter_length: int = 128``. The
constructor, ``_make`` and ``_replace`` all run the record's ``_check``, so
no record exists in an invalid state. Records build without
``dataclasses``, which loads ``inspect``: a business command imports neither.
"""
from collections import namedtuple


class ValidationError(ValueError):
    """Raised when an input value or configuration field is invalid.

    Messages always name the offending field (or file) so callers can
    surface actionable errors.
    """


class _RecordType(type):
    """Gives every class it makes empty ``__slots__``, and bases each subclass
    of Record on a named tuple of its annotated fields."""

    def __new__(mcls, name, bases, ns):
        ns.setdefault("__slots__", ())
        if bases != (tuple,):  # not Record itself
            fields = tuple(ns.get("__annotations__", ()))
            if any(a in ns and b not in ns for a, b in zip(fields, fields[1:])):
                raise TypeError(f"{name}: a field without a default follows one with")
            # popped, as class attributes would hide the fields' values
            defaults = [ns.pop(field) for field in fields if field in ns]
            bases = (*bases, namedtuple(name, fields, defaults=defaults))
        return super().__new__(mcls, name, bases, ns)


class Record(tuple, metaclass=_RecordType):
    """A named-tuple base whose instances pass ``self._check()`` when made."""

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            self = super().__new__(cls, *args, **kwargs)  # defaults, arity errors
        else:  # all the named tuple's own __new__ does with every field given
            self = tuple.__new__(cls, args)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _check(self) -> None:
        """Raise ValidationError when a field is out of range."""
