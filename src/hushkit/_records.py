"""The library's immutable records, business and ANC alike: named tuples
that check their fields whenever one is made.

A record class subclasses ``record(typename, field_names)``, annotates its
fields in order (the CLI reads their kinds from the annotations) and states
its checks in ``_check``. The constructor, ``_make`` and ``_replace`` all run
``_check``, so no record exists in an invalid state. The classes build
without ``dataclasses``, which loads ``inspect``, so a one-shot business
command imports neither.
"""
from collections import namedtuple


def record(typename: str, field_names: str, defaults=()):
    """A named-tuple base whose instances pass ``self._check()`` when made."""
    base = namedtuple(typename, field_names, defaults=defaults)
    make = base.__new__

    class Record(base):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            self = make(cls, *args, **kwargs)
            self._check()
            return self

        @classmethod
        def _make(cls, iterable):
            return cls(*iterable)

        def _check(self) -> None:
            """Raise ValidationError when a field is out of range."""

    return Record
