"""The library's records are validated named tuples: the constructor,
``_make`` and ``_replace`` all run a record's checks, and no field can be
assigned."""
import math

import pytest

import hushkit
from hushkit import FirPath, ValidationError
from hushkit._records import Record
from hushkit.anc import EXACT, AncConfig
from hushkit.costing import AssemblyOp, BomLine, OverheadRates
from hushkit.econ import Adjustment, ExpenseLine, ModelSpec, SalesBlock
from hushkit.planning import ConceptMatrix, MarketParams, RiskItem

_LINE = ExpenseLine("Development", 1, 3, -50_000.0)
_SALES = SalesBlock(5, 24, 1500.0, 300.0, -92.5)

# record -> (a valid instance, one field's invalid value, the error it gives)
CHECKED = {
    "ExpenseLine": (_LINE, {"rate": math.inf},
                    "rate of expense line 'Development' must be finite"),
    "SalesBlock": (_SALES, {"unit_cost": 1.0}, "unit_cost must be <= 0 (an outflow)"),
    "ModelSpec": (ModelSpec(24, 0.025, [_LINE], _SALES), {"horizon": 12},
                  "sales window: last period exceeds the horizon"),
    "Adjustment": (Adjustment("Development", 0.1), {"first": 3},
                   "adjustment 'Development': first and last must be given together"),
    "BomLine": (BomLine("Housing", 1, 2.0, 0.5, 0.25), {"qty": 0},
                "BOM line 'Housing': qty must be >= 1"),
    "AssemblyOp": (AssemblyOp("Housing", 1, 1.5, 2.0), {"handling_s": -1.0},
                   "assembly op 'Housing': times must be >= 0"),
    "OverheadRates": (OverheadRates(0.1, 0.8), {"labor_rate": 11.0},
                      "labor_rate must lie in [0, 10]"),
    "ConceptMatrix": (ConceptMatrix([("cost", 0.6), ("size", 0.4)], [("A", [3, 1])]),
                      {"concepts": (("A", (3, 4)),)},
                      "concept 'A': ratings must be integers in [1, 3], got 4"),
    "MarketParams": (MarketParams(7.0e9, 318.9e6, 48.0e4, 0.2, 0.55, 300.0, 150.0),
                     {"tolerance": 1.5}, "tolerance must lie in [0, 1]"),
    "RiskItem": (RiskItem("R1", "Seal leaks", "Design-related", 4, 6), {"impact": 11},
                 "risk 'R1': impact must be an integer in [1, 10]"),
    "AncConfig": (AncConfig("FXLMS", 8000), {"leak_factor": 1.0},
                  "leak_factor must lie in [0, 1)"),
}

RECORDS = ("AssemblyOp", "BomLine", "BomSummary", "Discrepancy", "OverheadRates",
           "Adjustment", "EconResult", "ExpenseLine", "LineDelta", "ModelSpec",
           "SalesBlock", "ConceptMatrix", "MarketEstimate", "MarketParams",
           "RiskItem", "AncConfig", "AncResult")


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_no_record_is_made_invalid(name):
    record, bad, message = CHECKED[name]
    cls = type(record)
    assert cls is getattr(hushkit, name)
    with pytest.raises(ValidationError) as err:
        record._replace(**bad)
    assert str(err.value) == message
    invalid = [bad.get(field, value) for field, value in zip(cls._fields, record)]
    with pytest.raises(ValidationError) as err:
        cls._make(invalid)
    assert str(err.value) == message
    # a valid replacement is a new record of the same class
    same = record._replace(**{field: getattr(record, field) for field in bad})
    assert type(same) is cls and same == record
    for field in (cls._fields[0], *bad):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert not hasattr(record, "__dict__")


# record -> its defaults, as its class body gives them; other records have none
DEFAULTS = {
    "AncConfig": {"filter_length": 128, "step_size": None, "leak_factor": 0.0,
                  "secondary_estimate": EXACT},
    "BomLine": {"supplier": ""},
    "Adjustment": {"first": None, "last": None},
}

# record -> an instance whose fields all differ from their defaults; the
# records without one check nothing, so any values make one
OTHER_THAN_DEFAULT = {
    **{name: instance for name, (instance, _, _) in CHECKED.items()},
    "AncConfig": AncConfig("NLMS", 4000, 64, 0.05, 0.01, FirPath([1.0, 0.5])),
    "BomLine": BomLine("Housing", 1, 2.0, 0.5, 0.25, "Acme"),
    "Adjustment": Adjustment("Development", 0.1, 2, 4),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_annotations_name_its_fields_in_order(name):
    cls = getattr(hushkit, name)
    assert isinstance(cls._fields, tuple) and cls.__slots__ == ()
    assert tuple(cls.__annotations__) == cls._fields
    assert cls._field_defaults == DEFAULTS.get(name, {})
    # a default left as a class attribute would read back in place of the value
    record = OTHER_THAN_DEFAULT.get(name) or cls(*map(str, range(len(cls._fields))))
    assert tuple(getattr(record, field) for field in cls._fields) == tuple(record)
    assert all(getattr(record, field) is not default
               for field, default in cls._field_defaults.items())


def test_a_field_without_a_default_may_not_follow_one_with():
    with pytest.raises(TypeError, match="Late: a field without a default follows"):
        class Late(Record):
            early: int = 0
            late: int


def _named_tuple(cls, *args, **kwargs):
    """What the named tuple under ``cls`` makes of the arguments, unchecked."""
    return cls.__bases__[-1].__new__(cls, *args, **kwargs)


def test_records_normalise_their_sequences():
    spec = CHECKED["ModelSpec"][0]
    assert spec.expenses == (_LINE,) and spec == (24, 0.025, (_LINE,), _SALES)
    matrix = CHECKED["ConceptMatrix"][0]
    assert matrix.criteria == (("cost", 0.6), ("size", 0.4))
    assert matrix.concepts == (("A", (3, 1)),)
    assert matrix._asdict() == {"criteria": matrix.criteria, "concepts": matrix.concepts}
    # on every path through their own constructors
    for made in (ModelSpec(horizon=24, discount_rate=0.025, expenses=[_LINE], sales=_SALES),
                 ModelSpec._make((24, 0.025, [_LINE], _SALES)),
                 spec._replace(expenses=[_LINE])):
        assert made == _named_tuple(ModelSpec, 24, 0.025, (_LINE,), _SALES)
    for made in (ConceptMatrix(criteria=[["cost", 0.6], ["size", 0.4]],
                               concepts=[["A", [3, 1]]]),
                 matrix._replace(concepts=[("A", [3, 1])])):
        assert made == matrix


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_every_way_to_make_a_record_gives_the_named_tuples_record(name):
    record, bad, message = CHECKED[name]
    cls = type(record)
    values = tuple(record)
    required = len(cls._fields) - len(cls._field_defaults)
    whole = _named_tuple(cls, *values)
    made = {
        "positional": (cls(*values), whole),
        "keyword": (cls(**record._asdict()), whole),
        "mixed": (cls(*values[:1], **dict(zip(cls._fields[1:], values[1:]))), whole),
        "defaults": (cls(*values[:required]), _named_tuple(cls, *values[:required])),
        "_make": (cls._make(values), whole),
        "_replace": (record._replace(), whole),
    }
    for path, (made_record, want) in made.items():
        assert type(made_record) is cls and made_record == want, path

    # test_no_record_is_made_invalid covers _make and _replace
    invalid = tuple(bad.get(field, value) for field, value in zip(cls._fields, values))
    for make in (lambda: cls(*invalid),
                 lambda: cls(**dict(zip(cls._fields, invalid))),
                 lambda: cls(*invalid[:1], **dict(zip(cls._fields[1:], invalid[1:])))):
        with pytest.raises(ValidationError) as err:
            make()
        assert str(err.value) == message


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_a_record_of_the_wrong_arity_is_a_type_error(name):
    record = CHECKED[name][0]
    cls = type(record)
    required = len(cls._fields) - len(cls._field_defaults)
    for args in ((*record, None), tuple(record)[:required - 1]):
        with pytest.raises(TypeError):
            cls(*args)
    with pytest.raises(TypeError):
        cls(*record, **{cls._fields[0]: record[0]})
