"""The package's frozen value types are `Record`s, not dataclasses. Each one
behaves as a `@dataclass(frozen=True)` twin built here from its own class
body (its annotations, defaults, `__post_init__` and methods) would: in
init, comparison, hashing, printing and frozenness; and a record pickles.
No type of the package is a dataclass."""

import dataclasses
import inspect
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cantornorm.cli  # noqa: F401  (loads every module of the package)
from cantornorm import (BasicSequence, BlockChoice, BoundCheck, BoundReport,
                        CantorDigits, ChampernowneBits, CheckpointRecord,
                        ConstantBits, ConstantHalt, DyadicValue,
                        FrequencyReport, LimitFunction, LinearHalt,
                        NonNormalityReport, Oracle, OracleBits, PeriodicBits,
                        ProgramEntry, RationalBits, Registry, StageFunction,
                        TableBits, TableHalt, WitnessReport)
from cantornorm.cantor import Record
from cantornorm.cli import _Table

# each record type with the fields of one valid instance
EXAMPLES = {
    DyadicValue: (3, 2),
    CantorDigits: ((1, 2), BasicSequence((2, 3))),
    StageFunction: (2, (0, 1, 2), ()),
    BoundCheck: (0, 2, 4, True, 4, True, 3, True),
    BoundReport: ((), True, None),
    FrequencyReport: (3, Fraction(0), Fraction(1, 2), 1, Fraction(1, 3)),
    WitnessReport: (0, 3, 0, 2, Fraction(2, 3), Fraction(1, 3), True),
    CheckpointRecord: (0, 3, 0, Fraction(2, 3), Fraction(1, 6), True, None,
                       None),
    NonNormalityReport: (0, (), True),
    Oracle: ((1, 0), 1),
    ConstantBits: (1,),
    PeriodicBits: ((0, 1),),
    TableBits: ({3: 1}, 0),
    RationalBits: (1, 3),
    ChampernowneBits: (),
    OracleBits: (Oracle((1, 0), 1),),
    ConstantHalt: (2,),
    LinearHalt: (2, 1),
    TableHalt: ({3: 1}, 2),
    ProgramEntry: (0, ConstantBits(1), ConstantHalt(2), None),
    Registry: ((ProgramEntry(0, ConstantBits(1), ConstantHalt(2)),), None),
    BasicSequence: ((2, 3),),
    BlockChoice: (0, 1, (1, 2)),
    LimitFunction: ((0, 1, 2), 2, (1,), (BlockChoice(0, 1, (1, 2)),), 4),
    _Table: (("a", "b"), ((1, (2, 3)),)),
}
RECORDS = list(EXAMPLES)

# what a class body holds besides its own definitions
NOT_DEFINED = {"__dict__", "__weakref__", "__match_args__",
               "__abstractmethods__", "_abc_impl"}


def twin(cls: type) -> type:
    """A frozen dataclass of `cls`'s class body, over its bases but Record."""
    namespace = {k: v for k, v in vars(cls).items() if k not in NOT_DEFINED}
    bases = tuple(b for b in cls.__bases__ if b is not Record)
    return dataclasses.dataclass(frozen=True)(
        type(cls)(cls.__name__, bases, namespace))


TWINS = {cls: twin(cls) for cls in RECORDS}
# a subclass of each side, adding no field
SUBCLASSES = {cls: (type("Sub", (cls,), {}), type("Sub", (TWINS[cls],), {}))
              for cls in RECORDS}

# field values, valid for some fields and not for others, so that both
# sides succeed or both refuse in `__post_init__`
VALUES = [0, 1, 2, 3, -1, True, None, (), (0, 1), (1,), ((0, 1), (2, 0)),
          {3: 1}, Fraction(1, 3), Oracle((1, 0), 1), BasicSequence((2, 3)),
          ConstantBits(1), ConstantHalt(2),
          (ProgramEntry(0, ConstantBits(1), ConstantHalt(2)),)]


@st.composite
def calls(draw, cls):
    """(args, kwargs) for `cls`: each field mostly its value in EXAMPLES,
    else one of VALUES, given positionally while the leading ones are, or,
    if it has a default, sometimes left out; or else one field left out,
    one positional argument too many, an unknown keyword or a field given
    twice."""
    names = cls.__match_args__
    chosen = {n: v if draw(st.integers(0, 3)) else draw(st.sampled_from(VALUES))
              for n, v in zip(names, EXAMPLES[cls])
              if not (hasattr(cls, n) and draw(st.booleans()))}
    fault = draw(st.sampled_from(
        ["none"] * 5 + ["missing", "extra", "unknown", "twice"]))
    if fault == "missing" and chosen:
        del chosen[draw(st.sampled_from(sorted(chosen)))]
    lead = next((i for i, n in enumerate(names) if n not in chosen),
                len(names))
    k = draw(st.integers(0, lead))
    args = tuple(chosen[n] for n in names[:k])
    kwargs = {n: v for n, v in chosen.items() if n not in names[:k]}
    if fault == "extra":
        return (*EXAMPLES[cls], 0), {}
    if fault == "unknown":
        kwargs["not_a_field"] = 0
    if fault == "twice" and k:
        kwargs[names[0]] = 0
    return args, kwargs


def outcome(make, args, kwargs):
    try:
        return make(*args, **kwargs), None
    except Exception as exc:  # compared between the two sides below
        return None, exc


def built(cls, call):
    """The record and its twin from one call, which both make or both
    refuse with the same exception type; with the same message, unless the
    arguments do not bind to the twin's signature."""
    args, kwargs = call
    record, error = outcome(cls, args, kwargs)
    double, twin_error = outcome(TWINS[cls], args, kwargs)
    assert type(error) is type(twin_error)
    try:
        inspect.signature(TWINS[cls]).bind(*args, **kwargs)
    except TypeError:
        assert isinstance(error, TypeError)
    else:
        assert str(error) == str(twin_error)
    return record, double


def hashed(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


def test_twins_have_the_records_fields():
    for cls in RECORDS:
        assert (tuple(f.name for f in dataclasses.fields(TWINS[cls]))
                == cls.__match_args__)
        assert not dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_record_behaves_as_its_dataclass_twin(cls, data):
    first = data.draw(calls(cls))
    second = data.draw(st.one_of(st.just(first), calls(cls)))
    record, double = built(cls, first)
    other, other_double = built(cls, second)
    if record is None:
        return
    values = [getattr(record, n) for n in cls.__match_args__]
    assert values == [getattr(double, n) for n in cls.__match_args__]
    assert ([type(v) for v in values]
            == [type(getattr(double, n)) for n in cls.__match_args__])
    assert record._asdict() == dict(zip(cls.__match_args__, values))
    assert repr(record) == repr(double)
    assert hashed(record) == hashed(double)
    assert record == record and not record != record
    assert record != double and double != record
    sub, double_sub = SUBCLASSES[cls]
    assert record != sub(*values) and double != double_sub(*values)
    if other is not None:
        assert (record == other) == (double == other_double)
        assert (record != other) == (double != other_double)
    for name in (*cls.__match_args__, "not_a_field"):
        for change, args in ((setattr, (name, 0)), (delattr, (name,))):
            with pytest.raises(dataclasses.FrozenInstanceError) as refused:
                change(record, *args)
            with pytest.raises(dataclasses.FrozenInstanceError) as expected:
                change(double, *args)
            assert str(refused.value) == str(expected.value)
    assert [getattr(record, n) for n in cls.__match_args__] == values
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record and repr(copy) == repr(record)


def test_no_type_is_a_dataclass():
    # a dataclass costs every start of the program its generated code, so
    # a value type is a Record, and `_replace` stands for `dataclasses.replace`
    classes = {obj for name, module in list(sys.modules.items())
               if name == "cantornorm" or name.startswith("cantornorm.")
               for obj in vars(module).values()
               if isinstance(obj, type)
               and obj.__module__.startswith("cantornorm")}
    assert not {cls for cls in classes if dataclasses.is_dataclass(cls)}
    assert ({cls for cls in classes if issubclass(cls, Record)}
            == {Record, *RECORDS})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_replace_behaves_as_dataclasses_replace(cls, data):
    record, double = cls(*EXAMPLES[cls]), TWINS[cls](*EXAMPLES[cls])
    changes = data.draw(st.dictionaries(
        st.sampled_from([*cls.__match_args__, "not_a_field"]),
        st.sampled_from(VALUES)))
    copy, error = outcome(record._replace, (), changes)
    twin_copy, twin_error = outcome(dataclasses.replace, (double,), changes)
    assert type(error) is type(twin_error)
    if copy is not None:
        assert type(copy) is cls and repr(copy) == repr(twin_copy)
        assert copy == cls(**{**record._asdict(), **changes})
    assert repr(record) == repr(double)  # neither side changed in place
