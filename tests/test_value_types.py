"""The numpy-free value types behave as frozen dataclasses.

``SymTraceless3``, ``InvariantTuple``, ``CanonicalParams`` and
``CanonicalRecord`` are plain ``__slots__`` classes (``components._Record``),
so ``triso invariants`` never imports ``dataclasses``; these tests pin the
frozen-dataclass behaviour they keep, and pass against dataclass versions
of the same types too, short of the slot setters, which the last test
checks for every ``_Record`` subclass.
"""

import copy
import math
import pickle

import pytest

from triso.canonical_core import CanonicalRecord, _python_candidates, canonical_record
from triso.components import SymTraceless3, _Record
from triso.invariants import CanonicalParams, InvariantTuple

CASES = [
    (SymTraceless3, {"d111": 1.0, "d223": -2.5},
     "SymTraceless3(d111=1.0, d112=0.0, d113=0.0, d122=0.0, d123=0.0, d222=0.0, d223=-2.5)"),
    (InvariantTuple, {"i2": 1.0, "i4": 2.0, "i6": 3.0, "i10": 4.0},
     "InvariantTuple(i2=1.0, i4=2.0, i6=3.0, i10=4.0)"),
    (CanonicalParams, {"d111": 0.5, "d122": -1.0, "d123": 0.0, "d223": 2.0},
     "CanonicalParams(d111=0.5, d122=-1.0, d123=0.0, d223=2.0)"),
]


NAMES = {
    SymTraceless3: ("d111", "d112", "d113", "d122", "d123", "d222", "d223"),
    InvariantTuple: ("i2", "i4", "i6", "i10"),
    CanonicalParams: ("d111", "d122", "d123", "d223"),
}


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in NAMES[type(value)])


@pytest.mark.parametrize("cls, kwargs, text", CASES)
def test_repr_eq_and_hash_follow_the_fields(cls, kwargs, text):
    value = cls(**kwargs)
    assert repr(value) == text
    assert value == cls(*fields(value)) and not value != cls(*fields(value))
    assert hash(value) == hash(cls(*fields(value))) == hash(fields(value))
    other = cls(*fields(value)[:-1], 7.0)
    assert value != other and hash(value) != hash(other)
    # another type never compares equal, even with the same fields
    assert value != fields(value) and value != object()
    assert len({value, cls(**kwargs), other}) == 2


@pytest.mark.parametrize("cls, kwargs, text", CASES)
def test_assignment_and_deletion_raise_attribute_error(cls, kwargs, text):
    value = cls(**kwargs)
    name = NAMES[cls][0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, 3.0)
    with pytest.raises(AttributeError):
        value.extra = 1.0
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("cls, kwargs, text", CASES)
def test_pickle_and_copy_round_trip(cls, kwargs, text):
    value = cls(**kwargs)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and type(twin) is cls and repr(twin) == text


def test_keyword_defaults():
    assert fields(SymTraceless3()) == (0.0,) * 7
    assert SymTraceless3(2) == SymTraceless3(d111=2.0)
    with pytest.raises(TypeError):
        InvariantTuple(1.0, 2.0, 3.0)
    with pytest.raises(TypeError):
        CanonicalParams(d111=1.0)
    with pytest.raises(TypeError):
        SymTraceless3(d333=1.0)


def test_symtraceless_converts_and_validates_each_component():
    t = SymTraceless3(1, True, 0.5)
    assert fields(t)[:3] == (1.0, 1.0, 0.5) and all(type(x) is float for x in fields(t))
    for name, bad in (("d111", math.nan), ("d122", math.inf), ("d223", -math.inf)):
        with pytest.raises(ValueError, match=f"^component {name} must be finite, got {bad!r}$"):
            SymTraceless3(**{name: bad})
    with pytest.raises(ValueError):
        SymTraceless3(d112="x")
    with pytest.raises(TypeError):
        SymTraceless3(d112=None)


def test_params_and_invariants_keep_their_values_as_given():
    # only SymTraceless3 converts and validates
    params = CanonicalParams(1, 2, 3, math.nan)
    assert type(params.d111) is int and math.isnan(params.d223)
    assert InvariantTuple(1, 2, 3, 4).to_json_obj() == {"I2": 1, "I4": 2, "I6": 3, "I10": 4}


def test_every_record_sets_its_slots_through_their_setters():
    # the record from a real canonicalization, its rows a list and its diagnostics a dict
    record = canonical_record(SymTraceless3(0.3, -1.2, 0.5, 0.8, -0.4, 1.1, 0.2), "O(3)", _python_candidates)
    arguments = {
        SymTraceless3: (0.3, -1.2, 0.5, 0.8, -0.4, 1.1, 0.2),
        InvariantTuple: (1.0, 2.0, 3.0, 4.0),
        CanonicalParams: (0.5, -1.0, 0.0, 2.0),
        CanonicalRecord: tuple(getattr(record, name) for name in CanonicalRecord.__slots__),
    }
    assert set(_Record.__subclasses__()) == set(arguments)
    for cls, args in arguments.items():
        # one setter per slot, each bound to its slot's descriptor, in order
        assert [setter.__self__ for setter in cls._setters] == [cls.__dict__[name] for name in cls.__slots__]
        value = cls(*args)
        assert value._values() == args, cls
        for name in cls.__slots__:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, 3.0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        assert value._values() == args
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is cls and twin._values() == args and twin == value, cls
