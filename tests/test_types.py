"""The float value types store exact floats as given and every other real as a float.

`RatePair`, `CompletionTimePair` and `HalfPlane`, built many times per
query, test exact in-range floats with one chained comparison; anything that
fails it falls through to the field-by-field checks of `_require_fields`.
`ChannelConfig` and `TrafficLoad`, built once per query, have that one path
alone.  The rows here are where the two paths could part: signed zero and
the extremes of the float range, numbers that are not exact floats in one
field or in all of them, and the values that must still be refused with
their messages.
`tests/test_arguments.py` pins each field alone, the others at 1.0; here
the fields vary together.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import macct.types as types
from macct import ChannelConfig, CompletionTimePair, HalfPlane, RatePair, TrafficLoad

TYPES = (ChannelConfig, TrafficLoad, RatePair, CompletionTimePair, HalfPlane)
FAST = (RatePair, CompletionTimePair, HalfPlane)  # exact in-range floats skip `_require_fields`


def _fields(cls):
    return tuple(cls.__dataclass_fields__)


def _build(cls, values):
    return cls(**dict(zip(_fields(cls), values)))


@pytest.fixture
def slow_path_calls(monkeypatch):
    calls = []
    real = types._require_fields
    monkeypatch.setattr(types, "_require_fields", lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("value", [1.5, 5e-324, sys.float_info.max], ids=repr)
def test_exact_floats_pass_untouched(cls, value, slow_path_calls):
    values = [value] * len(_fields(cls))
    obj = _build(cls, values)
    assert all(getattr(obj, name) is value for name in _fields(cls))
    assert len(slow_path_calls) == (0 if cls in FAST else 1)


@pytest.mark.parametrize(
    "cls, values", [(RatePair, (-0.0, -0.0)), (HalfPlane, (-0.0, 1.0, -0.0))],  # a nonzero normal
    ids=["RatePair", "HalfPlane"],
)
def test_negative_zero_passes_with_its_sign(cls, values, slow_path_calls):
    obj = _build(cls, values)
    for name, given in zip(_fields(cls), values):
        assert math.copysign(1.0, getattr(obj, name)) == math.copysign(1.0, given)
    assert slow_path_calls == []


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize(
    "value", [np.float64(2.5), 3, Fraction(3, 2)], ids=["np.float64", "int", "Fraction"]
)
@pytest.mark.parametrize("where", ["first", "last", "all"])
def test_other_reals_are_stored_as_exact_floats(cls, value, where, slow_path_calls):
    names = _fields(cls)
    values = {"first": [value] + [1.0] * (len(names) - 1),
              "last": [1.0] * (len(names) - 1) + [value],
              "all": [value] * len(names)}[where]
    obj = _build(cls, values)
    for name, given in zip(names, values):
        stored = getattr(obj, name)
        assert type(stored) is float and stored == float(given)
    assert len(slow_path_calls) == 1


def _message(name, value):
    if isinstance(value, bool):
        return f"{name} must be a number, not a boolean, got {value!r}"
    return f"{name} must be finite, got {value!r}"


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, False], ids=repr)
def test_every_field_refused_names_the_first(cls, bad):
    names = _fields(cls)
    with pytest.raises(ValueError) as err:
        _build(cls, [bad] * len(names))
    assert str(err.value) == _message(names[0], bad)
