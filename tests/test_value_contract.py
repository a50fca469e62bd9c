"""The value types keep the dataclass contract, hand-written `__init__` or not.

`CompletionTimePair`, `RatePair`, `HalfPlane`, `Phase`, `Schedule` and
`WeightedSumSolution` are frozen, slotted dataclasses built with `init=False`
and one `__init__` that checks and stores each field once; `ConvexPiece` and
`RegionDescription`, which check nothing, keep the generated one.  Each type is
compared here with a reference of the same name and fields whose `__init__` the
dataclass machinery generates: equality, hash, repr, fields, `replace`,
pickling, `deepcopy` and the frozen guard must agree, and numbers that are not
exact floats are stored as floats.

Run directly, this module needs neither pytest nor numpy:
    PYTHONPATH=src python tests/test_value_contract.py
"""

import copy
import dataclasses
import math
import pickle
from fractions import Fraction

from macct import (
    Case,
    CompletionTimePair,
    ConvexPiece,
    HalfPlane,
    Phase,
    RatePair,
    RegionDescription,
    Schedule,
    WeightedSumSolution,
)

try:
    import numpy as np
except ImportError:
    np = None

BOTH = frozenset((1, 2))
PHASE = Phase(1.5, RatePair(0.5, 0.25), BOTH)
PIECE = ConvexPiece((HalfPlane(1.0, 0.0, 0.5),), (("corner", (0.5, 0.5)),))

# Each type with two argument tuples of exact values that build distinct objects.
SAMPLES = {
    CompletionTimePair: ((1.5, 2.5), (2.5, 1.5)),
    RatePair: ((0.5, -0.0), (0.0, 0.5)),
    HalfPlane: ((1.0, -0.0, 2.5), (0.5, 1.0, -1.0)),
    ConvexPiece: (((HalfPlane(1.0, 1.0, 2.0),), (("A", (1.0, 1.0)),)), ((), ())),
    RegionDescription: ((Case.II, PIECE, PIECE), (Case.I, ConvexPiece(()), PIECE)),
    Phase: ((1.5, RatePair(0.5, 0.25), BOTH), (0.0, RatePair(0.0, 1.0), frozenset((2,)))),
    Schedule: (((PHASE,), CompletionTimePair(1.5, 1.5)), ((), CompletionTimePair(1.0, 2.0))),
    WeightedSumSolution: ((0.25, 1.75, CompletionTimePair(1.0, 2.0), "A", 1, False),
                          (0.75, 1.25, CompletionTimePair(2.0, 1.0), "C", 2, True)),
}


def _reference(cls):
    """A class of cls's name and fields whose `__init__` dataclass generates."""
    fields = [(f.name, f.type) for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, slots=True)


REFERENCES = {cls: _reference(cls) for cls in SAMPLES}

# The types whose `__init__` is written by hand; the other samples keep the generated one.
HAND_WRITTEN = (CompletionTimePair, RatePair, HalfPlane, Phase, Schedule, WeightedSumSolution)


def _raises(exc_type, fn, *args, **kwargs):
    """The exception of type exc_type that fn(*args, **kwargs) raises."""
    try:
        fn(*args, **kwargs)
    except exc_type as exc:
        return exc
    raise AssertionError(f"{fn!r}{args!r}{kwargs!r} did not raise {exc_type.__name__}")


def test_hand_written_init():
    for cls in SAMPLES:
        params = cls.__dataclass_params__
        assert params.frozen and params.init is (cls not in HAND_WRITTEN), cls
        assert "__init__" in vars(cls) and "__post_init__" not in vars(cls), cls
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls)), cls


def test_fields_repr_hash_and_equality_match_the_reference():
    for cls, (args, other) in SAMPLES.items():
        ref = REFERENCES[cls]
        obj, ref_obj = cls(*args), ref(*args)
        assert [(f.name, f.type) for f in dataclasses.fields(obj)] == [
            (f.name, f.type) for f in dataclasses.fields(ref_obj)
        ], cls
        assert repr(obj) == repr(ref_obj), cls
        assert hash(obj) == hash(ref_obj), cls
        assert obj == cls(*args) and ref_obj == ref(*args), cls
        assert obj != cls(*other) and ref_obj != ref(*other), cls
        assert obj != ref_obj, cls  # a dataclass equals only its own class
        keywords = dict(zip(cls.__dataclass_fields__, args))
        assert cls(**keywords) == obj, cls


def test_replace_matches_the_reference_and_checks_again():
    for cls, (args, other) in SAMPLES.items():
        change = {dataclasses.fields(cls)[0].name: other[0]}
        changed = dataclasses.replace(cls(*args), **change)
        assert repr(changed) == repr(dataclasses.replace(REFERENCES[cls](*args), **change)), cls
        assert changed == cls(other[0], *args[1:]), cls
    err = _raises(ValueError, dataclasses.replace, CompletionTimePair(1.0, 1.0), d2=0.0)
    assert str(err) == "d2 must be > 0, got 0.0"
    err = _raises(ValueError, dataclasses.replace, PHASE, active_users={1})
    assert str(err) == "inactive user 2 must have rate 0"


def test_pickle_and_deepcopy_round_trip():
    for cls, (args, _) in SAMPLES.items():
        obj = cls(*args)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, protocol))
            assert type(back) is cls and back == obj and repr(back) == repr(obj), (cls, protocol)
        clone = copy.deepcopy(obj)
        assert type(clone) is cls and clone == obj and repr(clone) == repr(obj), cls
        assert copy.copy(obj) == obj, cls


def test_fields_are_frozen():
    for cls, (args, other) in SAMPLES.items():
        for obj in (cls(*args), REFERENCES[cls](*args)):
            for f, value in zip(dataclasses.fields(cls), other):
                _raises(dataclasses.FrozenInstanceError, setattr, obj, f.name, value)
                _raises(dataclasses.FrozenInstanceError, delattr, obj, f.name)
            assert repr(obj) == repr(REFERENCES[cls](*args)), cls  # unchanged


# Reals that are not exact floats; the numpy ones where numpy is installed.
OTHER_REALS = [3, Fraction(3, 2)] + ([] if np is None else [np.float64(2.5), np.int64(2)])


def test_other_reals_are_stored_as_exact_floats():
    for value in OTHER_REALS:
        for cls in (CompletionTimePair, RatePair, HalfPlane):
            obj = cls(*[value] * len(cls.__slots__))
            for name in cls.__slots__:
                stored = getattr(obj, name)
                assert type(stored) is float and stored == float(value), (cls, value)
            floats = [float(value)] * len(cls.__slots__)
            assert repr(obj) == repr(REFERENCES[cls](*floats)), (cls, value)
        phase = Phase(value, RatePair(1.0, 0.0), [1])
        assert type(phase.duration) is float and phase.duration == float(value), value
        assert phase.active_users == frozenset((1,))
        assert all(type(user) is int for user in phase.active_users)


def test_exact_floats_are_stored_as_given():
    for value in (5e-324, 1.5, 1.7976931348623157e308):
        obj = CompletionTimePair(value, value)
        assert obj.d1 is value and obj.d2 is value
    zero = RatePair(-0.0, 0.0)
    assert math.copysign(1.0, zero.r1) == -1.0 and math.copysign(1.0, zero.r2) == 1.0
    rates = RatePair(0.5, 0.0)
    phase = Phase(2.0, rates, BOTH)
    assert phase.rates is rates and phase.active_users is BOTH
    assert ConvexPiece(halfplanes=PIECE.halfplanes).vertices == ()  # the default


def test_checks_run_in_order_with_their_messages():
    cases = [
        (CompletionTimePair, (math.nan, 0.0), "d1 must be finite, got nan"),
        (CompletionTimePair, (1.0, 0.0), "d2 must be > 0, got 0.0"),
        (CompletionTimePair, (True, 1.0), "d1 must be a number, not a boolean, got True"),
        (CompletionTimePair, ("1", 1.0), "d1 must be a real number, got '1'"),
        (RatePair, (-1.0, math.inf), "r1 must be >= 0, got -1.0"),
        (RatePair, (0.0, 10**400), "r2 must be finite, got int beyond the float range"),
        (HalfPlane, (math.inf, 0.0, 0.0), "a must be finite, got inf"),
        (HalfPlane, (0.0, Fraction(0), 1.0), "half-plane normal (a, b) must be nonzero"),
        (Phase, (-1.0, "x", {3}), "phase duration must be >= 0, got -1.0"),
        (Phase, (1.0, "x", {3}), "active_users must be a subset of {1, 2}"),
        (Phase, (1.0, (1.0, 0.0), {1}), "rates must be a RatePair, got (1.0, 0.0)"),
        (Phase, (1.0, RatePair(1.0, 0.0), {2}), "inactive user 1 must have rate 0"),
        (Schedule, ([PHASE], (1.5, 1.5)), f"phases must be a tuple of Phase, got {[PHASE]!r}"),
        (Schedule, ((PHASE, 1.5), (1.5, 1.5)),
         f"phases must be a tuple of Phase, got {(PHASE, 1.5)!r}"),
        (Schedule, ((PHASE,), (1.5, 1.5)), "achieved must be a CompletionTimePair, got (1.5, 1.5)"),
    ]
    for cls, args, message in cases:
        assert str(_raises(ValueError, cls, *args)) == message, (cls, args)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("value-type contract: ok")
