"""The value types keep the dataclass contract, hand-written methods or not.

All 16 value types are declared with one decorator, `types._record`, which
is macct's own and no `dataclass`: it builds each class again with its
annotated fields as `__slots__` and `__match_args__`, and each slot's
setter, in field order, as `_setters`.  `dataclass` builds their
`__dataclass_fields__` and `__dataclass_params__` only when one is first
read, so a run that never reads them never imports `dataclasses`.  One base,
`types._Value`, writes every method once for all of them: equality, hash,
repr, the frozen guard, the pickle state, `__replace__`, and the `__init__`
of the records that check nothing, each over `__match_args__`, so a subclass
that declares no field keeps its type's.  The nine that check their fields
(`ChannelConfig`, `TrafficLoad`, `RatePair`, `CompletionTimePair`,
`HalfPlane`, `ConstrainedRateQuery`, `GridSpec`, `Phase`, `Schedule`) and
`WeightedSumSolution` have one `__init__` that checks and stores each field
once; `ConvexPiece` has one for its default.  Each type is compared here with
a reference of the same name and fields that the dataclass machinery builds
whole, frozen: equality, hash, repr, fields, `replace`, pickling, `deepcopy`
and the frozen guard must agree, and numbers that are not exact floats are
stored as floats.

Run directly, this module needs neither pytest nor numpy:
    PYTHONPATH=src python tests/test_value_contract.py
"""

import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import macct
import macct.types
from macct import (
    Case,
    ChannelConfig,
    CompletionTimePair,
    ConstrainedRateQuery,
    ConvexPiece,
    GridSpec,
    HalfPlane,
    OracleReport,
    Phase,
    RateDecomposition,
    RatePair,
    RegionDescription,
    Schedule,
    Thresholds,
    TrafficLoad,
    ValidationReport,
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
    ChannelConfig: ((3.0, 0.5), (0.5, 3.0)),
    TrafficLoad: ((1.0, 2.5), (2.5, 1.0)),
    ConstrainedRateQuery: ((RatePair(0.5, 0.25), 2.0), (RatePair(0.25, 0.5), 0.5)),
    RateDecomposition: ((0.5, 0.25, 2), (0.25, 0.5, 1)),
    Thresholds: ((0.25, 0.5, 0.75), (0.125, 0.25, 0.5)),
    GridSpec: ((16, (0.5, 2.0), (0.5, 2.0)), (32, (1.0, 4.0), (0.25, 1.0))),
    OracleReport: ((1.5, CompletionTimePair(1.0, 2.0), 0.125, 0.25),
                   (2.5, CompletionTimePair(2.0, 1.0), 0.25, 0.5)),
    ValidationReport: ((True, ()), (False, ("phase 0: no active users",))),
}


def _reference(cls):
    """A class of cls's name and fields whose `__init__` dataclass generates."""
    fields = [(f.name, f.type) for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, slots=True)


REFERENCES = {cls: _reference(cls) for cls in SAMPLES}

# The types whose `__init__` checks or stores its fields by hand; ConvexPiece has one for its
# default, and the other samples (`RECORDS`) share the base's.
HAND_WRITTEN = (CompletionTimePair, RatePair, HalfPlane, Phase, Schedule, WeightedSumSolution,
                ChannelConfig, TrafficLoad, ConstrainedRateQuery, GridSpec)


def _raises(exc_type, fn, *args, **kwargs):
    """The exception of type exc_type that fn(*args, **kwargs) raises."""
    try:
        fn(*args, **kwargs)
    except exc_type as exc:
        return exc
    raise AssertionError(f"{fn!r}{args!r}{kwargs!r} did not raise {exc_type.__name__}")


def test_every_value_type_is_sampled():
    value_types = {getattr(macct, name) for name in macct.__all__}
    assert set(SAMPLES) == {cls for cls in value_types if dataclasses.is_dataclass(cls)}
    assert len(SAMPLES) == 16


def test_hand_written_init():
    for cls in SAMPLES:
        params = cls.__dataclass_params__
        assert not (params.init or params.eq or params.repr or params.frozen), cls
        own = cls in HAND_WRITTEN or cls is ConvexPiece  # ConvexPiece: for its default
        assert ("__init__" in vars(cls)) is own and "__post_init__" not in vars(cls), cls
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls)), cls
    # Immutability is the shared base's, not dataclass's: a frozen dataclass subclass is refused.
    _raises(TypeError, dataclasses.dataclass(frozen=True), type("Sub", (ChannelConfig,), {}))


# The methods the shared base writes once, `__replace__` on every version.
SHARED = ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__", "__getstate__",
          "__setstate__", "__replace__")
RECORDS = (RateDecomposition, Thresholds, RegionDescription, OracleReport, ValidationReport)


def test_one_shared_equality_hash_and_repr():
    # No type carries its own copy: each reads the one the shared base defines.
    shared = {name: getattr(ChannelConfig, name) for name in SHARED}
    for cls in SAMPLES:
        params = cls.__dataclass_params__
        assert not params.eq and not params.repr and not params.order, cls
        for name, method in shared.items():
            assert getattr(cls, name) is method, (cls, name)
            assert name not in vars(cls), (cls, name)
    # The records that check nothing share one `__init__`, which no checked type uses.
    init = RECORDS[0].__init__
    assert all(cls.__init__ is init for cls in RECORDS)
    assert all(cls.__init__ is not init for cls in set(SAMPLES) - set(RECORDS))


def test_records_refuse_a_missing_unknown_or_repeated_field():
    for cls in RECORDS:
        args = SAMPLES[cls][0]
        first = cls.__slots__[0]
        for bad_args, bad_kwargs in (
            (args[:-1], {}),  # a field missing
            (args + args[:1], {}),  # one too many
            (args, {"unknown": 1}),
            (args[1:], {"unknown": args[0]}),
            (args, {first: args[0]}),  # given twice
        ):
            for make in (cls, REFERENCES[cls]):
                _raises(TypeError, make, *bad_args, **bad_kwargs)
        err = _raises(TypeError, cls, *args[:-1])
        assert cls.__qualname__ in str(err) and cls.__slots__[-1] in str(err), err


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


def test_replace_checks_with_the_types_own_message():
    # `__replace__` builds through the type's own `__init__` on every version; `copy.replace`,
    # from 3.13, calls it.
    replacers = [ChannelConfig.__replace__] + ([copy.replace] if hasattr(copy, "replace") else [])
    spec = GridSpec(16, (0.5, 2.0), (0.5, 2.0))
    for obj, change, message in (
        (CompletionTimePair(1.0, 1.0), {"d2": 0.0}, "d2 must be > 0, got 0.0"),
        (ChannelConfig(3.0, 0.5), {"p1": math.nan}, "p1 must be finite, got nan"),
        (PHASE, {"active_users": {1}}, "inactive user 2 must have rate 0"),
        (spec, {"resolution": 8}, "grid resolution must be an int >= 16, got 8"),
    ):
        for replace in replacers:
            assert str(_raises(ValueError, replace, obj, **change)) == message, (obj, replace)
    for replace in replacers:
        _raises(TypeError, replace, spec, unknown=1)
        for cls, (args, other) in SAMPLES.items():
            changed = replace(cls(*args), **{cls.__slots__[0]: other[0]})
            assert type(changed) is cls and changed == cls(other[0], *args[1:]), (cls, replace)
            assert replace(cls(*args)) == cls(*args), (cls, replace)


def test_match_args_are_the_fields():
    for cls in SAMPLES:
        assert cls.__match_args__ == cls.__slots__, cls
        assert [store.__self__ for store in cls._setters] == [
            vars(cls)[name] for name in cls.__slots__], cls  # each slot's setter, in order
    match ChannelConfig(3.0, 0.5):
        case ChannelConfig(p1, p2):
            assert (p1, p2) == (3.0, 0.5)
        case _:
            raise AssertionError("ChannelConfig(p1, p2) did not match")


def test_dataclass_attributes_are_the_records_alone():
    assert not dataclasses.is_dataclass(macct.types._Value)
    _raises(AttributeError, getattr, macct.types._Value, "__dataclass_fields__")
    assert dataclasses.fields(ConvexPiece)[1].default == ()  # the declared default
    # A plain subclass reads its record's fields, also when it is the first to read them.
    for cls in SAMPLES:
        sub = type("Sub", (cls,), {})
        assert dataclasses.fields(sub) == dataclasses.fields(cls), cls

    @macct.types._record
    class Pair(macct.types._Value):
        x: float
        y: tuple = ()

    class Sub(Pair):
        pass

    got = [(f.name, f.type, f.default) for f in dataclasses.fields(Sub)]
    assert got == [("x", float, dataclasses.MISSING), ("y", tuple, ())]
    assert "__dataclass_fields__" not in vars(Sub)
    assert vars(Pair)["__dataclass_fields__"] is Sub.__dataclass_fields__  # stored once
    assert Pair.__slots__ == Pair.__match_args__ == ("x", "y")


def test_pickle_and_deepcopy_round_trip():
    for cls, (args, _) in SAMPLES.items():
        obj = cls(*args)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, protocol))
            assert type(back) is cls and back == obj and repr(back) == repr(obj), (cls, protocol)
        clone = copy.deepcopy(obj)
        assert type(clone) is cls and clone == obj and repr(clone) == repr(obj), cls
        assert copy.copy(obj) == obj, cls


# A subclass of each type that declares no field of its own (`__slots__ = ()`), defined in this
# module under its own name so that pickle finds it.
SUBCLASSES = {cls: type(f"Sub{cls.__name__}", (cls,), {"__slots__": (), "__module__": __name__})
              for cls in SAMPLES}
globals().update((sub.__name__, sub) for sub in SUBCLASSES.values())


def test_a_subclass_keeps_the_fields_it_inherits():
    for cls, (args, other) in SAMPLES.items():
        sub = SUBCLASSES[cls]
        obj = sub(*args)
        assert repr(obj) == repr(cls(*args)).replace(cls.__name__, sub.__name__, 1), cls
        assert obj == sub(*args) and obj != sub(*other) and obj != cls(*args), cls
        assert hash(obj) == hash(cls(*args)) != hash(sub(*other)), cls
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, protocol))
            assert type(back) is sub and back == obj and repr(back) == repr(obj), (cls, protocol)
        assert type(copy.deepcopy(obj)) is sub and copy.deepcopy(obj) == obj, cls
        changed = obj.__replace__(**{cls.__match_args__[0]: other[0]})
        assert type(changed) is sub and changed == sub(other[0], *args[1:]), cls


# A protocol-4 and a protocol-0 pickle of a Schedule made while `dataclass` wrote the frozen
# types' `__getstate__` and `__setstate__`: the shared ones read and write the same state.
OLD_SCHEDULE = Schedule((PHASE,), CompletionTimePair(1.5, 1.5))
OLD_PICKLES = (
    b"\x80\x04\x95\xb5\x00\x00\x00\x00\x00\x00\x00\x8c\x0emacct.schedule\x94\x8c\x08Schedule\x94"
    b"\x93\x94)\x81\x94]\x94(h\x00\x8c\x05Phase\x94\x93\x94)\x81\x94]\x94(G?\xf8\x00\x00\x00\x00"
    b"\x00\x00\x8c\x0bmacct.types\x94\x8c\x08RatePair\x94\x93\x94)\x81\x94]\x94(G?\xe0\x00\x00\x00"
    b"\x00\x00\x00G?\xd0\x00\x00\x00\x00\x00\x00eb(K\x01K\x02\x91\x94eb\x85\x94h\t\x8c\x12Complet"
    b"ionTimePair\x94\x93\x94)\x81\x94]\x94(G?\xf8\x00\x00\x00\x00\x00\x00G?\xf8\x00\x00\x00\x00"
    b"\x00\x00ebeb.",
    b"ccopy_reg\n_reconstructor\np0\n(cmacct.schedule\nSchedule\np1\nc__builtin__\nobject\np2\n"
    b"Ntp3\nRp4\n(lp5\n(g0\n(cmacct.schedule\nPhase\np6\ng2\nNtp7\nRp8\n(lp9\nF1.5\nag0\n(cmac"
    b"ct.types\nRatePair\np10\ng2\nNtp11\nRp12\n(lp13\nF0.5\naF0.25\nabac__builtin__\nfrozens"
    b"et\np14\n((lp15\nI1\naI2\natp16\nRp17\nabtp18\nag0\n(cmacct.types\nCompletionTimePair\n"
    b"p19\ng2\nNtp20\nRp21\n(lp22\nF1.5\naF1.5\nabab.",
)


def test_pickles_load_across_the_shared_pickle_state():
    for protocol, data in zip((4, 0), OLD_PICKLES):
        back = pickle.loads(data)
        assert type(back) is Schedule and back == OLD_SCHEDULE, protocol
        assert repr(back) == repr(OLD_SCHEDULE), protocol
        assert pickle.dumps(OLD_SCHEDULE, protocol) == data, protocol  # and the old code loads it


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
        for cls in (CompletionTimePair, RatePair, HalfPlane, ChannelConfig, TrafficLoad):
            obj = cls(*[value] * len(cls.__slots__))
            for name in cls.__slots__:
                stored = getattr(obj, name)
                assert type(stored) is float and stored == float(value), (cls, value)
            floats = [float(value)] * len(cls.__slots__)
            assert repr(obj) == repr(REFERENCES[cls](*floats)), (cls, value)
        query = ConstrainedRateQuery(RatePair(0.5, 0.5), value)
        assert type(query.c) is float and query.c == float(value), value
        phase = Phase(value, RatePair(1.0, 0.0), [1])
        assert type(phase.duration) is float and phase.duration == float(value), value
        assert phase.active_users == frozenset((1,))
        assert all(type(user) is int for user in phase.active_users)


def test_grid_bounds_are_stored_as_pairs_of_floats():
    # A list and a Fraction/int pair are stored as the tuples of floats they equal, so the spec
    # hashes, compares and prints as one built from those tuples.
    spec = GridSpec(16, [0.5, 2.0], (Fraction(1, 2), 2))
    floats = GridSpec(16, (0.5, 2.0), (0.5, 2.0))
    for bounds in (spec.d1_bounds, spec.d2_bounds):
        assert type(bounds) is tuple and [type(v) for v in bounds] == [float, float], bounds
    assert spec == floats and hash(spec) == hash(floats)
    assert repr(spec) == repr(floats) == repr(REFERENCES[GridSpec](16, (0.5, 2.0), (0.5, 2.0)))
    assert repr(spec) == "GridSpec(resolution=16, d1_bounds=(0.5, 2.0), d2_bounds=(0.5, 2.0))"


def test_exact_floats_are_stored_as_given():
    for value in (5e-324, 1.5, 1.7976931348623157e308):
        for cls in (CompletionTimePair, ChannelConfig, TrafficLoad):
            obj = cls(value, value)
            assert all(getattr(obj, name) is value for name in cls.__slots__), cls
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
        (ChannelConfig, (0.0, math.nan), "p1 must be > 0 (zero power never completes), got 0.0"),
        (ChannelConfig, (1.0, math.nan), "p2 must be finite, got nan"),
        (TrafficLoad, (True, -1.0), "tau1 must be a number, not a boolean, got True"),
        (TrafficLoad, (1.0, -1.0), "tau2 must be > 0, got -1.0"),
        (ConstrainedRateQuery, ("x", True), "c must be a number, not a boolean, got True"),
        (ConstrainedRateQuery, ("x", 0.0), "c must be a positive finite ratio, got 0.0"),
        (ConstrainedRateQuery, ("x", 1e13),
         "c=10000000000000.0 is outside the well-conditioned range [1e-12, 1000000000000.0]"),
        (GridSpec, (8, (2.0, 1.0), ()), "grid resolution must be an int >= 16, got 8"),
        (GridSpec, (16, (2.0, 1.0), ()),
         "d1_bounds must be finite with 0 < lo < hi, got (2.0, 1.0)"),
        (GridSpec, (16, (0.5, 2.0), (True, 2.0)),
         "d2_bounds must be a number, not a boolean, got True"),
    ]
    for cls, args, message in cases:
        assert str(_raises(ValueError, cls, *args)) == message, (cls, args)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("value-type contract: ok")
