"""Core value types shared by every module.

All types are immutable; invalid field values are rejected at construction
so that downstream numeric code never has to re-check for NaN, infinities
or sign errors.
"""

from __future__ import annotations

import contextlib
import math
import operator

_INF = math.inf  # a global name, read faster than math.inf in every field check
_NORMAL = 2.2250738585072014e-308  # 2^-1022, the smallest normal float

# Absolute tolerance on constraint slack used by every membership test.  It
# is sound on the domain the tests and the gated benchmark cover, powers in
# [1e-2, 1e4] and loads in [1e-2, 1e2].  It is not well conditioned beyond
# it: far from c = d1/d2 = 1 the sum-rate slack's terms grow like max(c, 1/c),
# and one rounding of them can exceed it (ROADMAP, item 1).
EPS_MEM = 1e-9


class InfeasibleError(ValueError):
    """Raised when a requested point or query lies outside the feasible set.

    The message names the violated constraint.
    """


class ConsistencyError(RuntimeError):
    """Internal cross-check failure (two closed forms that must agree did not)."""


def _require_finite(name: str, value: float) -> float:
    """value as a finite float; a bool or anything that is not a real number is refused."""
    if type(value) is not float:  # exact floats, the common case, skip the type tests
        import numbers

        if isinstance(value, bool):
            raise ValueError(f"{name} must be a number, not a boolean, got {value!r}")
        if not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int or Fraction beyond the float range
            raise ValueError(f"{name} must be finite, got {type(value).__name__} "
                             "beyond the float range") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _shifted(values: tuple, small: float, low: float, large: float, high: float) -> tuple:
    """(2^-k, values times 2^k), k nearest 0 with small*low normal and large*high finite.  The
    region is homogeneous in (tau, d), so a site reads its loads and times shifted and a time it
    reads off them, times 2^-k, is exact while normal.  small*low and large*high bound what it
    forms: its least value times the least rate (or reciprocal) that value meets, and its largest
    value, or a sum of up to four, times the largest factor.  Where no k keeps both, the top wins.
    A shift to the largest value's power of two would flush a small partner."""
    if small * low >= _NORMAL and large * high < _INF:  # the moderate domain: no shift
        return 1.0, values
    e = math.frexp
    up = -1020 - e(small)[1] - e(low)[1]  # small*low*2^up >= 2^-1022
    # large*high*2^room < 2^1024 and each value below 2^1023; where large or high is inf it is a
    # sum of at most four floats (below 2^1026) or a factor below 4/5e-324 (below 2^1077)
    top = (e(large)[1] if large < _INF else 1026) + (e(high)[1] if high < _INF else 1077)
    room = min(1024 - top, 1023 - e(max(values))[1])
    k = max(-1022, min(max(up, 0), room, 1022))  # 2^-k and 2^k are normal floats
    return math.ldexp(1.0, -k), tuple(math.ldexp(v, k) for v in values)


def _require_fields(obj, values: tuple, floor: float, rule: str = "") -> None:
    """Store each value in frozen obj's fields, in order, as a finite float above floor (`rule`)."""
    for name, store, value in zip(obj.__match_args__, obj._setters, values):
        value = _require_finite(name, value)  # stored as an exact float
        if not value > floor:
            raise ValueError(f"{name} must be {rule}, got {value}")
        store(obj, value)


def _user_index(name: str, value: int) -> int:
    """The user index 1 or 2 as an int; numpy ints pass, a bool or a float does not."""
    if type(value) is not int and not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            value = operator.index(value)
    if type(value) is not int or value not in (1, 2):
        raise ValueError(f"{name} must be the int 1 or 2, got {value!r}")
    return value


def _require_unit_interval(name: str, value: float) -> None:
    """Reject anything but a real number in [0, 1]: NaN, infinities and bools included."""
    if type(value) is not float:  # exact floats skip the type test and its import
        import numbers

        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number in [0, 1], got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _require_tol(tol: float) -> None:
    """Refuse a membership tolerance that is not a real number in [0, 1): NaN and bools too."""
    if type(tol) is not float or not 0.0 <= tol < 1.0:  # in-range floats skip the type test
        import numbers

        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 <= tol < 1.0:
            raise ValueError(f"tol: must be a small nonnegative number, got {tol!r}")


_MIN_RESOLUTION = 16


def _require_resolution(resolution: int) -> int:
    """The grid resolution as an int of at least `_MIN_RESOLUTION`; anything else is refused."""
    value = -1  # a non-integer stays below the minimum
    with contextlib.suppress(TypeError):  # numpy ints pass; a bool (0 or 1) is below it
        value = operator.index(resolution)
    if value < _MIN_RESOLUTION:
        raise ValueError(f"grid resolution must be an int >= {_MIN_RESOLUTION}, got {resolution!r}")
    return value


class _Lazy(dict):
    """A record's `__dataclass_fields__` or `__dataclass_params__`, held as the class body that
    `dataclass` reads (the annotations and the class defaults).  The first read builds both and
    stores them on the record, over this descriptor (two racing reads store equal ones)."""

    def __set_name__(self, record, name: str) -> None:
        self.record, self.name = record, name

    def __get__(self, obj, owner):
        from dataclasses import dataclass

        made = dataclass(slots=True, init=False, eq=False, repr=False)(type("", (), self))
        self.record.__dataclass_fields__ = made.__dataclass_fields__
        self.record.__dataclass_params__ = made.__dataclass_params__
        return getattr(made, self.name)


class _Value:
    """Every method of a value type, written once over its fields, its `__match_args__` in order.

    What a frozen, slotted dataclass would generate: equality within one class, the hash of the
    field tuple, `Name(field=value!r, ...)`, `FrozenInstanceError` on assignment or deletion, the
    list of fields (its pickle state, stored back through `_setters`) and a checked `__replace__`.
    `__init__` serves the unchecked records."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__match_args__
        if kwargs or len(args) != len(names):  # the rest by name, each field once
            if len(args) + len(kwargs) != len(names) or kwargs.keys() - names[len(args):]:
                raise TypeError(f"{self.__class__.__qualname__}() takes each of {names} once")
            args += tuple(map(kwargs.__getitem__, names[len(args):]))
        self.__setstate__(args)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__getstate__() == other.__getstate__()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__getstate__()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __replace__(self, **changes):
        return self.__class__(**dict(zip(self.__match_args__, self.__getstate__()), **changes))

    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self.__match_args__]

    def __setstate__(self, state) -> None:
        for store, value in zip(self._setters, state):
            store(self, value)


def _record(cls):
    """A value type's declaration: the class built again with its annotated names as `__slots__`
    and `__match_args__`, a class default dropped, and its dataclass attributes made on demand.
    `_setters` holds each slot's `__set__` in field order: one call stores past the frozen guard."""
    names = tuple(cls.__annotations__)
    spec = {k: v for k, v in vars(cls).items() if k in (*names, "__annotations__")}
    body = {k: v for k, v in vars(cls).items() if k not in (*names, "__dict__", "__weakref__")}
    body.update(__slots__=names, __match_args__=names, __qualname__=cls.__qualname__,
                __dataclass_fields__=_Lazy(spec), __dataclass_params__=_Lazy(spec))
    record = type(cls)(cls.__name__, cls.__bases__, body)
    record._setters = tuple(vars(record)[name].__set__ for name in names)
    return record


@_record
class ChannelConfig(_Value):
    """Two-user Gaussian multi-access channel, receive powers in linear SNR."""

    p1: float
    p2: float

    def __init__(self, p1: float, p2: float) -> None:
        _require_fields(self, (p1, p2), 0.0, "> 0 (zero power never completes)")


@_record
class RatePair(_Value):
    """A point in rate space, bits per channel use.

    Used both for standard rates (codewords spanning a common block) and
    constrained rates (each user's rate defined over its own codeword
    length); the calling context distinguishes the two.
    """

    r1: float
    r2: float

    def __init__(self, r1: float, r2: float) -> None:
        # For a float, > -5e-324 is >= 0, -0.0 included.
        if type(r1) is type(r2) is float and -5e-324 < r1 < _INF and -5e-324 < r2 < _INF:
            _set_r1(self, r1)
            _set_r2(self, r2)
        else:
            _require_fields(self, (r1, r2), -5e-324, ">= 0")

    def as_tuple(self) -> tuple[float, float]:
        return (self.r1, self.r2)


_set_r1, _set_r2 = RatePair._setters


@_record
class TrafficLoad(_Value):
    """Per-user bit load, bits per source unit."""

    tau1: float
    tau2: float

    def __init__(self, tau1: float, tau2: float) -> None:
        _require_fields(self, (tau1, tau2), 0.0, "> 0")


@_record
class CompletionTimePair(_Value):
    """A point in completion-time space, channel uses per source unit."""

    d1: float
    d2: float

    def __init__(self, d1: float, d2: float) -> None:
        if type(d1) is type(d2) is float and 0.0 < d1 < _INF and 0.0 < d2 < _INF:
            _set_d1(self, d1)
            _set_d2(self, d2)
        else:
            _require_fields(self, (d1, d2), 0.0, "> 0")

    def as_tuple(self) -> tuple[float, float]:
        return (self.d1, self.d2)


_set_d1, _set_d2 = CompletionTimePair._setters


@_record
class HalfPlane(_Value):
    """Linear constraint a*x + b*y >= c."""

    a: float
    b: float
    c: float

    def __init__(self, a: float, b: float, c: float) -> None:
        if (type(a) is type(b) is type(c) is float
                and -_INF < a < _INF and -_INF < b < _INF and -_INF < c < _INF):
            _set_a(self, a)
            _set_b(self, b)
            _set_c(self, c)
        else:
            _require_fields(self, (a, b, c), -_INF)
        if self.a == 0.0 and self.b == 0.0:
            raise ValueError("half-plane normal (a, b) must be nonzero")

    def slack(self, x: float, y: float) -> float:
        """Signed slack at (x, y); nonnegative inside the half-plane."""
        return self.a * x + self.b * y - self.c


_set_a, _set_b, _set_c = HalfPlane._setters


@_record
class ConvexPiece(_Value):
    """Intersection of half-planes with an annotated list of corner vertices.

    The half-planes are the authoritative description; vertices are labels
    for plotting and reporting and may omit corners at infinity.
    """

    halfplanes: tuple[HalfPlane, ...]
    vertices: tuple[tuple[str, tuple[float, float]], ...] = ()

    def __init__(self, halfplanes: tuple[HalfPlane, ...],
                 vertices: tuple[tuple[str, tuple[float, float]], ...] = ()) -> None:
        self.__setstate__((halfplanes, vertices))
