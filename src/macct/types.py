"""Core value types shared by every module.

All types are immutable; invalid field values are rejected at construction
so that downstream numeric code never has to re-check for NaN, infinities
or sign errors.
"""

from __future__ import annotations

import contextlib
import math
import operator
from dataclasses import dataclass, fields

_INF = math.inf  # a global name, read faster than math.inf in every field check

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


def _scaled(top: float, *values: float) -> tuple[float, ...]:
    """values over the power of two that puts top in [0.5, 1), exact while each stays normal."""
    e = math.frexp(top)[1]
    return tuple(math.ldexp(v, -e) for v in values)


def _require_fields(
    obj, names: tuple[str, ...], values: tuple, floor: float, rule: str = ""
) -> None:
    """Store each value in frozen obj's named field as a finite float above floor (`rule`)."""
    for name, value in zip(names, values):
        value = _require_finite(name, value)  # stored as an exact float
        if not value > floor:
            raise ValueError(f"{name} must be {rule}, got {value}")
        object.__setattr__(obj, name, value)


def _slot_setters(cls) -> tuple:
    """Each field's slot `__set__`, in field order: it stores a value past the frozen guard.

    A hand-written `__init__` of a frozen, slotted dataclass stores each field with one call,
    where the generated one looks up `object.__setattr__` and then calls `__post_init__`.
    """
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


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


@dataclass(frozen=True, slots=True)
class ChannelConfig:
    """Two-user Gaussian multi-access channel, receive powers in linear SNR."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        p1, p2 = self.p1, self.p2
        if not (type(p1) is type(p2) is float and 0.0 < p1 < _INF and 0.0 < p2 < _INF):
            _require_fields(self, ("p1", "p2"), (p1, p2), 0.0, "> 0 (zero power never completes)")


@dataclass(frozen=True, slots=True, init=False)
class RatePair:
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
            _require_fields(self, ("r1", "r2"), (r1, r2), -5e-324, ">= 0")

    def as_tuple(self) -> tuple[float, float]:
        return (self.r1, self.r2)


_set_r1, _set_r2 = _slot_setters(RatePair)


@dataclass(frozen=True, slots=True)
class TrafficLoad:
    """Per-user bit load, bits per source unit."""

    tau1: float
    tau2: float

    def __post_init__(self) -> None:
        tau1, tau2 = self.tau1, self.tau2
        if not (type(tau1) is type(tau2) is float and 0.0 < tau1 < _INF and 0.0 < tau2 < _INF):
            _require_fields(self, ("tau1", "tau2"), (tau1, tau2), 0.0, "> 0")


@dataclass(frozen=True, slots=True, init=False)
class CompletionTimePair:
    """A point in completion-time space, channel uses per source unit."""

    d1: float
    d2: float

    def __init__(self, d1: float, d2: float) -> None:
        if type(d1) is type(d2) is float and 0.0 < d1 < _INF and 0.0 < d2 < _INF:
            _set_d1(self, d1)
            _set_d2(self, d2)
        else:
            _require_fields(self, ("d1", "d2"), (d1, d2), 0.0, "> 0")

    def as_tuple(self) -> tuple[float, float]:
        return (self.d1, self.d2)


_set_d1, _set_d2 = _slot_setters(CompletionTimePair)


@dataclass(frozen=True, slots=True, init=False)
class HalfPlane:
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
            _require_fields(self, ("a", "b", "c"), (a, b, c), -_INF)
        if self.a == 0.0 and self.b == 0.0:
            raise ValueError("half-plane normal (a, b) must be nonzero")

    def slack(self, x: float, y: float) -> float:
        """Signed slack at (x, y); nonnegative inside the half-plane."""
        return self.a * x + self.b * y - self.c


_set_a, _set_b, _set_c = _slot_setters(HalfPlane)


@dataclass(frozen=True, slots=True)
class ConvexPiece:
    """Intersection of half-planes with an annotated list of corner vertices.

    The half-planes are the authoritative description; vertices are labels
    for plotting and reporting and may omit corners at infinity.
    """

    halfplanes: tuple[HalfPlane, ...]
    vertices: tuple[tuple[str, tuple[float, float]], ...] = ()
