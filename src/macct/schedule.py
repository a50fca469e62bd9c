"""Constructive side of the region: transmission schedules.

A schedule realizes a completion-time pair as an ordered list of phases.
Feasible pairs need at most two: a shared phase of length min(d1, d2) in
which both users transmit a pentagon-feasible rate pair, then a solo
phase in which the late finisher ships its remaining bits alone, by
convention at the largest admissible rate.  Schedules for pairs on the
same side of d1 = d2 can be spliced by convex combination, which is how
each piece of the region is shown to be convex in the first place.

Durations are normalized (channel uses per source unit), matching the
asymptotic regime in which completion times are defined; no integer block
lengths appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .capacity import _gammas
from .constrained import _member, _require_member, _split, _violations
from .types import (
    EPS_MEM,
    ChannelConfig,
    CompletionTimePair,
    RatePair,
    TrafficLoad,
    _require_finite,
    _require_tol,
    _require_unit_interval,
    _slot_setters,
    _user_index,
)

# `validate`'s tolerance on each user's delivered bits and last end time, relative to its load and
# its completion time, so a schedule and its load scaled by the same power of two pass alike.
_BIT_TOL = 1e-9
_BOTH = frozenset((1, 2))  # the user sets of a shared phase and of each solo phase
_SOLO = (frozenset((1,)), frozenset((2,)))


@dataclass(frozen=True, slots=True, init=False)
class Phase:
    """One constant-rate interval; inactive users are silent (rate exactly 0)."""

    duration: float
    rates: RatePair
    active_users: frozenset[int]

    def __init__(self, duration: float, rates: RatePair, active_users: frozenset[int]) -> None:
        if type(duration) is not float or not 0.0 <= duration < math.inf:  # in range: pass
            duration = _require_finite("duration", duration)
            if duration < 0.0:
                raise ValueError(f"phase duration must be >= 0, got {duration}")
        users = active_users
        if users is not _BOTH and users is not _SOLO[0] and users is not _SOLO[1]:
            users = _user_set(users)  # an equal set may still hold True or 1.0
        if not isinstance(rates, RatePair):
            raise ValueError(f"rates must be a RatePair, got {rates!r}")
        r1, r2 = rates.r1, rates.r2
        if r1 != 0.0 and 1 not in users or r2 != 0.0 and 2 not in users:
            user = 1 if r1 != 0.0 and 1 not in users else 2
            raise ValueError(f"inactive user {user} must have rate 0")
        _set_duration(self, duration)
        _set_rates(self, rates)
        _set_users(self, users)


_set_duration, _set_rates, _set_users = _slot_setters(Phase)


def _user_set(users) -> frozenset[int]:
    """users as a frozenset of the ints 1 and 2; one that already is, is returned as it is."""
    if type(users) is frozenset and users <= _BOTH:
        for user in users:
            if type(user) is not int:  # a bool, a float or a numpy int equal to 1 or 2
                break
        else:
            return users
    try:
        users = frozenset(users)
    except TypeError:
        raise ValueError(f"active_users must be a set of users, got {users!r}") from None
    if not users <= _BOTH:
        raise ValueError("active_users must be a subset of {1, 2}")
    return frozenset(_user_index("active user", user) for user in users)


@dataclass(frozen=True, slots=True, init=False)
class Schedule:
    """Phases run in order from time zero; `achieved` is the pair of completion times they reach."""

    phases: tuple[Phase, ...]
    achieved: CompletionTimePair

    def __init__(self, phases: tuple[Phase, ...], achieved: CompletionTimePair) -> None:
        for phase in phases if isinstance(phases, tuple) else (None,):  # not a tuple: refused
            if not isinstance(phase, Phase):
                raise ValueError(f"phases must be a tuple of Phase, got {phases!r}")
        if not isinstance(achieved, CompletionTimePair):
            raise ValueError(f"achieved must be a CompletionTimePair, got {achieved!r}")
        _set_phases(self, phases)
        _set_achieved(self, achieved)

    def bits_delivered(self, user: int) -> float:
        k = _user_index("user", user) - 1
        bits = 0.0  # a running sum, as `validate` adds; `sum()` compensates from Python 3.12
        for p in self.phases:
            bits += p.duration * p.rates.as_tuple()[k]
        return bits


_set_phases, _set_achieved = _slot_setters(Schedule)


@dataclass(frozen=True, slots=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


_VALID = ValidationReport(True, ())  # the one report of every schedule that passes


def synthesize(
    cfg: ChannelConfig, load: TrafficLoad, d: CompletionTimePair, tol: float = EPS_MEM
) -> Schedule:
    """Build the two-phase schedule achieving a feasible pair d.

    The early finisher runs at tau/d over the shared phase, its only one.
    Both phases are kept however short; the solo phase is left out only
    when d1 == d2.  The late finisher's bits are split so the
    solo phase runs as fast as possible (its shared-phase rate is exactly
    0.0 when the solo phase alone suffices; one that meets its solo floor
    only within tol runs at tau/d throughout).  Raises InfeasibleError,
    naming each violated constraint, for d outside the region.
    """
    _require_tol(tol)
    g, (tau1, tau2), (d1, d2) = _gammas(cfg), (load.tau1, load.tau2), (d.d1, d.d2)
    _require_member(g, tau1, tau2, d1, d2, tol)
    shared_rate, solo_rate, late_user = _split(g, tau1, tau2, d1, d2)
    if late_user == 1:  # user 1 finishes last
        early, late, shared, solo = d2, d1, (shared_rate, tau2 / d2), (solo_rate, 0.0)
    else:  # user 2 finishes last, or both at d1 == d2 with an empty solo phase
        early, late, shared, solo = d1, d2, (tau1 / d1, shared_rate), (0.0, solo_rate)
    phases = [Phase(early, RatePair(*shared), _BOTH)]
    if late > early:
        phases.append(Phase(late - early, RatePair(*solo), _SOLO[late_user - 1]))
    return Schedule(tuple(phases), achieved=d)


def compose(s: Schedule, s_prime: Schedule, alpha: float) -> Schedule:
    """Convex combination of two schedules on the same side of d1 = d2.

    Shared phases of both inputs are spliced first, then the solo phases,
    with all durations scaled by alpha and 1 - alpha; every user's active
    window stays contiguous from time zero.  A phase is kept however short
    (a shared phase may be the early finisher's only one) and dropped only
    when its scaled duration is 0, as at alpha = 0 or 1.  Schedules from
    opposite sides are rejected: their phase boundaries cannot be aligned,
    so the spliced decoding windows would no longer be valid.
    """
    _require_unit_interval("alpha", alpha)
    da, db = s.achieved, s_prime.achieved
    if (da.d1 - da.d2) * (db.d1 - db.d2) < 0.0:
        raise ValueError(
            "cannot compose schedules from opposite sides of d1 = d2: "
            f"({da.d1:.6g}, {da.d2:.6g}) vs ({db.d1:.6g}, {db.d2:.6g})"
        )
    scaled = [
        (p, p.duration * alpha) for p in s.phases
    ] + [(p, p.duration * (1.0 - alpha)) for p in s_prime.phases]
    shared = [(p, t) for p, t in scaled if p.active_users == _BOTH]
    solo = [(p, t) for p, t in scaled if p.active_users != _BOTH]
    phases = tuple(Phase(t, p.rates, p.active_users) for p, t in shared + solo if t > 0.0)
    achieved = CompletionTimePair(
        alpha * da.d1 + (1.0 - alpha) * db.d1,
        alpha * da.d2 + (1.0 - alpha) * db.d2,
    )
    return Schedule(phases, achieved)


def validate(
    cfg: ChannelConfig, load: TrafficLoad, s: Schedule, tol: float = EPS_MEM
) -> ValidationReport:
    """Check every schedule invariant; violations are reported, not raised."""
    _require_tol(tol)
    violations: list[str] = []
    g = _gammas(cfg)
    # One pass over the phases tests their rates and gathers, per user: the bits
    # delivered, added as `bits_delivered` adds them; the count of active phases
    # while they form an initial run, else -1; and the end of the last phase in
    # which the user's rate is nonzero.
    bits1 = bits2 = 0.0
    run1 = run2 = 0
    last1 = last2 = None
    end = 0.0
    for k, phase in enumerate(s.phases):
        users = phase.active_users
        if not users:
            violations.append(f"phase {k}: no active users")
        # The pentagon is the c = 1 region; a silent user's rate is exactly 0.
        r1, r2 = phase.rates.r1, phase.rates.r2
        violated = _violations(g, r1, r2, 1.0, 1.0, tol)
        if violated:
            violations.append(f"phase {k}: rates ({r1:.6g}, {r2:.6g}) outside the capacity "
                              f"pentagon: {violated}")
        t = phase.duration
        end += t
        bits1 += t * r1
        bits2 += t * r2
        if 1 in users:
            run1 = run1 + 1 if run1 == k else -1
        if 2 in users:
            run2 = run2 + 1 if run2 == k else -1
        if r1 > 0.0:
            last1 = end
        if r2 > 0.0:
            last2 = end

    for user, delivered, tau in ((1, bits1, load.tau1), (2, bits2, load.tau2)):
        if abs(delivered - tau) > _BIT_TOL * tau:
            violations.append(f"user {user}: delivers {delivered:.12g} bits, load is {tau:.12g}")
    for user, run, last, deadline in ((1, run1, last1, s.achieved.d1),
                                      (2, run2, last2, s.achieved.d2)):
        if run < 0:
            violations.append(f"user {user}: active phases are not an initial run")
        if last is None:
            violations.append(f"user {user}: never transmits")
        elif abs(last - deadline) > _BIT_TOL * deadline:
            violations.append(
                f"user {user}: last nonzero-rate phase ends at "
                f"{last:.12g}, completion time is {deadline:.12g}"
            )

    if not _member(g, load.tau1, load.tau2, s.achieved.d1, s.achieved.d2, tol):
        violations.append(
            f"achieved pair ({s.achieved.d1:.6g}, {s.achieved.d2:.6g}) is not in the region"
        )
    return ValidationReport(False, tuple(violations)) if violations else _VALID
