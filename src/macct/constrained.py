"""Capacity region for users whose codewords span different block lengths.

With codeword lengths n1, n2 and c = n1/n2, each user's constrained rate
R_i is defined over its own n_i channel uses; the early finisher falls
silent (sends 0) while the other keeps transmitting alone.  The closed
form of the c-constrained region for the Gaussian channel is

    R1 <= gamma(P1),  R2 <= gamma(P2),
    max(1,c)*R1 + max(1,1/c)*R2
        <= (c-1)*gamma(P1)*[c>=1] + (1/c-1)*gamma(P2)*[c<1] + gamma(P1+P2),

which at c = 1 is exactly the standard pentagon.  An equivalent test maps
the query back into the standard pentagon by compressing the late
finisher's rate onto the shared interval and clamping at zero:

    c < 1:  (R1, [R2/c - (1/c-1)*gamma(P2)]+)  in pentagon
    c > 1:  ([c*R1 - (c-1)*gamma(P1)]+, R2)    in pentagon

The clamp transform is kept for cross-validation.  A query (R1, R2, c) is the
time pair (c, 1) carrying the bits (c*R1, R2).  Each inequality times its rate's
block length is linear in the times, with no c and no division: `_sides` states
them so, once, for this rate view, `ctregion` and `schedule` (a pentagon check
reads it at c = 1).
"""

from __future__ import annotations

from .capacity import Gammas, _gammas
from .types import (EPS_MEM, ChannelConfig, InfeasibleError, RatePair, _require_finite,
                    _record, _require_tol, _shifted, _Value)

# Constraint names used in slack reports and infeasibility errors.
SINGLE_USER_1 = "single_user_1"
SINGLE_USER_2 = "single_user_2"
SUM_RATE = "sum_rate"
_NAMES = (SINGLE_USER_1, SINGLE_USER_2, SUM_RATE)  # the order of `_tests` and `_slacks`

_C_MIN = 1e-12
_C_MAX = 1e12


@_record
class ConstrainedRateQuery(_Value):
    """A constrained rate pair together with the block-length ratio c = n1/n2."""

    rates: RatePair
    c: float

    def __init__(self, rates: RatePair, c: float) -> None:
        c = _require_finite("c", c)
        if c <= 0.0:
            raise ValueError(f"c must be a positive finite ratio, got {c!r}")
        if not _C_MIN <= c <= _C_MAX:
            raise ValueError(f"c={c} is outside the well-conditioned range [{_C_MIN}, {_C_MAX}]")
        if not isinstance(rates, RatePair):
            raise ValueError(f"rates must be a RatePair, got {rates!r}")
        self.__setstate__((rates, c))


@_record
class RateDecomposition(_Value):
    """Split of the late finisher's rate into a shared-phase and a solo-phase part.

    With solo_user = 2 (c < 1):  R2 = c*shared + (1-c)*solo, and
    (R1, shared) lies in the standard pentagon while solo <= gamma(P2), both
    within tol.  Mirrored with weights 1/c for solo_user = 1 (c > 1).
    """

    shared_phase_rate: float
    solo_phase_rate: float
    solo_user: int


def constrained_slacks(cfg: ChannelConfig, q: ConstrainedRateQuery) -> dict[str, float]:
    """Slacks (nonnegative = satisfied): `ct_slacks` of bits (c*r1, r2) over times (c, 1)."""
    c = q.c
    return dict(zip(_NAMES, _slacks(_gammas(cfg), c * q.rates.r1, q.rates.r2, c, 1.0)))


def constrained_contains(cfg: ChannelConfig, q: ConstrainedRateQuery, tol: float = EPS_MEM) -> bool:
    """Membership in the c-constrained region: `ct_contains` of bits (c*r1, r2) at times (c, 1)."""
    _require_tol(tol)
    c = q.c
    return bool(_member(_gammas(cfg), c * q.rates.r1, q.rates.r2, c, 1.0, tol))


def _sides(g: Gammas, tau1: float, tau2: float, d1, d2, tol: float) -> tuple:
    """(left, right) of user 1's and 2's solo floors and of D1's and D2's sum faces, flat, each
    met as left >= right: each rate inequality of (tau1/d1, tau2/d2) at c = d1/d2 times its rate's
    block length, so tol on a rate is tol times its time.  A sum face reads: the late finisher's
    spare bits cover the early one's lack (nearly equal terms).  Arrays give arrays."""
    g1, g2, _, s1, s2 = g
    return ((g1 + tol) * d1, tau1, (g2 + tol) * d2, tau2,
            g2 * d2 - tau2, tau1 - (s1 + tol) * d1,
            g1 * d1 - tau1, tau2 - (s2 + tol) * d2)


def _tests(g: Gammas, tau1: float, tau2: float, d1, d2, tol: float) -> tuple:
    """The solo floors and the first finisher's sum face (D1's on d1 <= d2, D2's on d1 >= d2)."""
    l1, r1, l2, r2, l3, r3, l4, r4 = _sides(g, tau1, tau2, d1, d2, tol)
    return l1 >= r1, l2 >= r2, (d1 <= d2) & (l3 >= r3) | (d1 >= d2) & (l4 >= r4)


def _sides_shifted(g: Gammas, tau1: float, tau2: float, d1: float, d2: float) -> tuple:
    """(tau1, tau2, d1, d2) `_shifted` for `_sides`: a side multiplies a time by a level of at
    least min(s1, s2), and a side or a difference of two is below (g12 + 1) times the sum of the
    four (tol < 1, s_i <= g_i <= g12).  Verdicts and slacks read shifted are the same."""
    return _shifted((tau1, tau2, d1, d2), d1 if d1 < d2 else d2, g[3] if g[3] < g[4] else g[4],
                    tau1 + tau2 + d1 + d2, g[2] + 1.0)[1]


def _member(g: Gammas, tau1: float, tau2: float, d1: float, d2: float, tol: float) -> bool:
    """Membership of the float pair (d1, d2), read shifted (`_sides_shifted`).  Arrays
    (`ct_contains_grid`) read `_tests` unshifted."""
    tau1, tau2, d1, d2 = _sides_shifted(g, tau1, tau2, d1, d2)
    solo_1, solo_2, sum_face = _tests(g, tau1, tau2, d1, d2, tol)
    return solo_1 & solo_2 & sum_face


def _slacks(g: Gammas, tau1: float, tau2: float, d1: float, d2: float) -> tuple:
    """The three tests at tol 0 as rates, left minus right over the rate's block length: d_i for
    user i's solo floor, min(d1, d2) for the first finisher's sum face (at d1 == d2, where either
    face admits the pair, the larger).  Read shifted (`_sides_shifted`), the divisors too.  A
    rate beyond the float range gives -inf or inf."""
    tau1, tau2, d1, d2 = _sides_shifted(g, tau1, tau2, d1, d2)
    l1, r1, l2, r2, l3, r3, l4, r4 = _sides(g, tau1, tau2, d1, d2, 0.0)
    sum_1, sum_2 = (l3 - r3) / d1, (l4 - r4) / d2
    return ((l1 - r1) / d1, (l2 - r2) / d2,
            sum_1 if d1 < d2 else sum_2 if d1 > d2 else max(sum_1, sum_2))


def _violations(g: Gammas, tau1: float, tau2: float, d1: float, d2: float, tol: float) -> str:
    """`"<name> violated by <amount>"` for each failed test, comma-separated, with the rate it
    lacks (its `_slacks` slack) as the amount; "" when the pair is a member.  Its callers pass
    values that need no shift: a phase's rates over (1, 1), or the pair `_split` shifted."""
    tests = _tests(g, tau1, tau2, d1, d2, tol)
    if tests[0] and tests[1] and tests[2]:  # the common case: nothing to report
        return ""
    slacks = zip(tests, _NAMES, _slacks(g, tau1, tau2, d1, d2))
    return ", ".join(f"{name} violated by {-s:.3g}" for ok, name, s in slacks if not ok)


def _require_member(g: Gammas, tau1: float, tau2: float, d1: float, d2: float, tol: float) -> None:
    """Raise InfeasibleError, with the `_violations`, when (d1, d2) is outside the region.  Its
    callers pass values that need no shift (the rates and c in the message are the same)."""
    violated = _violations(g, tau1, tau2, d1, d2, tol)
    if violated:
        raise InfeasibleError(f"rate pair ({tau1 / d1:.6g}, {tau2 / d2:.6g}) at c={d1 / d2:.6g} "
                              f"is infeasible: {violated}")


def clamp_transform(cfg: ChannelConfig, q: ConstrainedRateQuery) -> RatePair:
    """Equivalent standard-pentagon test point for a constrained query.

    Identity at c = 1.  The clamp at zero makes the transform
    non-invertible when active, so this is a membership tool, not a
    bijection.
    """
    c = q.c
    r1, r2 = q.rates.r1, q.rates.r2
    if c == 1.0:
        return q.rates
    g1, g2 = _gammas(cfg)[:2]
    if c < 1.0:
        return RatePair(r1, max(0.0, r2 / c - (1.0 / c - 1.0) * g2))
    return RatePair(max(0.0, c * r1 - (c - 1.0) * g1), r2)


def decompose_rate(
    cfg: ChannelConfig, q: ConstrainedRateQuery, tol: float = EPS_MEM
) -> RateDecomposition:
    """Split the late finisher's rate between the shared and solo phases.

    The solo-phase rate is maximal: min(point-to-point capacity, the rate
    that ships every bit in the solo phase alone).  That convention frees
    the channel of multi-user interference as early as possible and puts
    the shared-phase pair on the clamp-transform image; when the solo phase
    alone ships every bit, the shared-phase rate is exactly 0.0.  A late rate
    above capacity (admitted by tol) is kept in both phases.  This is
    `synthesize`'s split of the bits (c*r1, r2) over the times (c, 1).

    Raises InfeasibleError (naming the violated constraint) when the query
    is outside the c-constrained region.
    """
    _require_tol(tol)
    c = q.c
    return RateDecomposition(*_split(_gammas(cfg), c * q.rates.r1, q.rates.r2, c, 1.0, tol))


def _split(g: Gammas, tau1: float, tau2: float, d1: float, d2: float,
           tol: float) -> tuple[float, float, int]:
    """(shared, solo, late user): the late finisher's rates over [0, early] and [early, late];
    user 2 at d1 == d2, with no solo phase (solo rate 0.0).  The solo phase runs as fast as it
    may, at most g_late: when it alone carries the bits the shared rate is 0.0.  Bits beyond
    g_late*late (admitted by tol) go at bits/late in both phases, not into the shared phase
    (there they scale by late/early).  A pair outside the region raises `_require_member`'s
    InfeasibleError.  Read shifted once (`_sides_shifted`), for the refusal and the split: the
    rates are the same."""
    tau1, tau2, d1, d2 = _sides_shifted(g, tau1, tau2, d1, d2)
    _require_member(g, tau1, tau2, d1, d2, tol)
    if d1 > d2:
        user, bits, early, late, g_late = 1, tau1, d2, d1, g[0]
    else:
        user, bits, early, late, g_late = 2, tau2, d1, d2, g[1]
    solo_time = late - early
    if solo_time == 0.0:
        return bits / early, 0.0, user
    if g_late * late < bits:
        return bits / late, bits / late, user
    solo = bits / solo_time
    if solo <= g_late:
        return 0.0, solo, user
    return max(0.0, g_late - (g_late * late - bits) / early), g_late, user
