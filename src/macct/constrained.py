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

The direct inequalities are the membership test of this rate-space view;
the clamp transform is kept for cross-validation.  `ctregion` tests each
inequality times its rate's block length, with no c and no division.
"""

from __future__ import annotations

from dataclasses import dataclass

from .capacity import Gammas, _gammas, gamma
from .types import EPS_MEM, ChannelConfig, InfeasibleError, RatePair, _require_finite

# Constraint names used in slack reports and infeasibility errors.
SINGLE_USER_1 = "single_user_1"
SINGLE_USER_2 = "single_user_2"
SUM_RATE = "sum_rate"
_NAMES = (SINGLE_USER_1, SINGLE_USER_2, SUM_RATE)  # the order of `_membership_slacks`

_C_MIN = 1e-12
_C_MAX = 1e12


@dataclass(frozen=True, slots=True)
class ConstrainedRateQuery:
    """A constrained rate pair together with the block-length ratio c = n1/n2."""

    rates: RatePair
    c: float

    def __post_init__(self) -> None:
        c = _require_finite("c", self.c)
        if c <= 0.0:
            raise ValueError(f"c must be a positive finite ratio, got {c!r}")
        if not _C_MIN <= c <= _C_MAX:
            raise ValueError(f"c={c} is outside the well-conditioned range [{_C_MIN}, {_C_MAX}]")
        object.__setattr__(self, "c", c)


@dataclass(frozen=True, slots=True)
class RateDecomposition:
    """Split of the late finisher's rate into a shared-phase and a solo-phase part.

    With solo_user = 2 (c < 1):  R2 = c*shared + (1-c)*solo, and
    (R1, shared) lies in the standard pentagon while solo <= gamma(P2), both
    within tol.  Mirrored with weights 1/c for solo_user = 1 (c > 1).
    """

    shared_phase_rate: float
    solo_phase_rate: float
    solo_user: int


def constrained_slacks(cfg: ChannelConfig, q: ConstrainedRateQuery) -> dict[str, float]:
    """Signed slacks of the three region inequalities (nonnegative = satisfied)."""
    return dict(zip(_NAMES, _membership_slacks(_gammas(cfg), q.rates.r1, q.rates.r2, q.c)))


def _membership_slacks(g: Gammas, r1: float, r2: float, c: float) -> tuple[float, float, float]:
    """Slacks of the single-user 1, single-user 2 and sum-rate inequalities.

    g is the channel's `_gammas`; the rates and c are floats (numpy scalars pass).
    """
    g1, g2, g12, _, _ = g
    if c >= 1.0:  # user 1 finishes last
        sum_slack = (c - 1.0) * g1 + g12 - (c * r1 + r2)
    else:  # user 2 finishes last
        sum_slack = (1.0 / c - 1.0) * g2 + g12 - (r1 + r2 / c)
    return g1 - r1, g2 - r2, sum_slack


def _violations(slacks: tuple, tol: float) -> str:
    """`"<name> violated by <amount>"` for each slack below -tol, comma-separated."""
    s1, s2, s3 = slacks
    if not (s1 < -tol or s2 < -tol or s3 < -tol):  # the common case: nothing to report
        return ""
    return ", ".join(
        f"{name} violated by {-s:.3g}"
        for name, s in zip(_NAMES, slacks)
        if s < -tol
    )


def _infeasible(r1: float, r2: float, c: float, violated: str) -> InfeasibleError:
    """The error for rate pair (r1, r2) at ratio c; `violated` names each failed constraint."""
    return InfeasibleError(f"rate pair ({r1:.6g}, {r2:.6g}) at c={c:.6g} is infeasible: {violated}")


def _require_member(g: Gammas, r1: float, r2: float, c: float, tol: float) -> None:
    """Raise the `_infeasible` error when rate pair (r1, r2) at ratio c violates a constraint."""
    violated = _violations(_membership_slacks(g, r1, r2, c), tol)
    if violated:
        raise _infeasible(r1, r2, c, violated)


def constrained_contains(cfg: ChannelConfig, q: ConstrainedRateQuery, tol: float = EPS_MEM) -> bool:
    """Membership in the c-constrained region via the direct inequalities."""
    slacks = _membership_slacks(_gammas(cfg), q.rates.r1, q.rates.r2, q.c)
    return all(s >= -tol for s in slacks)


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
    if c < 1.0:
        g2 = gamma(cfg.p2)
        return RatePair(r1, max(0.0, r2 / c - (1.0 / c - 1.0) * g2))
    g1 = gamma(cfg.p1)
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
    above capacity (admitted by tol) is kept in both phases.

    Raises InfeasibleError (naming the violated constraint) when the query
    is outside the c-constrained region.
    """
    g, r1, r2, c = _gammas(cfg), q.rates.r1, q.rates.r2, q.c
    _require_member(g, r1, r2, c, tol)
    # In units of user 2's codeword length, user 1's codeword ends at c.
    if c <= 1.0:  # user 2 finishes last, or both together
        return RateDecomposition(*_split(r2, c, 1.0, g[1]), 2)
    return RateDecomposition(*_split(c * r1, 1.0, c, g[0]), 1)


def _split(bits: float, early: float, late: float, g_late: float) -> tuple[float, float]:
    """The late finisher's rates (shared, solo) over [0, early] and [early, late] for `bits`.

    The solo phase runs as fast as it may, at most g_late: when it alone carries the bits the
    shared rate is 0.0; without one the solo rate is 0.0.  Bits beyond g_late*late (admitted by
    tol) go at bits/late in both phases, not into the shared phase (there they scale by late/early).
    """
    solo_time = late - early
    if solo_time == 0.0:
        return bits / early, 0.0
    if g_late * late < bits:
        return bits / late, bits / late
    solo = bits / solo_time
    if solo <= g_late:
        return 0.0, solo
    return max(0.0, g_late - (g_late * late - bits) / early), g_late
