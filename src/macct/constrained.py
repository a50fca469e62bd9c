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

The direct inequalities are the canonical membership test here (no
division by small c); the clamp transform is kept for cross-validation.
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
        object.__setattr__(self, "c", _check_ratio(self.c))


def _check_ratio(c: float) -> float:
    """c as a float inside the well-conditioned range [_C_MIN, _C_MAX]."""
    c = _require_finite("c", c)
    if c <= 0.0:
        raise ValueError(f"c must be a positive finite ratio, got {c!r}")
    if not _C_MIN <= c <= _C_MAX:
        raise ValueError(f"c={c} is outside the well-conditioned range [{_C_MIN}, {_C_MAX}]")
    return c


@dataclass(frozen=True, slots=True)
class RateDecomposition:
    """Split of the late finisher's rate into a shared-phase and a solo-phase part.

    With solo_user = 2 (c < 1):  R2 = c*shared + (1-c)*solo, and
    (R1, shared) lies in the standard pentagon while solo <= gamma(P2).
    Mirrored with weights 1/c for solo_user = 1 (c > 1).
    """

    shared_phase_rate: float
    solo_phase_rate: float
    solo_user: int


def constrained_slacks(cfg: ChannelConfig, q: ConstrainedRateQuery) -> dict[str, float]:
    """Signed slacks of the three region inequalities (nonnegative = satisfied)."""
    return dict(zip(_NAMES, _membership_slacks(_gammas(cfg), q.rates.r1, q.rates.r2, q.c)))


def _membership_slacks(g: Gammas, r1, r2, c) -> tuple:
    """Slacks of the single-user 1, single-user 2 and sum-rate inequalities.

    g is the `_gammas` triple.  The rates and c are floats, or broadcastable
    ndarrays evaluated elementwise.  Only the array branch loads numpy, so
    the scalar callers never pay its import.
    """
    g1, g2, g12 = g
    late_1 = (c - 1.0) * g1 + g12 - (c * r1 + r2)        # c >= 1: user 1 finishes last
    late_2 = (1.0 / c - 1.0) * g2 + g12 - (r1 + r2 / c)  # c < 1: user 2 finishes last
    if isinstance(c, float):  # np.float64 subclasses float and lands here too
        sum_slack = late_1 if c >= 1.0 else late_2
    else:
        import numpy as np

        sum_slack = np.where(c >= 1.0, late_1, late_2)
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
    the channel of multi-user interference as early as possible and makes
    the shared-phase pair sit exactly on the clamp-transform image.

    Raises InfeasibleError (naming the violated constraint) when the query
    is outside the c-constrained region.
    """
    return RateDecomposition(*_decompose(_gammas(cfg), q.rates.r1, q.rates.r2, q.c, tol))


def _decompose(g: Gammas, r1: float, r2: float, c: float, tol: float) -> tuple[float, float, int]:
    """`decompose_rate` on floats: (shared_phase_rate, solo_phase_rate, solo_user)."""
    violated = _violations(_membership_slacks(g, r1, r2, c), tol)
    if violated:
        raise _infeasible(r1, r2, c, violated)
    if c == 1.0:
        return r2, 0.0, 2  # both users finish together; the solo phase has zero length
    if c < 1.0:
        solo = min(g[1], r2 / (1.0 - c))
        return max(0.0, (r2 - (1.0 - c) * solo) / c), solo, 2
    solo = min(g[0], r1 / (1.0 - 1.0 / c))
    return max(0.0, c * r1 - (c - 1.0) * solo), solo, 1
