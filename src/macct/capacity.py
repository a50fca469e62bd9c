"""Gaussian channel primitives and the standard two-user capacity pentagon.

The unit-noise Gaussian channel Y = X1 + X2 + Z with per-symbol power
limits P1, P2 has point-to-point capacity gamma(P) = 0.5*log2(1 + P) and a
pentagonal two-user capacity region

    r1 >= 0, r2 >= 0,
    r1 <= gamma(P1), r2 <= gamma(P2),
    r1 + r2 <= gamma(P1 + P2).

The two corner points of the pentagon, where the sum-rate face meets a
single-user face, are called A and B throughout:

    A = (gamma(P1+P2) - gamma(P2), gamma(P2))     # user 2 at full rate
    B = (gamma(P1), gamma(P1+P2) - gamma(P1))     # user 1 at full rate

Each difference is computed as the successive-decoding rate it equals, since
subtracting the nearly equal logs cancels: gamma(P1/(1+P2)) and gamma(P2/(1+P1)).
So is the gap between a corner's two rates for one user,

    gamma(P1) - gamma(P1/(1+P2)) = gamma(P2) - gamma(P2/(1+P1))
                                 = gamma(P1*P2/(1+P1+P2)).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .types import (
    EPS_MEM,
    ChannelConfig,
    ConvexPiece,
    HalfPlane,
    RatePair,
    _require_finite,
    _require_tol,
)

# (g1, g2, g12, s1, s2) = (gamma(P1), gamma(P2), gamma(P1+P2), gamma(P1/(1+P2)),
# gamma(P2/(1+P1))): the pentagon's three face levels and its corners' successive-decoding rates.
Gammas = tuple[float, float, float, float, float]

_LN4 = 2.0 * math.log(2.0)  # ln 4, exactly twice the float ln 2


def gamma(x: float) -> float:
    """Gaussian capacity 0.5*log2(1+x) of a unit-noise link at SNR x.

    Strictly increasing and concave on [0, inf).  x is a real number, as
    for the value types: a bool, a string or `None` is refused.
    """
    if type(x) is not float or not 0.0 <= x < math.inf:  # exact floats in range pass
        x = float(x) if isinstance(x, float) else _require_finite("x", x)
        if not 0.0 <= x < math.inf:
            raise ValueError(f"gamma is defined for finite x >= 0, got {x!r}")
    # log1p keeps full precision near 0, where 1 + x would round to 1.  Dividing once by ln 4
    # rounds once: gamma(5e-324) is 5e-324, where halving first would round to 0.
    return math.log1p(x) / _LN4


def _gammas(cfg: ChannelConfig) -> Gammas:
    """The channel's `Gammas`, the one caller of `gamma`; s1 and s2 skip its checks (in range)."""
    p1, p2 = cfg.p1, cfg.p2
    return (gamma(p1), gamma(p2), gamma(p1 + p2),
            math.log1p(p1 / (1.0 + p2)) / _LN4, math.log1p(p2 / (1.0 + p1)) / _LN4)


def _corner_gammas(cfg: ChannelConfig) -> tuple[float, ...]:
    """The `Gammas` and, sixth, the corner gap g1 - s1 = g2 - s2 = gamma(P1*P2/(1+P1+P2)), which
    the corner images read where the difference of the floats cancels.  Its argument is
    lo/(1 + (1 + lo)/hi) over the smaller and larger power: no product of the powers, and a
    quotient that overflows only where the argument underflows."""
    p1, p2 = cfg.p1, cfg.p2
    lo, hi = (p1, p2) if p1 <= p2 else (p2, p1)
    return (*_gammas(cfg), math.log1p(lo / (1.0 + (1.0 + lo) / hi)) / _LN4)


def _corners(g: Gammas) -> tuple[tuple[float, float], tuple[float, float]]:
    """Corner points A = (s1, g2) and B = (g1, s2), as plain pairs, from the `_gammas`."""
    return (g[3], g[1]), (g[0], g[4])  # read by index: `_corner_gammas` is longer


def corner_points(cfg: ChannelConfig) -> tuple[RatePair, RatePair]:
    """Corner points A and B of the capacity pentagon.

    Both lie on the sum-rate face; A maximizes r2, B maximizes r1.
    """
    a, b = _corners(_gammas(cfg))
    return RatePair(*a), RatePair(*b)


def standard_capacity_region(cfg: ChannelConfig) -> ConvexPiece:
    """The capacity pentagon as half-planes, with labeled corners.

    Vertices run counterclockwise from the origin: O, E (r1 axis), B, A,
    F (r2 axis).
    """
    g = g1, g2, g12, _, _ = _gammas(cfg)
    a, b = _corners(g)
    halfplanes = (
        HalfPlane(1.0, 0.0, 0.0),       # r1 >= 0
        HalfPlane(0.0, 1.0, 0.0),       # r2 >= 0
        HalfPlane(-1.0, 0.0, -g1),      # r1 <= gamma(P1)
        HalfPlane(0.0, -1.0, -g2),      # r2 <= gamma(P2)
        HalfPlane(-1.0, -1.0, -g12),    # r1 + r2 <= gamma(P1+P2)
    )
    vertices = (
        ("O", (0.0, 0.0)),
        ("E", (g1, 0.0)),
        ("B", b),
        ("A", a),
        ("F", (0.0, g2)),
    )
    return ConvexPiece(halfplanes, vertices)


def region_contains(piece: ConvexPiece, point: Sequence, tol: float = EPS_MEM):
    """Membership with absolute slack tolerance: every half-plane slack >= -tol.

    The coordinates are floats, giving a bool, or broadcastable ndarrays,
    giving the elementwise mask.
    """
    _require_tol(tol)
    x, y = point
    inside = True
    for hp in piece.halfplanes:
        inside = inside & (hp.slack(x, y) >= -tol)
    return inside
