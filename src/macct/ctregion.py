"""The completion-time region of the two-user Gaussian multi-access channel.

User i must deliver tau_i bits per source unit; transmitting at constrained
rate R_i it finishes after d_i = tau_i / R_i channel uses per source unit.
A pair (d1, d2) is achievable exactly when the rate pair (tau1/d1, tau2/d2)
lies in the c-constrained capacity region with c = d1/d2.  `ct_contains`,
the definitional ground truth for everything else here, reads those
inequalities as `constrained._sides` states them, each times its rate's block
length: three linear tests, no division.  `ct_slacks` divides each back into a
rate slack.

The region splits into two convex pieces: D1 on the d1 <= d2 side and D2 on
d1 >= d2.  Each piece is an intersection of half-planes among

    d1 >= tau1/gamma(P1),  d2 >= tau2/gamma(P2),        (solo floors)
    gamma(P1/(1+P2))*d1 + gamma(P2)*d2 >= tau1+tau2     (sum, D1)
    gamma(P1)*d1 + gamma(P2/(1+P1))*d2 >= tau1+tau2     (sum, D2)

and which sum constraint is non-redundant depends on where the demand ray
r2/r1 = tau2/tau1 exits the capacity pentagon (point C):

    Case I   -- C on the r1 = gamma(P1) face (tau2 relatively small),
    Case II  -- C on the sum-rate face,
    Case III -- C on the r2 = gamma(P2) face.

At c = 1 the region is the pentagon, so the equal-time vertex is Cbar = (t, t)
with t = max(tau1/gamma(P1), tau2/gamma(P2), (tau1+tau2)/gamma(P1+P2)), the
case is the face whose floor attains that max, and point C is the load over
that floor; `_equal_time` gives all three from one reading of the floors.

One rule covers all three cases: D1 holds the pentagon corners (A, B) that
lie below the demand ray and D2 those above it (`_PIECE_CORNERS`).  A piece
carries its sum constraint exactly when it holds a corner; its vertices are
Cbar and the images of its corners (D1's on branch 1, primed: Bbar', Abar';
D2's on branch 2: Bbar, Abar).  The boundary polyline and the optimum tables
in `optimize` are read from the same table, and the vertices and the optima
off the same images, read in one frame (`_image_frame`).

In Case II the union of the two pieces is not convex: it has a notch at the
equal-time vertex Cbar.
"""

from __future__ import annotations

import enum

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import numpy as np

from .capacity import Gammas, _corner_gammas, _corners, _gammas
from .constrained import _NAMES, _member, _require_member, _slacks, _tests
from .types import (
    EPS_MEM,
    _INF,
    ChannelConfig,
    CompletionTimePair,
    ConvexPiece,
    HalfPlane,
    RatePair,
    TrafficLoad,
    _record,
    _require_tol,
    _shifted,
    _user_index,
    _Value,
)


_BOUNDARY_REL_TOL = 1e-12


class Case(enum.Enum):
    I = "I"
    II = "II"
    III = "III"


# The pentagon corners each piece holds, in boundary order: (D1's, D2's).
_PIECE_CORNERS: dict[Case, tuple[str, str]] = {
    Case.I: ("", "BA"),
    Case.II: ("B", "A"),
    Case.III: ("BA", ""),
}

# The ordering constraints d1 <= d2 of D1 and d1 >= d2 of D2.
_ORDER = (HalfPlane(-1.0, 1.0, 0.0), HalfPlane(1.0, -1.0, 0.0))


@_record
class RegionDescription(_Value):
    """The region as two convex pieces plus the case label.

    piece_d1 covers d1 <= d2, piece_d2 covers d1 >= d2; the achievable set
    is their union.
    """

    case: Case
    piece_d1: ConvexPiece
    piece_d2: ConvexPiece

    @property
    def pieces(self) -> tuple[tuple[str, ConvexPiece], ...]:
        return (("D1", self.piece_d1), ("D2", self.piece_d2))


def classify_case(cfg: ChannelConfig, load: TrafficLoad) -> Case:
    """Locate point C by the largest c = 1 floor; ties go to Case I / Case III."""
    return _equal_time(_gammas(cfg), load)[1]


def _equal_time(g: Gammas, load: TrafficLoad) -> tuple[float, Case, Case | None, tuple]:
    """(t, case, adjacent, c) from the c = 1 floors tau1/g1, tau2/g2 and tau1/g12 + tau2/g12 (a
    sum of quotients, exact under a user swap): Cbar = (t, t) with t the largest (inf beyond the
    float range), the case whose floor attains it, the runner-up's case when its floor ties t
    within `_BOUNDARY_REL_TOL` (else None), and point C, the load over the winning floor with a
    solo face's level exact.  The floors read the load `_shifted`: a summand is at least
    min(tau)/g12, and fs at most twice the larger of tau_i/g_i = tau_i*(gm/g_i)/gm, gm the smaller
    solo level.  So t is exact while normal, and the case and C are the same."""
    tau1, tau2, g1, g2 = load.tau1, load.tau2, g[0], g[1]
    gm, a, b = (g1, tau1, tau2 * (g1 / g2)) if g1 <= g2 else (g2, tau2, tau1 * (g2 / g1))
    back, (tau1, tau2) = _shifted((tau1, tau2), tau1 if tau1 < tau2 else tau2, 1.0 / g[2],
                                  a if a > b else b, 4.0 / gm)
    f1, f2, fs = tau1 / g[0], tau2 / g[1], tau1 / g[2] + tau2 / g[2]
    # Exactly, a solo floor >= fs is the max; where g12 rounds to g1, f1 >= fs holds even when f2
    # is far larger, so each solo floor is tested against both others.
    if f1 >= fs and f1 >= f2:
        case, top, c = Case.I, f1, (g[0], tau2 / f1)
        second, runner_up = (fs, Case.II) if fs >= f2 else (f2, Case.III)
    elif f2 >= fs:
        case, top, c = Case.III, f2, (tau1 / f2, g[1])
        second, runner_up = (fs, Case.II) if fs >= f1 else (f1, Case.I)
    else:
        case, top, c = Case.II, fs, (tau1 / fs, tau2 / fs)
        second, runner_up = (f1, Case.I) if f1 >= f2 else (f2, Case.III)
    return top * back, case, runner_up if top - second <= _BOUNDARY_REL_TOL * top else None, c


def point_c(cfg: ChannelConfig, load: TrafficLoad) -> RatePair:
    """Where the demand ray r2/r1 = tau2/tau1 meets the pentagon face of the load's case."""
    return RatePair(*_equal_time(_gammas(cfg), load)[3])


def map_rate_to_ct(
    cfg: ChannelConfig, load: TrafficLoad, branch: int, r: RatePair
) -> CompletionTimePair:
    """Completion times reached by operating at pentagon point r on one branch.

    Branch 1 (d1 <= d2): user 1 runs at r1 the whole time it is active, so
    d1 = tau1/r1; user 2 sends at r2 alongside and finishes its remaining
    bits alone at full rate gamma(P2).  Branch 2 mirrors the roles.  A point
    outside the pentagon raises InfeasibleError naming the violated constraint.
    """
    branch = _user_index("branch", branch)
    g = _gammas(cfg)
    _require_member(g, r.r1, r.r2, 1.0, 1.0, EPS_MEM)
    return CompletionTimePair(*_map_rate_to_ct(g, load, branch, r.as_tuple()))


def _map_rate_to_ct(
    g: Gammas, load: TrafficLoad, branch: int, r: tuple[float, float], spare: float | None = None
) -> tuple[float, float]:
    """`map_rate_to_ct` as a float pair, refused as `CompletionTimePair` refuses it.  spare is
    the late finisher's g - r when the caller knows it better (`_corner_image`).  Its callers
    check the branch and the rate point."""
    if r[branch - 1] <= 0.0:
        raise ValueError(f"branch {branch} needs r{branch} > 0 (it divides by r{branch})")
    (r1, r2), tau1, tau2 = r, load.tau1, load.tau2
    if branch == 1:
        d1 = tau1 / r1
        d2 = _late_time(tau2, g[1], g[1] - r2 if spare is None else spare, tau1, r1)
    else:
        d1 = _late_time(tau1, g[0], g[0] - r1 if spare is None else spare, tau2, r2)
        d2 = tau2 / r2
    if not (0.0 < d1 < _INF and 0.0 < d2 < _INF):
        CompletionTimePair(d1, d2)  # raises the value type's ValueError (a time <= 0 or inf)
    return d1, d2


def _corner_image(g: tuple, load: TrafficLoad, branch: int, label: str) -> tuple[float, float]:
    """`_map_rate_to_ct` of corner A = (s1, g2) or B = (g1, s2), given the `_corner_gammas`.
    Where the late finisher runs at its corner rate s (B on branch 1, A on branch 2), its spare
    rate g - s is their gap: the difference of the floats cancels, to 0 where s rounds to g."""
    if label == "A":  # user 1 at s1, the late finisher on branch 2
        return _map_rate_to_ct(g, load, branch, (g[3], g[1]), g[5] if branch == 2 else None)
    return _map_rate_to_ct(g, load, branch, (g[0], g[4]), g[5] if branch == 1 else None)


def _image_frame(g: tuple, load: TrafficLoad) -> tuple[float, TrafficLoad]:
    """(back, load): the load the corner images are read off, given the `_corner_gammas`, and the
    power of two that takes them back.  An image adds quotients of the load by rates from s_i to
    g12, each at most (tau1 + tau2)/s_i: where one would fall below the normal range the load is
    `_shifted` up, never down: a time beyond the float range is refused."""
    tau1, tau2, s = load.tau1, load.tau2, g[3] if g[3] < g[4] else g[4]
    back, shifted = _shifted((tau1, tau2), tau1 if tau1 < tau2 else tau2, 1.0 / g[2],
                             tau1 + tau2, 1.0 / s if s else _INF)
    return (back, TrafficLoad(*shifted)) if back < 1.0 else (1.0, load)


def _late_time(tau: float, g: float, spare: float, tau_early: float, r_early: float) -> float:
    """tau/g + (spare/g)*(tau_early/r_early), spare = g - r: the late finisher's bits left after
    the shared phase of length tau_early/r_early at rate r, sent alone at its solo rate g.  No two
    loads or rates are multiplied and the share spare/g is at most 1, so it holds on the whole
    float range."""
    share = spare / g
    return tau / g + share * (tau_early / r_early) if share else tau / g  # not 0*inf = nan


def ct_contains(
    cfg: ChannelConfig, load: TrafficLoad, d: CompletionTimePair, tol: float = EPS_MEM
) -> bool:
    """Definitional membership test: the induced rate pair must be achievable."""
    _require_tol(tol)
    # a bool for a numpy tol too
    return bool(_member(_gammas(cfg), load.tau1, load.tau2, d.d1, d.d2, tol))


def ct_slacks(cfg: ChannelConfig, load: TrafficLoad, d: CompletionTimePair) -> dict[str, float]:
    """Slacks of the three membership tests at d as rates, nonnegative when met (`_slacks`): a
    user swap mirrors them exactly, no c range applies, and a rate tau_i/d_i beyond the float
    range gives user i -inf."""
    return dict(zip(_NAMES, _slacks(_gammas(cfg), load.tau1, load.tau2, d.d1, d.d2)))


def ct_contains_grid(
    cfg: ChannelConfig, load: TrafficLoad, d1: np.ndarray, d2: np.ndarray, tol: float = EPS_MEM
) -> np.ndarray:
    """Vectorized `ct_contains` over positive arrays d1, d2 (broadcastable)."""
    _require_tol(tol)
    solo_1, solo_2, sum_face = _tests(_gammas(cfg), load.tau1, load.tau2, d1, d2, tol)
    return solo_1 & solo_2 & sum_face


def outer_bound(cfg: ChannelConfig, load: TrafficLoad) -> ConvexPiece:
    """Quadrant bound: no user beats its interference-free completion time."""
    floors = _floors(load, *_gammas(cfg)[:2])
    return ConvexPiece(floors, (("corner", (floors[0].c, floors[1].c)),))


def _floors(load: TrafficLoad, g1: float, g2: float) -> tuple[HalfPlane, HalfPlane]:
    """The solo floors d_i >= tau_i/gamma(P_i), given gamma(P1) and gamma(P2)."""
    return HalfPlane(1.0, 0.0, load.tau1 / g1), HalfPlane(0.0, 1.0, load.tau2 / g2)


def equal_time_vertex(cfg: ChannelConfig, load: TrafficLoad) -> CompletionTimePair:
    """Cbar: image of point C, the boundary point with d1 = d2."""
    t = _equal_time(_gammas(cfg), load)[0]
    return CompletionTimePair(t, t)


def build_region(cfg: ChannelConfig, load: TrafficLoad) -> RegionDescription:
    """Half-plane description of both pieces with labeled corner vertices.

    Each piece carries the two solo floors, its ordering constraint (a module
    constant), and its sum constraint exactly when it holds a pentagon corner
    (see `_PIECE_CORNERS`); otherwise that constraint is implied by the rest.
    One `_corner_gammas` derivation and `_equal_time` give the corners, Cbar (as
    `equal_time_vertex`), the case and the floors (as `outer_bound`).  Union
    membership agrees with `ct_contains`.
    """
    g = _corner_gammas(cfg)
    t, case, _, _ = _equal_time(g, load)
    if not 0.0 < t < _INF:
        CompletionTimePair(t, t)  # raises the value type's ValueError
    a, b = _corners(g)
    cbar = ("Cbar", (t, t))
    floor1, floor2 = _floors(load, g[0], g[1])
    frame_back, frame = _image_frame(g, load)  # the optimizer's: each image is its point exactly
    tau1, tau2 = load.tau1, load.tau2  # where their sum overflows, each sum half-plane is shifted
    back, (tau1, tau2) = _shifted((tau1, tau2), tau1, _INF, tau1 + tau2, 1.0)
    scale = 1.0 / back
    pieces = []
    # D1 (d1 <= d2) maps its corners on branch 1 and its sum normal is A; D2
    # (d1 >= d2) maps on branch 2 and its normal is B.  In boundary order Cbar
    # ends D1 and starts D2.
    for branch, held, normal, order, suffix in (
        (1, _PIECE_CORNERS[case][0], a, _ORDER[0], "bar'"),
        (2, _PIECE_CORNERS[case][1], b, _ORDER[1], "bar"),
    ):
        images = [(x + suffix, (d1 * frame_back, d2 * frame_back))
                  for x in held for d1, d2 in [_corner_image(g, frame, branch, x)]]
        sum_rate = (HalfPlane(scale * normal[0], scale * normal[1], tau1 + tau2),) if held else ()
        pieces.append(ConvexPiece(
            (floor1, floor2, *sum_rate, order),
            (*images, cbar) if branch == 1 else (cbar, *images),
        ))
    return RegionDescription(case, *pieces)


def boundary_polyline(
    cfg: ChannelConfig, load: TrafficLoad, d1_max: float, d2_max: float
) -> list[tuple[float, float]]:
    """Ordered boundary points of the region union, rays cut at the given box.

    Runs from the top of the vertical ray (d1 at its floor) through the
    labeled corners to the right end of the horizontal ray (d2 at its
    floor).  In Case II the path turns inward at Cbar, tracing the notch.
    """
    desc = build_region(cfg, load)
    lo1, lo2 = (hp.c for hp in desc.piece_d1.halfplanes[:2])  # the solo floors
    middle = [xy for _, xy in desc.piece_d1.vertices + desc.piece_d2.vertices[1:]]
    if d1_max < max(x for x, _ in middle) or d2_max < max(y for _, y in middle):
        raise ValueError("bounding box does not contain every region vertex")
    return [(lo1, d2_max), *middle, (d1_max, lo2)]
