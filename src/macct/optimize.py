"""Closed-form minimizers of weighted and worst-case completion time.

The weighted objective w*d1 + (1-w)*d2 restricted to one convex piece of
the region equals, after the change of variables d = map_rate_to_ct(r),

    branch 1:  (1-w)*tau2/gamma(P2) + tau1*(gamma(P2) - (1-w)*r2)
                                       / (gamma(P2)*r1),
    branch 2:  w*tau1/gamma(P1) + tau2*(gamma(P1) - w*r1)
                                       / (gamma(P1)*r2),

a monotone fractional function over the pentagon slice on that branch's
side of the demand ray.  Its minimum sits at one of the dominant extreme
points A, B or C, and which one wins flips at a single weight threshold:

    w1 = gamma(P1/(1+P2)) / gamma(P1+P2)             (branch 1 rows)
    w2 = gamma(P1) / gamma(P1+P2)                    (branch 2 rows)
    w3 = tau1 / (tau1 + tau2)                        (full-region, Case II)

Thresholds are taken with closed lower intervals: at w equal to a
threshold the left cell's optimizer is returned and the tie is flagged.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .capacity import Gammas, _corners, _gammas, gamma  # noqa: F401 (bench/test_bench.py traces it)
from .constrained import _require_member
from .ctregion import _PIECE_CORNERS, Case, _equal_time, _late_time, _map_rate_to_ct
from .types import (
    EPS_MEM,
    _INF,
    ChannelConfig,
    CompletionTimePair,
    ConsistencyError,
    RatePair,
    TrafficLoad,
    _require_unit_interval,
    _slot_setters,
    _user_index,
)

_TIE_TOL = 1e-12
_BOUNDARY_VALUE_TOL = 1e-9

# Table rows: ((branch, label) for w up to the threshold, (branch, label)
# above it, threshold name), read off the corners each piece holds.  A
# piece's row runs from its A image to its B image, with C standing in for a
# corner it lacks.  The full-region row runs from A's piece to B's piece and
# switches at that piece's threshold, or at w3 when the corners are apart.
_Row = tuple[tuple[int, str], tuple[int, str], str]


def _subregion_row(branch: int, held: str) -> _Row:
    low, high = (x if x in held else "C" for x in "AB")
    return (branch, low), (branch, high), f"w{branch}"


def _full_row(pieces: tuple[str, str]) -> _Row:
    a, b = (1 if x in pieces[0] else 2 for x in "AB")
    return (a, "A"), (b, "B"), f"w{a}" if a == b else "w3"


_SUBREGION_ROWS: dict[tuple[int, Case], _Row] = {
    (branch, case): _subregion_row(branch, held)
    for case, pieces in _PIECE_CORNERS.items()
    for branch, held in enumerate(pieces, 1)
}
_FULL_ROWS: dict[Case, _Row] = {case: _full_row(p) for case, p in _PIECE_CORNERS.items()}


@dataclass(frozen=True, slots=True)
class Thresholds:
    w1: float
    w2: float
    w3: float


@dataclass(frozen=True, slots=True, init=False)
class WeightedSumSolution:
    """The optimum at one weight, the table cell that gave it, and whether the other cell ties."""

    weight: float
    optimal_value: float
    optimizer_point: CompletionTimePair
    rate_point_label: str
    branch: int
    tie: bool

    def __init__(
        self,
        weight: float,
        optimal_value: float,
        optimizer_point: CompletionTimePair,
        rate_point_label: str,
        branch: int,
        tie: bool,
    ) -> None:
        _set_weight(self, weight)
        _set_value(self, optimal_value)
        _set_point(self, optimizer_point)
        _set_label(self, rate_point_label)
        _set_branch(self, branch)
        _set_tie(self, tie)


_set_weight, _set_value, _set_point, _set_label, _set_branch, _set_tie = _slot_setters(
    WeightedSumSolution
)


def thresholds(cfg: ChannelConfig, load: TrafficLoad) -> Thresholds:
    """The three switching weights; always w1 < w2 by strict subadditivity."""
    g = _gammas(cfg)
    return Thresholds(*(_threshold(g, load, name) for name in ("w1", "w2", "w3")))


def _threshold(g: Gammas, load: TrafficLoad, name: str) -> float:
    """The switching weight called name: "w1", "w2" or "w3"."""
    if name == "w3":
        tau1, tau2 = load.tau1, load.tau2
        if not tau1 + tau2 < _INF:  # halve both: exact, but for a subnormal load whose share is 0
            tau1, tau2 = 0.5 * tau1, 0.5 * tau2
        return tau1 / (tau1 + tau2)
    return (g[3] if name == "w1" else g[0]) / g[2]


def objective_d(
    cfg: ChannelConfig, load: TrafficLoad, branch: int, w: float, r: RatePair
) -> float:
    """Branch objective at rate point r; equals w*d1 + (1-w)*d2 of the mapped point.  A point
    outside the pentagon raises InfeasibleError naming the violated constraint."""
    _require_unit_interval("weight", w)
    early = _user_index("branch", branch) - 1
    late = 1 - early
    gammas = _gammas(cfg)
    _require_member(gammas, r.r1, r.r2, 1.0, 1.0, EPS_MEM)
    rates, tau = r.as_tuple(), (load.tau1, load.tau2)
    if rates[early] <= 0.0:
        raise ValueError(f"branch {branch} objective divides by r{branch}; need r{branch} > 0")
    w_late = (1.0 - w, w)[early]
    # w*d1 + (1-w)*d2 is the late time of the late finisher's weighted bits and rate
    return _late_time(w_late * tau[late], gammas[late], w_late * rates[late],
                      tau[early], rates[early])


def minimize_subregion(
    cfg: ChannelConfig, load: TrafficLoad, branch: int, w: float
) -> WeightedSumSolution:
    """Minimize w*d1 + (1-w)*d2 over one convex piece of the region."""
    _require_unit_interval("weight", w)
    branch = _user_index("branch", branch)
    return _cross_checked("sub-region minimum", cfg, load, w,
                          lambda case: _SUBREGION_ROWS[branch, case])


def minimize_weighted_sum(cfg: ChannelConfig, load: TrafficLoad, w: float) -> WeightedSumSolution:
    """Minimize w*d1 + (1-w)*d2 over the whole (possibly non-convex) region."""
    _require_unit_interval("weight", w)
    return _cross_checked("weighted-sum minimum", cfg, load, w, lambda case: _FULL_ROWS[case])


def minimax(cfg: ChannelConfig, load: TrafficLoad) -> tuple[float, CompletionTimePair]:
    """Smallest achievable max(d1, d2), attained at the equal-time vertex Cbar = (t, t).

    t is the largest c = 1 floor, whatever the case, so nothing needs a cross-check.
    """
    t = _equal_time(_gammas(cfg), load)[0]
    return t, CompletionTimePair(t, t)


def _cross_checked(
    what: str, cfg: ChannelConfig, load: TrafficLoad, w: float, row: Callable[[Case], _Row]
) -> WeightedSumSolution:
    """The row(case) solution for the load's case, from one `_gammas` and one `_equal_time`.

    On a classification boundary the adjacent case's row holds as well, so
    its solution must have the same value.
    """
    g = _gammas(cfg)
    t, case, adjacent, _ = _equal_time(g, load)
    solution = _solve(g, load, w, t, row(case))
    if adjacent is not None:
        primary = solution.optimal_value
        alternate = _solve(g, load, w, t, row(adjacent)).optimal_value
        if abs(primary - alternate) > _BOUNDARY_VALUE_TOL * primary:  # optima are positive
            raise ConsistencyError(
                f"{what} disagrees across the case boundary: {primary!r} vs {alternate!r}"
            )
    return solution


def _solve(g: Gammas, load: TrafficLoad, w: float, t: float, row: _Row) -> WeightedSumSolution:
    """The row's low cell for w up to its threshold, else its high cell; C's image is (t, t)."""
    low, high, threshold = row
    cell, other = (low, high) if w <= _threshold(g, load, threshold) else (high, low)
    value, point = _evaluate_cell(g, load, w, t, *cell)
    other_value, other_point = _evaluate_cell(g, load, w, t, *other)
    tie = _is_tie(value, point, other_value, other_point)
    return WeightedSumSolution(w, value, CompletionTimePair(*point), cell[1], cell[0], tie)


def _evaluate_cell(
    g: Gammas, load: TrafficLoad, w: float, t: float, branch: int, label: str
) -> tuple[float, tuple[float, float]]:
    """The cell's objective value and its point (d1, d2)."""
    if label == "C":
        d1, d2 = d = t, t
    else:
        a, b = _corners(g)
        d1, d2 = d = _map_rate_to_ct(g, load, branch, a if label == "A" else b)
    return w * d1 + (1.0 - w) * d2, d


def _is_tie(
    value: float,
    point: tuple[float, float],
    other_value: float,
    other_point: tuple[float, float],
) -> bool:
    # Values and points scale with the load alike, so both tolerances scale with the (positive)
    # value: the flag is the same for any load times a power of two.
    tol = _TIE_TOL * value
    same_value = abs(other_value - value) <= tol
    distinct = abs(other_point[0] - point[0]) > tol or abs(other_point[1] - point[1]) > tol
    return same_value and distinct

