"""Brute-force verification of every closed form in this package.

Everything here rests only on the definitional membership test
(`ct_contains_grid`); none of the closed-form region descriptions or table
solutions are consulted when computing an optimum, so a grid search is an
independent witness.  That test shares its linear forms with `build_region`,
so `oracle_region_equivalence` checks which constraints each piece carries.
`default_grid` reads its box off the definitional c = 1 constraints alone.
Reported optima carry an explicit certified gap: the objective's increase
over one grid step on each axis.  The region is upward closed, so rounding
the true optimizer up to the next grid point stays feasible and costs at
most that much.

Upward closure also makes each d1 column's feasible points a suffix of the
d2 axis, so the optimum oracles bisect every column for its first one (about
log2 N passes) rather than test N^2 points.  `oracle_region_equivalence`
compares two membership tests point by point and stays an N^2 sweep.

The grid needs numpy, the `macct[oracle]` extra: without it `GridSpec.axes`
and the three oracles raise an ImportError that names the extra.
"""

from __future__ import annotations

import math

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import numpy as np

from .capacity import _gammas, standard_capacity_region
from .ctregion import RegionDescription, _equal_time, build_region, ct_contains_grid
from .types import (
    EPS_MEM,
    ChannelConfig,
    CompletionTimePair,
    InfeasibleError,
    RatePair,
    TrafficLoad,
    _record,
    _require_finite,
    _require_resolution,
    _require_tol,
    _require_unit_interval,
    _shifted,
    _user_index,
    _Value,
)


def _numpy():
    """numpy, which only the grid oracle needs; without it, an ImportError naming the extra."""
    try:
        import numpy
    except ImportError as err:
        raise ImportError(f"the grid oracle needs the macct[oracle] extra: {err}") from err
    return numpy


@_record
class GridSpec(_Value):
    """Uniform search grid: `resolution` points per axis over a positive box."""

    resolution: int
    d1_bounds: tuple[float, float]
    d2_bounds: tuple[float, float]

    def __init__(
        self, resolution: int, d1_bounds: tuple[float, float], d2_bounds: tuple[float, float]
    ) -> None:
        fields = [_require_resolution(resolution)]
        for name, bounds in zip(self.__match_args__[1:], (d1_bounds, d2_bounds)):
            try:
                lo, hi = bounds
            except (TypeError, ValueError):  # not iterable, or not two values
                raise ValueError(f"{name} must be a pair (lo, hi), got {bounds!r}") from None
            lo, hi = _require_finite(name, lo), _require_finite(name, hi)
            if not 0.0 < lo < hi:
                raise ValueError(f"{name} must be finite with 0 < lo < hi, got ({lo}, {hi})")
            fields.append((lo, hi))
        self.__setstate__(fields)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        np = _numpy()
        return (
            np.linspace(self.d1_bounds[0], self.d1_bounds[1], self.resolution),
            np.linspace(self.d2_bounds[0], self.d2_bounds[1], self.resolution),
        )

    def steps(self) -> tuple[float, float]:
        return (
            (self.d1_bounds[1] - self.d1_bounds[0]) / (self.resolution - 1),
            (self.d2_bounds[1] - self.d2_bounds[0]) / (self.resolution - 1),
        )

    def cell_diagonal(self) -> float:
        return math.hypot(*self.steps())


@_record
class OracleReport(_Value):
    """A grid optimum: its value, the grid point attaining it, the larger grid step, and the
    certified gap bound, the most the true optimum can lie below the value."""

    optimum_value: float
    optimizer: CompletionTimePair
    grid_step: float
    certified_gap_bound: float


def default_grid(cfg: ChannelConfig, load: TrafficLoad, resolution: int = 2001) -> GridSpec:
    """Box [0.9 * min solo floor, 4 * equal-time optimum] per axis.

    At c = 1 the constrained region is the pentagon, so (t, t) is achievable
    exactly when t >= max(tau1/g1, tau2/g2, (tau1+tau2)/g12), the largest of
    its definitional floors (`_equal_time`).
    """
    g = _gammas(cfg)
    box = 0.9 * min(load.tau1 / g[0], load.tau2 / g[1]), 4.0 * _equal_time(g, load)[0]
    return GridSpec(resolution, box, box)


def oracle_weighted_min(
    cfg: ChannelConfig, load: TrafficLoad, w: float, spec: GridSpec
) -> OracleReport:
    """Minimum of w*d1 + (1-w)*d2 over feasible grid points."""
    _require_unit_interval("weight", w)
    value, point = _grid_min(cfg, load, spec, lambda d1, d2: w * d1 + (1.0 - w) * d2)
    step1, step2 = spec.steps()
    return OracleReport(
        optimum_value=value,
        optimizer=point,
        grid_step=max(step1, step2),
        certified_gap_bound=w * step1 + (1.0 - w) * step2,
    )


def oracle_minimax(cfg: ChannelConfig, load: TrafficLoad, spec: GridSpec) -> OracleReport:
    """Minimum of max(d1, d2) over feasible grid points."""
    value, point = _grid_min(cfg, load, spec, _numpy().maximum)
    return OracleReport(
        optimum_value=value,
        optimizer=point,
        grid_step=max(spec.steps()),
        certified_gap_bound=spec.cell_diagonal(),
    )


def _grid_min(
    cfg: ChannelConfig, load: TrafficLoad, spec: GridSpec, objective
) -> tuple[float, CompletionTimePair]:
    """Smallest objective(d1, d2) over the feasible grid points.

    Bisects every column at once for its first feasible point: the objective
    is nondecreasing in d2, so that point is the column's best, and the first
    column at the minimum holds the lexicographically smallest grid optimizer.
    """
    np = _numpy()
    x, y = spec.axes()
    k = np.zeros(x.size, dtype=np.intp)  # per column, how many d2 values lie below the region
    for bit in reversed(range(y.size.bit_length())):  # fix k's bits, highest first
        probe = np.minimum(k + (1 << bit), y.size)
        k = np.where(ct_contains_grid(cfg, load, x, y[probe - 1]), k, probe)
    hit = k < y.size
    if not hit.any():
        raise InfeasibleError(f"no feasible grid point in {spec.d1_bounds} x {spec.d2_bounds}")
    d2 = y[np.minimum(k, y.size - 1)]
    values = np.where(hit, objective(x, d2), np.inf)
    i = int(np.argmin(values))
    return float(values[i]), CompletionTimePair(float(x[i]), float(d2[i]))


def oracle_region_equivalence(
    cfg: ChannelConfig,
    load: TrafficLoad,
    spec: GridSpec,
    eps_boundary: float = 1e-6,
    region: RegionDescription | None = None,
    tol: float = EPS_MEM,
) -> list[tuple[float, float]]:
    """Grid points where the half-plane union disagrees with `ct_contains`.

    Points within eps_boundary (Euclidean) of any piece boundary are
    exempt.  An empty list certifies the region description on this grid.
    The `region` override lets tests feed a deliberately wrong description.
    """
    _require_tol(tol)
    np = _numpy()
    if region is None:
        region = build_region(cfg, load)
    x, y = spec.axes()
    d1 = x[:, None]
    d2 = y[None, :]
    union = np.zeros((x.size, y.size), dtype=bool)
    near_boundary = np.zeros_like(union)
    for _, piece in region.pieces:
        inside = np.ones_like(union)  # `region_contains`, from the slacks the band reads
        for hp in piece.halfplanes:
            slack = hp.slack(d1, d2)  # one N^2 array per half-plane, freed before the next
            inside &= slack >= -tol
            np.abs(slack, out=slack)
            slack /= math.hypot(hp.a, hp.b)
            near_boundary |= slack <= eps_boundary
            del slack
        union |= inside
    ct = ct_contains_grid(cfg, load, d1, d2, tol)
    bad = (union != ct) & ~near_boundary
    ii, jj = np.nonzero(bad)
    return [(float(x[i]), float(y[j])) for i, j in zip(ii, jj)]


def dominant_extreme_points(
    cfg: ChannelConfig, load: TrafficLoad, branch: int
) -> list[tuple[str, RatePair]]:
    """Undominated extreme points of the pentagon slice on one side of the ray.

    These are the only candidates a weighted-time minimizer over that
    branch ever needs to inspect.  They are derived from the geometry
    alone: the pentagon vertices on the branch's side of the demand ray
    (branch 1 below it, branch 2 above), plus point C on the ray, less
    every point another candidate dominates.
    """
    side = (1.0, -1.0)[_user_index("branch", branch) - 1]
    g = _gammas(cfg)
    tau1, tau2 = load.tau1, load.tau2  # the ray-side test multiplies them by rates s_i to g12
    _, (tau1, tau2) = _shifted((tau1, tau2), min(tau1, tau2), min(g[3], g[4]), tau1 + tau2, g[2])
    c = _equal_time(g, load)[3]
    candidates = [("C", RatePair(*c))] + [  # a vertex C equals is listed once, as C
        (label, RatePair(r1, r2))
        for label, (r1, r2) in standard_capacity_region(cfg).vertices
        if side * (r1 * tau2 - r2 * tau1) >= 0.0 and (r1, r2) != c
    ]
    return sorted(
        (label, r)
        for label, r in candidates
        if not any(o != r and o.r1 >= r.r1 and o.r2 >= r.r2 for _, o in candidates)
    )
