import numpy as np
import pytest

from macct import (
    ChannelConfig,
    CompletionTimePair,
    ConvexPiece,
    GridSpec,
    HalfPlane,
    InfeasibleError,
    TrafficLoad,
    build_region,
    corner_points,
    ct_contains,
    default_grid,
    dominant_extreme_points,
    gamma,
    map_rate_to_ct,
    minimax,
    minimize_weighted_sum,
    objective_d,
    oracle_minimax,
    oracle_region_equivalence,
    oracle_weighted_min,
    region_contains,
    standard_capacity_region,
)
from macct.ctregion import RegionDescription
from refvals import (
    CBAR_II,
    CFG33,
    LOAD_I,
    LOAD_II,
    LOAD_III,
    REFERENCE_INSTANCES,
    VALUE_W02_II,
    random_instance,
)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(8, (0.5, 4.0), (0.5, 4.0))
    with pytest.raises(ValueError):
        GridSpec(100, (4.0, 0.5), (0.5, 4.0))
    with pytest.raises(ValueError):
        GridSpec(100, (0.0, 4.0), (0.5, 4.0))
    spec = GridSpec(101, (1.0, 2.0), (1.0, 3.0))
    assert spec.steps() == (0.01, 0.02)


def test_without_numpy_the_grid_oracle_names_its_extra(monkeypatch):
    # numpy is the `macct[oracle]` extra: the grid and the three oracles need it, and nothing
    # before them (a spec, a default grid) does.
    import sys

    monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` now raises ImportError
    spec = default_grid(CFG33, LOAD_II, 16)
    for call in (spec.axes,
                 lambda: oracle_weighted_min(CFG33, LOAD_II, 0.2, spec),
                 lambda: oracle_minimax(CFG33, LOAD_II, spec),
                 lambda: oracle_region_equivalence(CFG33, LOAD_II, spec)):
        with pytest.raises(ImportError, match=r"^the grid oracle needs the macct\[oracle\] "):
            call()


def test_numpy_is_an_extra_in_the_project_metadata():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    from pathlib import Path

    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    project = tomllib.loads(text)["project"]
    assert project["dependencies"] == []
    extras = project["optional-dependencies"]
    assert extras["oracle"] == ["numpy>=1.23"] and "numpy>=1.23" in extras["test"]


def test_default_grid_rejects_bad_resolution():
    with pytest.raises(ValueError, match=r"^grid resolution must be an int >= 16, got 8$"):
        default_grid(CFG33, LOAD_II, 8)


@pytest.mark.parametrize("p_range, tau_range", [
    ((-2.0, 4.0), (-2.0, 2.0)),
    ((-4.0, 6.0), (-4.0, 4.0)),
    ((-8.0, 8.0), (-6.0, 6.0)),
], ids=["moderate", "edge", "wide"])
def test_box_upper_end_is_four_times_closed_form_minimax(p_range, tau_range):
    # The box reads only the c = 1 constraints; the closed form goes through
    # the load's case and point C, so the two agree without sharing code.
    rng = np.random.default_rng(1109)
    for _ in range(300):
        p1, p2 = 10.0 ** rng.uniform(*p_range, size=2)
        tau1, tau2 = 10.0 ** rng.uniform(*tau_range, size=2)
        cfg, load = ChannelConfig(p1, p2), TrafficLoad(tau1, tau2)
        upper = default_grid(cfg, load, 16).d1_bounds[1]
        assert upper / 4.0 == pytest.approx(minimax(cfg, load)[0], rel=1e-12), (cfg, load)


def test_minimax_bracket_with_optimum_on_a_floor():
    # Case I: the equal-time optimum sits exactly on user 1's solo floor.
    cfg = ChannelConfig(0.30597715498153716, 2.2166555817702642)
    load = TrafficLoad(30.597637599108623, 0.021005121830250433)
    spec = default_grid(cfg, load, 201)
    assert spec.d1_bounds[1] == 4.0 * (load.tau1 / gamma(cfg.p1))
    report = oracle_minimax(cfg, load, spec)
    assert report.optimum_value - report.certified_gap_bound <= 158.89525391144966
    assert 158.89525391144966 <= report.optimum_value + 1e-9


def test_a_vertex_equal_to_point_c_is_listed_once_as_c():
    # C's second rate underflows to 0 and so equals vertex E; in exact arithmetic it is positive,
    # so C dominates E.
    cfg = ChannelConfig(9.639521646292748e-174, 1.1071907465775637e-231)
    load = TrafficLoad(1.2814194349389433e-127, 2.6275598218875495e-297)
    points = dominant_extreme_points(cfg, load, 1)
    assert [label for label, _ in points] == ["C"]
    assert points[0][1].as_tuple() == (6.953445037824182e-174, 0.0)


def test_moderate_domain_grids_and_brackets():
    # 400 log-uniform scenarios, p in [1e-2, 1e4], tau in [1e-2, 1e2] and
    # w in [0.3, 0.7]: every load gets a grid and both closed forms lie in
    # their oracle brackets (as `macct minimize --verify` checks them).
    rng = np.random.default_rng(400)
    for _ in range(400):
        p1, p2 = 10.0 ** rng.uniform(-2.0, 4.0, size=2)
        tau1, tau2 = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
        cfg, load = ChannelConfig(p1, p2), TrafficLoad(tau1, tau2)
        w = float(rng.uniform(0.3, 0.7))
        spec = default_grid(cfg, load, 201)
        for value, report in (
            (minimize_weighted_sum(cfg, load, w).optimal_value,
             oracle_weighted_min(cfg, load, w, spec)),
            (minimax(cfg, load)[0], oracle_minimax(cfg, load, spec)),
        ):
            low = report.optimum_value - report.certified_gap_bound - 1e-12
            assert low <= value <= report.optimum_value + 1e-9, (p1, p2, tau1, tau2, w)


class TestWeightedOracle:
    def test_brackets_reference_value(self):
        spec = GridSpec(501, (0.9, 4.0), (0.9, 4.0))
        report = oracle_weighted_min(CFG33, LOAD_II, 0.2, spec)
        assert report.optimum_value >= VALUE_W02_II - 1e-9
        assert report.optimum_value - report.certified_gap_bound <= VALUE_W02_II

    def test_extreme_weights_hit_solo_floors(self):
        spec = default_grid(CFG33, LOAD_II, 801)
        for w, floor in ((0.0, 1.0), (1.0, 1.0)):
            report = oracle_weighted_min(CFG33, LOAD_II, w, spec)
            assert abs(report.optimum_value - floor) <= report.certified_gap_bound

    def test_gap_honesty_at_coarse_resolution(self):
        spec = default_grid(CFG33, LOAD_II, 16)
        report = oracle_weighted_min(CFG33, LOAD_II, 0.2, spec)
        assert report.optimum_value >= VALUE_W02_II - 1e-9
        assert report.optimum_value - report.certified_gap_bound <= VALUE_W02_II
        assert report.certified_gap_bound > 0.1  # honest, large at 16 points/axis

    def test_gap_covers_rounding_up_both_axes(self):
        # Near w = 1/2 rounding the optimizer up one cell per axis costs
        # w*h1 + (1-w)*h2, more than max(w, 1-w) times the cell diagonal.
        cfg = ChannelConfig(505.3777331133756, 2410.7856476165075)
        load = TrafficLoad(0.041475009586107024, 7.319468248089246)
        w = 0.5641026060765484
        spec = default_grid(cfg, load, 201)
        report = oracle_weighted_min(cfg, load, w, spec)
        h1, h2 = spec.steps()
        assert report.certified_gap_bound == w * h1 + (1.0 - w) * h2
        closed = minimize_weighted_sum(cfg, load, w)
        assert ct_contains(cfg, load, closed.optimizer_point)
        assert report.optimum_value - report.certified_gap_bound <= closed.optimal_value
        assert closed.optimal_value <= report.optimum_value + 1e-9

    def test_monotone_refinement(self):
        spec_lo = default_grid(CFG33, LOAD_II, 201)
        spec_hi = default_grid(CFG33, LOAD_II, 402)
        for w in (0.0, 0.2, 0.5, 0.8, 1.0):
            lo = oracle_weighted_min(CFG33, LOAD_II, w, spec_lo)
            hi = oracle_weighted_min(CFG33, LOAD_II, w, spec_hi)
            assert hi.optimum_value <= lo.optimum_value + lo.certified_gap_bound

    def test_empty_feasible_grid_names_bounds(self):
        spec = GridSpec(64, (0.1, 0.5), (0.1, 0.5))
        with pytest.raises(InfeasibleError, match=r"0\.1"):
            oracle_weighted_min(CFG33, LOAD_II, 0.5, spec)

    def test_deterministic(self):
        spec = default_grid(CFG33, LOAD_II, 301)
        a = oracle_weighted_min(CFG33, LOAD_II, 0.37, spec)
        b = oracle_weighted_min(CFG33, LOAD_II, 0.37, spec)
        assert a == b


class TestMinimaxOracle:
    def test_brackets_reference_values(self):
        for (_, cfg, load), target in zip(REFERENCE_INSTANCES, (1.0, CBAR_II, 1.0)):
            report = oracle_minimax(cfg, load, default_grid(cfg, load, 801))
            assert report.optimum_value >= target - 1e-9
            assert report.optimum_value - report.certified_gap_bound <= target

    def test_band_restriction_matches_full_sweep(self):
        # Both optimum oracles against an inline N^2 sweep, whose row-major
        # first hit is the lexicographically smallest grid optimizer.
        from macct import ct_contains_grid

        rng = np.random.default_rng(161)
        for case in ("I", "II", "III"):
            for resolution in (16, 17, 64, 161):
                cfg, load = random_instance(rng, case)
                spec = default_grid(cfg, load, resolution)
                # starts below user 1's solo floor, so its lowest columns are empty
                low_empty = GridSpec(
                    resolution, (0.5 * load.tau1 / gamma(cfg.p1), spec.d1_bounds[1]),
                    spec.d2_bounds,
                )
                for grid in (spec, low_empty):
                    x, y = grid.axes()
                    mask = ct_contains_grid(cfg, load, x[:, None], y[None, :])
                    assert grid is spec or not mask[0].any()
                    reports = [
                        (lambda d1, d2, w=w: w * d1 + (1.0 - w) * d2,
                         oracle_weighted_min(cfg, load, w, grid))
                        for w in (0.0, 0.2, 0.5, 1.0)
                    ] + [(np.maximum, oracle_minimax(cfg, load, grid))]
                    for objective, report in reports:
                        values = np.where(mask, objective(x[:, None], y[None, :]), np.inf)
                        i, j = divmod(int(np.argmin(values)), y.size)
                        assert report.optimum_value == values[i, j], (case, resolution)
                        assert report.optimizer == CompletionTimePair(x[i], y[j]), (case, resolution)

    def test_empty_grid(self):
        with pytest.raises(InfeasibleError):
            oracle_minimax(CFG33, LOAD_II, GridSpec(32, (0.2, 0.8), (0.2, 0.8)))


class TestRegionEquivalence:
    def test_reference_instances_clean(self):
        for _, cfg, load in REFERENCE_INSTANCES:
            spec = _equivalence_grid(cfg, load, 200)
            assert oracle_region_equivalence(cfg, load, spec) == []

    def test_conjunctive_reading_is_caught(self):
        # wrong region: both pieces carry both sum constraints, which turns
        # the Case II union into its convex hull intersection
        desc = build_region(CFG33, LOAD_II)
        g1 = g2 = gamma(3.0)
        g12 = gamma(6.0)
        sum_d1 = HalfPlane(g12 - g2, g2, 2.0)
        sum_d2 = HalfPlane(g1, g12 - g1, 2.0)
        wrong = RegionDescription(
            desc.case,
            ConvexPiece(desc.piece_d1.halfplanes + (sum_d2,), desc.piece_d1.vertices),
            ConvexPiece(desc.piece_d2.halfplanes + (sum_d1,), desc.piece_d2.vertices),
        )
        spec = _equivalence_grid(CFG33, LOAD_II, 500)
        bad = oracle_region_equivalence(CFG33, LOAD_II, spec, region=wrong)
        assert bad
        assert min(abs(x - 1.9) + abs(y - 1.05) for x, y in bad) < 0.02

    def test_grid_outside_region_is_trivially_clean(self):
        spec = GridSpec(64, (0.05, 0.4), (0.05, 0.4))
        assert oracle_region_equivalence(CFG33, LOAD_II, spec) == []


class TestDominantExtremePoints:
    def test_case_tables(self):
        assert [lbl for lbl, _ in dominant_extreme_points(CFG33, LOAD_I, 1)] == ["C"]
        assert [lbl for lbl, _ in dominant_extreme_points(CFG33, LOAD_II, 1)] == ["B", "C"]
        assert [lbl for lbl, _ in dominant_extreme_points(CFG33, LOAD_III, 1)] == ["A", "B"]
        assert [lbl for lbl, _ in dominant_extreme_points(CFG33, LOAD_I, 2)] == ["A", "B"]
        assert [lbl for lbl, _ in dominant_extreme_points(CFG33, LOAD_II, 2)] == ["A", "C"]
        assert [lbl for lbl, _ in dominant_extreme_points(CFG33, LOAD_III, 2)] == ["C"]

    def test_feasible_on_ray_side_and_undominated(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            cfg, load = random_instance(rng)
            pentagon = standard_capacity_region(cfg)
            for branch in (1, 2):
                points = dominant_extreme_points(cfg, load, branch)
                for _, r in points:
                    assert region_contains(pentagon, r.as_tuple())
                    side = r.r2 * load.tau1 - r.r1 * load.tau2
                    if branch == 1:
                        assert side <= 1e-9
                    else:
                        assert side >= -1e-9
                for _, r in points:
                    for _, other in points:
                        if other is not r:
                            assert not (
                                other.r1 >= r.r1 + 1e-12 and other.r2 >= r.r2 + 1e-12
                            )

    def test_restriction_to_dominant_points_reproduces_grid_optimum(self):
        rng = np.random.default_rng(32)
        spec = default_grid(CFG33, LOAD_II, 501)
        for _ in range(10):
            w = float(rng.uniform(0.0, 1.0))
            report = oracle_weighted_min(CFG33, LOAD_II, w, spec)
            best = min(
                objective_d(CFG33, LOAD_II, branch, w, r)
                for branch in (1, 2)
                for _, r in dominant_extreme_points(CFG33, LOAD_II, branch)
            )
            assert report.optimum_value - report.certified_gap_bound <= best
            assert best <= report.optimum_value + 1e-9


def _equivalence_grid(cfg, load, resolution):
    lo = 0.5 * min(load.tau1 / gamma(cfg.p1), load.tau2 / gamma(cfg.p2))
    hi = 4.0 * max(load.tau1 / gamma(cfg.p1), load.tau2 / gamma(cfg.p2))
    return GridSpec(resolution, (lo, hi), (lo, hi))
