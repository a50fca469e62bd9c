import math
from functools import partial

import numpy as np
import pytest

from macct import (
    EPS_MEM,
    Case,
    ChannelConfig,
    CompletionTimePair,
    ConsistencyError,
    InfeasibleError,
    Phase,
    RatePair,
    TrafficLoad,
    build_region,
    classify_case,
    corner_points,
    ct_contains,
    ct_contains_grid,
    ct_slacks,
    equal_time_vertex,
    gamma,
    map_rate_to_ct,
    minimax,
    minimize_subregion,
    minimize_weighted_sum,
    objective_d,
    outer_bound,
    point_c,
    synthesize,
    thresholds,
)
from refvals import (
    ABAR_II,
    BBARP_II,
    CBAR_I,
    CBAR_II,
    CBAR_III,
    CFG33,
    LOAD_I,
    LOAD_II,
    LOAD_III,
    REFERENCE_INSTANCES,
    VALUE_W02_II,
    VALUE_W05_II,
    W1_33,
    W2_33,
    random_instance,
)


class TestThresholds:
    def test_reference_values(self):
        t = thresholds(CFG33, LOAD_II)
        assert t.w1 == pytest.approx(W1_33, abs=1e-15)
        assert t.w2 == pytest.approx(W2_33, abs=1e-15)
        assert t.w3 == 0.5
        assert thresholds(CFG33, LOAD_I).w3 == pytest.approx(1.0 / 1.2, abs=1e-15)

    def test_symmetric_complement(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p = float(rng.uniform(0.1, 80.0))
            t = thresholds(ChannelConfig(p, p), LOAD_II)
            assert t.w1 == pytest.approx(1.0 - t.w2, abs=1e-14)

    def test_w1_below_w2_always(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            cfg, load = random_instance(rng)
            t = thresholds(cfg, load)
            assert 0.0 < t.w1 < t.w2 < 1.0


class TestObjective:
    def test_reference_values(self):
        a, b = corner_points(CFG33)
        assert objective_d(CFG33, LOAD_II, 2, 0.5, a) == pytest.approx(
            VALUE_W05_II, abs=1e-14
        )
        assert objective_d(CFG33, LOAD_II, 1, 0.5, b) == pytest.approx(
            VALUE_W05_II, abs=1e-14
        )

    def test_w0_collapses_to_d2(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            cfg, load = random_instance(rng)
            r = _random_branch_point(rng, cfg, load, 1)
            d = map_rate_to_ct(cfg, load, 1, r)
            assert objective_d(cfg, load, 1, 0.0, r) == pytest.approx(d.d2, rel=1e-12)

    def test_matches_mapped_point_weighted_sum(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            cfg, load = random_instance(rng)
            branch = int(rng.integers(1, 3))
            w = float(rng.uniform(0.0, 1.0))
            r = _random_branch_point(rng, cfg, load, branch)
            d = map_rate_to_ct(cfg, load, branch, r)
            expected = w * d.d1 + (1.0 - w) * d.d2
            assert objective_d(cfg, load, branch, w, r) == pytest.approx(
                expected, rel=1e-12
            )

    @pytest.mark.parametrize("rate, violated", [
        ((0.9, 0.9), "sum_rate violated"),
        ((1.5, 0.1), "single_user_1 violated by 0.5, sum_rate violated"),
    ])
    @pytest.mark.parametrize("branch", [1, 2])
    def test_rate_point_outside_the_pentagon_refused(self, branch, rate, violated):
        # Mapped, (0.9, 0.9) would give (1.111, 1.111), below the minimax time CBAR_II.
        r = RatePair(*rate)
        with pytest.raises(InfeasibleError, match=f"c=1 is infeasible: {violated}"):
            map_rate_to_ct(CFG33, LOAD_II, branch, r)
        with pytest.raises(InfeasibleError, match=f"c=1 is infeasible: {violated}"):
            objective_d(CFG33, LOAD_II, branch, 0.5, r)

    def test_underflowing_product_keeps_the_objective(self):
        # g2*r1 underflows to 0 at this point C although the objective is finite; grouped as the
        # late time, it is w*d1 + (1-w)*d2 of the mapped point.
        cfg = ChannelConfig(1.1394446704163363e38, 1.1481552851831791e-26)
        load = TrafficLoad(5.652018969684346e-186, 8.353672923777755e99)
        c = point_c(cfg, load)
        d = map_rate_to_ct(cfg, load, 1, c)
        value = objective_d(cfg, load, 1, 0.3, c)
        assert value == 0.3 * d.d1 + 0.7 * d.d2 == 1.0086309594461123e126

    def test_zero_divisor_and_bad_weight(self):
        with pytest.raises(ValueError):
            objective_d(CFG33, LOAD_II, 1, 0.5, RatePair(0.0, 0.5))
        with pytest.raises(ValueError):
            objective_d(CFG33, LOAD_II, 1, 1.5, RatePair(0.5, 0.5))


class TestSubregion:
    def test_case_ii_branch1_cells(self):
        low = minimize_subregion(CFG33, LOAD_II, 1, 0.1)
        assert low.rate_point_label == "C"
        assert low.optimizer_point.as_tuple() == pytest.approx(
            (CBAR_II, CBAR_II), rel=1e-14
        )
        assert low.optimal_value == pytest.approx(CBAR_II, rel=1e-14)
        high = minimize_subregion(CFG33, LOAD_II, 1, 0.5)
        assert high.rate_point_label == "B"
        assert high.optimizer_point.as_tuple() == pytest.approx(BBARP_II, rel=1e-14)
        assert high.optimal_value == pytest.approx(VALUE_W05_II, rel=1e-14)

    def test_case_i_branch1_always_c(self):
        for w in (0.0, 0.3, W1_33, 0.9, 1.0):
            out = minimize_subregion(CFG33, LOAD_I, 1, w)
            assert out.rate_point_label == "C"
            assert out.optimizer_point.as_tuple() == pytest.approx((1.0, 1.0), abs=1e-14)
            assert out.optimal_value == pytest.approx(1.0, abs=1e-14)
            assert not out.tie  # both table cells are the same point

    def test_threshold_weight_returns_closed_cell_and_flags_tie(self):
        t = thresholds(CFG33, LOAD_II)
        out = minimize_subregion(CFG33, LOAD_II, 1, t.w1)
        assert out.rate_point_label == "C"
        assert out.tie

    def test_value_never_beats_feasible_points(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            cfg, load = random_instance(rng)
            branch = int(rng.integers(1, 3))
            w = float(rng.uniform(0.0, 1.0))
            solution = minimize_subregion(cfg, load, branch, w)
            r = _random_branch_point(rng, cfg, load, branch)
            assert solution.optimal_value <= objective_d(cfg, load, branch, w, r) + 1e-9

    def test_matches_branch_restricted_grid_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(12):
            cfg, load = random_instance(rng)
            lo = 0.9 * min(load.tau1 / gamma(cfg.p1), load.tau2 / gamma(cfg.p2))
            hi = 4.0 * max(
                load.tau1 / gamma(cfg.p1),
                load.tau2 / gamma(cfg.p2),
                (load.tau1 + load.tau2) / gamma(cfg.p1 + cfg.p2),
            )
            axis = np.linspace(lo, hi, 601)
            mask = ct_contains_grid(cfg, load, axis[:, None], axis[None, :])
            step = axis[1] - axis[0]
            for branch, side in ((1, axis[:, None] <= axis[None, :]),
                                 (2, axis[:, None] >= axis[None, :])):
                w = float(rng.uniform(0.0, 1.0))
                closed = minimize_subregion(cfg, load, branch, w).optimal_value
                objective = np.where(
                    mask & side,
                    w * axis[:, None] + (1 - w) * axis[None, :],
                    np.inf,
                )
                oracle = float(objective.min())
                gap = max(w, 1 - w) * step * np.sqrt(2.0)
                assert closed <= oracle + 1e-9
                assert closed >= oracle - gap


class TestFullRegion:
    def test_case_ii_reference_weights(self):
        out = minimize_weighted_sum(CFG33, LOAD_II, 0.2)
        assert out.optimal_value == pytest.approx(VALUE_W02_II, rel=1e-14)
        assert out.optimizer_point.as_tuple() == pytest.approx(ABAR_II, rel=1e-14)
        assert (out.branch, out.rate_point_label) == (2, "A")

        mirrored = minimize_weighted_sum(CFG33, LOAD_II, 0.8)
        assert mirrored.optimal_value == pytest.approx(VALUE_W02_II, rel=1e-14)
        assert mirrored.optimizer_point.as_tuple() == pytest.approx(BBARP_II, rel=1e-14)
        assert (mirrored.branch, mirrored.rate_point_label) == (1, "B")

    def test_tie_at_w3(self):
        out = minimize_weighted_sum(CFG33, LOAD_II, 0.5)
        assert out.tie
        assert out.optimal_value == pytest.approx(VALUE_W05_II, rel=1e-14)
        assert out.optimizer_point.as_tuple() == pytest.approx(ABAR_II, rel=1e-14)

    def test_equals_best_subregion(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            cfg, load = random_instance(rng)
            w = float(rng.uniform(0.0, 1.0))
            full = minimize_weighted_sum(cfg, load, w)
            best = min(
                minimize_subregion(cfg, load, 1, w).optimal_value,
                minimize_subregion(cfg, load, 2, w).optimal_value,
            )
            assert full.optimal_value == pytest.approx(best, rel=1e-12)

    def test_value_concave_in_weight(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            cfg, load = random_instance(rng)
            wa, wb = sorted(rng.uniform(0.0, 1.0, size=2))
            mid = 0.5 * (wa + wb)
            va = minimize_weighted_sum(cfg, load, wa).optimal_value
            vb = minimize_weighted_sum(cfg, load, wb).optimal_value
            vm = minimize_weighted_sum(cfg, load, mid).optimal_value
            assert vm >= 0.5 * (va + vb) - 1e-12 * max(1.0, vm)

    def test_optimizers_are_boundary_members(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            cfg, load = random_instance(rng)
            w = float(rng.uniform(0.0, 1.0))
            out = minimize_weighted_sum(cfg, load, w)
            assert ct_contains(cfg, load, out.optimizer_point)
            assert min(ct_slacks(cfg, load, out.optimizer_point).values()) <= EPS_MEM

    def test_weights_outside_unit_interval_rejected(self):
        for w in (-0.1, 1.0000001, math.nan):
            with pytest.raises(ValueError):
                minimize_weighted_sum(CFG33, LOAD_II, w)


class TestMinimax:
    def test_reference_values(self):
        value, point = minimax(CFG33, LOAD_II)
        assert value == pytest.approx(CBAR_II, rel=1e-14)
        assert point.as_tuple() == pytest.approx((CBAR_II, CBAR_II), rel=1e-14)
        assert minimax(CFG33, LOAD_I)[0] == pytest.approx(CBAR_I, abs=1e-14)
        assert minimax(CFG33, LOAD_III)[0] == pytest.approx(CBAR_III, abs=1e-14)

    def test_equal_components_and_pinned_boundary(self):
        # The diagonal shrink always leaves the region (that is optimality);
        # a one-sided shrink leaves it only when it cuts the binding floor,
        # which is d1 in Case I, d2 in Case III and both in Case II.
        rng = np.random.default_rng(29)
        for _ in range(100):
            cfg, load = random_instance(rng)
            case = classify_case(cfg, load)
            value, point = minimax(cfg, load)
            assert abs(point.d1 - point.d2) <= 1e-12 * value
            assert ct_contains(cfg, load, point)
            diagonal = CompletionTimePair(point.d1 * (1 - 1e-6), point.d2 * (1 - 1e-6))
            assert not ct_contains(cfg, load, diagonal)
            shrunk1 = CompletionTimePair(point.d1 * (1 - 1e-6), point.d2)
            shrunk2 = CompletionTimePair(point.d1, point.d2 * (1 - 1e-6))
            if case in (Case.I, Case.II):
                assert not ct_contains(cfg, load, shrunk1)
            if case in (Case.II, Case.III):
                assert not ct_contains(cfg, load, shrunk2)

    def test_value_is_max_component(self):
        for _, cfg, load in REFERENCE_INSTANCES:
            value, point = minimax(cfg, load)
            assert value == pytest.approx(max(point.d1, point.d2), rel=1e-14)

    def test_value_equals_both_coordinates_exactly(self):
        # Moderate domain, log-uniform: p in [1e-2, 1e4], tau in [1e-2, 1e2].
        rng = np.random.default_rng(41)
        seen = set()
        for _ in range(2000):
            p1, p2 = 10.0 ** rng.uniform(-2.0, 4.0, size=2)
            tau1, tau2 = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
            cfg, load = ChannelConfig(float(p1), float(p2)), TrafficLoad(float(tau1), float(tau2))
            value, point = minimax(cfg, load)
            seen.add(classify_case(cfg, load))
            assert value == point.d1 == point.d2, (cfg, load)
        assert seen == set(Case)


# The paper's optimum tables, literally.  Sub-region rows per (case, branch)
# and full-region rows per case: (cell for w up to the threshold, cell above
# it, threshold), a cell being (branch, rate point label).
SUBREGION_TABLE = {
    ("I", 1): ((1, "C"), (1, "C"), "w1"),
    ("I", 2): ((2, "A"), (2, "B"), "w2"),
    ("II", 1): ((1, "C"), (1, "B"), "w1"),
    ("II", 2): ((2, "A"), (2, "C"), "w2"),
    ("III", 1): ((1, "A"), (1, "B"), "w1"),
    ("III", 2): ((2, "C"), (2, "C"), "w2"),
}
FULL_TABLE = {
    "I": ((2, "A"), (2, "B"), "w2"),
    "II": ((2, "A"), (1, "B"), "w3"),
    "III": ((1, "A"), (1, "B"), "w1"),
}


@pytest.mark.parametrize("name, cfg, load", REFERENCE_INSTANCES)
def test_optimum_tables_pinned_literally(name, cfg, load):
    t = thresholds(cfg, load)

    def check_row(row, solve):
        low, high, threshold = row
        w = getattr(t, threshold)
        for weight, cell in ((0.0, low), (0.5 * w, low), (w, low),
                             (0.5 * (1.0 + w), high), (1.0, high)):
            out = solve(weight)
            assert (out.branch, out.rate_point_label) == cell, (name, row, weight)

    for branch in (1, 2):
        check_row(SUBREGION_TABLE[name, branch], partial(minimize_subregion, cfg, load, branch))
    check_row(FULL_TABLE[name], partial(minimize_weighted_sum, cfg, load))


@pytest.mark.parametrize("name, cfg, load", REFERENCE_INSTANCES)
def test_tie_label_and_branch_are_the_same_for_the_load_times_a_power_of_two(name, cfg, load):
    # Values and points scale with the load, so at every threshold each solver picks the same
    # cell and flags the same tie for tau times 2**k.
    t = thresholds(cfg, load)
    for w in (t.w1, t.w2, t.w3):
        cells = set()
        for k in (-60, 0, 40):
            scaled = TrafficLoad(math.ldexp(load.tau1, k), math.ldexp(load.tau2, k))
            outs = (minimize_weighted_sum(cfg, scaled, w),
                    *(minimize_subregion(cfg, scaled, branch, w) for branch in (1, 2)))
            cells.add(tuple((out.tie, out.rate_point_label, out.branch) for out in outs))
        assert len(cells) == 1, (name, w, cells)


def test_case_boundary_instances_self_check():
    g1, g12 = gamma(3.0), gamma(6.0)
    # exactly on the I/II boundary: both case formulas must agree
    load = TrafficLoad(g1, g12 - g1)
    value, point = minimax(CFG33, load)
    assert value == pytest.approx(1.0, rel=1e-12)
    for w in (0.0, 0.3, 0.7, 1.0):
        out = minimize_weighted_sum(CFG33, load, w)
        assert ct_contains(CFG33, load, out.optimizer_point)


def _swap_cells(monkeypatch, case):
    """Perturb one case's weighted-sum row: at w = 0 it picks its other cell."""
    import macct.optimize as optimize

    low, high, threshold = optimize._FULL_ROWS[case]
    monkeypatch.setitem(optimize._FULL_ROWS, case, (high, low, threshold))


def test_case_boundary_disagreement_raises(monkeypatch):
    g1, g12 = gamma(3.0), gamma(6.0)
    want = minimize_weighted_sum(CFG33, LOAD_I, 0.0)
    _swap_cells(monkeypatch, Case.II)
    assert minimize_weighted_sum(CFG33, LOAD_I, 0.0) == want  # off every boundary
    with pytest.raises(ConsistencyError, match="disagrees across the case boundary"):
        minimize_weighted_sum(CFG33, TrafficLoad(g1, g12 - g1), 0.0)  # on the I/II boundary


@pytest.mark.parametrize("side, perturbed_case", [(1, Case.I), (3, Case.III)])
def test_case_ii_load_is_cross_checked_against_the_case_across_the_boundary(
    monkeypatch, side, perturbed_case
):
    # A Case II load within 1e-12 of a boundary is checked against Case I or
    # Case III, not against Case II itself.
    import macct.optimize as optimize
    from macct.capacity import _gammas
    from macct.ctregion import _equal_time

    g = _gammas(CFG33)
    g1, g2, g12 = g[:3]
    if side == 1:  # just above the I/II boundary ratio (g12 - g1)/g1
        load = TrafficLoad(1.0, (g12 - g1) / g1 * (1.0 + 1e-13))
    else:  # just below the II/III boundary ratio g2/(g12 - g2)
        load = TrafficLoad((g12 - g2) / g2 * (1.0 + 1e-13), 1.0)
    t, case, adjacent, _ = _equal_time(g, load)
    assert (case, adjacent) == (Case.II, perturbed_case)
    value, want_ii = (minimize_weighted_sum(CFG33, x, 0.0) for x in (load, LOAD_II))
    adjacent_row = optimize._FULL_ROWS[perturbed_case]
    assert value.optimal_value == pytest.approx(
        optimize._solve(g, load, 0.0, t, adjacent_row).optimal_value, rel=1e-12)
    _swap_cells(monkeypatch, perturbed_case)
    with pytest.raises(ConsistencyError, match="disagrees across the case boundary"):
        minimize_weighted_sum(CFG33, load, 0.0)
    assert minimize_weighted_sum(CFG33, LOAD_II, 0.0) == want_ii


def _random_branch_point(rng, cfg, load, branch):
    """Random pentagon-feasible point on the branch's side of the demand ray."""
    c = point_c(cfg, load)
    anchor = point_c(cfg, load)
    if branch == 1:
        # mix of C with a point below the ray (corner B direction), scaled inward
        other = corner_points(cfg)[1]
        if other.r2 * load.tau1 > other.r1 * load.tau2:  # B above ray: fall back to axis
            other = RatePair(gamma(cfg.p1), 0.0)
    else:
        other = corner_points(cfg)[0]
        if other.r2 * load.tau1 < other.r1 * load.tau2:  # A below ray: use r2 axis point
            other = RatePair(0.0, gamma(cfg.p2))
    t = float(rng.uniform(0.0, 1.0))
    scale = float(rng.uniform(0.2, 1.0))
    r1 = scale * (t * anchor.r1 + (1 - t) * other.r1)
    r2 = scale * (t * anchor.r2 + (1 - t) * other.r2)
    if branch == 1:
        r1 = max(r1, 1e-6)
    else:
        r2 = max(r2, 1e-6)
    return RatePair(r1, r2)


def _seeded_instances(count=40, seed=12):
    """Log-uniform instances of every case, each also with its load moved exactly
    onto the I/II and the II/III boundary."""
    rng = np.random.default_rng(seed)
    instances = []
    for p1, p2, tau1, tau2 in np.exp(rng.uniform(np.log(1e-2), np.log(1e2), (count, 4))):
        cfg = ChannelConfig(float(p1 * 100.0), float(p2 * 100.0))
        g1, g2, g12 = gamma(cfg.p1), gamma(cfg.p2), gamma(cfg.p1 + cfg.p2)
        tau1 = float(tau1)
        for load in (TrafficLoad(tau1, float(tau2)), TrafficLoad(tau1, tau1 * (g12 - g1) / g1),
                     TrafficLoad(tau1, tau1 * g2 / (g12 - g2))):
            instances.append((cfg, load))
    return instances


class TestOneDerivationPerCall:
    """Each closed-form call derives its gamma triple and case once and reads
    every other fact of the instance from them."""

    @pytest.fixture
    def gamma_calls(self, monkeypatch):
        import macct.capacity as capacity
        import macct.ctregion as ctregion
        import macct.optimize as optimize

        calls = []
        real = capacity.gamma
        for module in (capacity, ctregion, optimize):
            monkeypatch.setattr(module, "gamma", lambda x: calls.append(x) or real(x))
        return calls

    @pytest.mark.parametrize(
        "call",
        [
            partial(build_region, CFG33, LOAD_II),
            partial(minimax, CFG33, LOAD_II),
            partial(minimize_weighted_sum, CFG33, LOAD_II, 0.2),
        ],
        ids=["build_region", "minimax", "minimize_weighted_sum"],
    )
    def test_one_gamma_triple_per_call(self, gamma_calls, call):
        call()
        assert len(gamma_calls) == 3

    def test_instances_cover_every_case(self):
        assert {classify_case(cfg, load) for cfg, load in _seeded_instances()} == set(Case)

    @pytest.mark.parametrize("cfg, load", _seeded_instances())
    def test_parts_equal_their_standalone_derivations(self, cfg, load):
        cbar = equal_time_vertex(cfg, load)
        floors = outer_bound(cfg, load).halfplanes
        desc = build_region(cfg, load)
        assert desc.piece_d1.vertices[-1] == desc.piece_d2.vertices[0] == ("Cbar", cbar.as_tuple())
        assert desc.piece_d1.halfplanes[:2] == desc.piece_d2.halfplanes[:2] == floors
        assert minimax(cfg, load)[1] == cbar


class TestOneObjectPerResult:
    """The closed forms work on float pairs and build a value object only for a
    point they return."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Calls of each value type's `__init__`, by class name."""
        counts = dict.fromkeys(("CompletionTimePair", "RatePair", "Phase"), 0)
        for cls in (CompletionTimePair, RatePair, Phase):
            real = cls.__init__

            def counting(obj, *args, _real=real, _name=cls.__name__, **kwargs):
                counts[_name] += 1
                _real(obj, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return counts

    @pytest.mark.parametrize("cfg, load", _seeded_instances(count=8))
    def test_build_region_builds_no_pair(self, built, cfg, load):
        build_region(cfg, load)
        assert built["CompletionTimePair"] == 0

    @pytest.mark.parametrize("cfg, load", _seeded_instances(count=8))
    def test_minimax_builds_its_vertex(self, built, cfg, load):
        minimax(cfg, load)
        assert built["CompletionTimePair"] == 1

    @pytest.mark.parametrize("cfg, load", _seeded_instances(count=8)[::3])  # off the boundaries
    @pytest.mark.parametrize("w", [0.0, 0.2, 0.5, 0.9, 1.0])
    def test_weighted_optimum_builds_its_point(self, built, cfg, load, w):
        minimize_weighted_sum(cfg, load, w)
        assert built["CompletionTimePair"] == 1

    @pytest.mark.parametrize("d", [(1.2, 1.8), (1.8, 1.2), (1.5, 1.5), (ABAR_II[0], 1.0)])
    def test_synthesize_builds_one_rate_pair_per_phase(self, built, d):
        plan = synthesize(CFG33, LOAD_II, CompletionTimePair(*d))
        assert built["RatePair"] == built["Phase"] == len(plan.phases)
