import math

import numpy as np
import pytest

from macct import (
    EPS_MEM,
    Case,
    ChannelConfig,
    CompletionTimePair,
    ConstrainedRateQuery,
    InfeasibleError,
    Phase,
    RatePair,
    Schedule,
    TrafficLoad,
    boundary_polyline,
    build_region,
    classify_case,
    constrained_contains,
    constrained_slacks,
    corner_points,
    ct_contains,
    ct_contains_grid,
    ct_slacks,
    decompose_rate,
    equal_time_vertex,
    gamma,
    map_rate_to_ct,
    minimize_subregion,
    minimize_weighted_sum,
    outer_bound,
    point_c,
    region_contains,
    synthesize,
    validate,
)
from refvals import (
    ABAR_I,
    ABAR_II,
    ABARP_III,
    BBAR_I,
    BBARP_II,
    BBARP_III,
    CBAR_II,
    CFG33,
    DOMAINS,
    LOAD_I,
    LOAD_II,
    LOAD_III,
    REFERENCE_INSTANCES,
    late_rates,
    log_uniform_instances,
    random_instance,
    sample_members,
)


class TestClassification:
    def test_reference_instances(self):
        assert classify_case(CFG33, LOAD_I) is Case.I
        assert classify_case(CFG33, LOAD_II) is Case.II
        assert classify_case(CFG33, LOAD_III) is Case.III

    def test_boundary_ties_resolve_outward(self):
        g1, g2 = gamma(3.0), gamma(3.0)
        g12 = gamma(6.0)
        # loads chosen so the cross-multiplied comparison is exact in floats
        assert classify_case(CFG33, TrafficLoad(g1, g12 - g1)) is Case.I
        assert classify_case(CFG33, TrafficLoad(g12 - g2, g2)) is Case.III

    def test_total_over_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            cfg, load = random_instance(rng)
            assert classify_case(cfg, load) in (Case.I, Case.II, Case.III)


class TestPointC:
    def test_reference_values(self):
        assert point_c(CFG33, LOAD_II).as_tuple() == pytest.approx(
            (0.701838730514401, 0.701838730514401), abs=1e-14
        )
        assert point_c(CFG33, LOAD_I).as_tuple() == pytest.approx((1.0, 0.2), abs=1e-15)
        assert point_c(CFG33, LOAD_III).as_tuple() == pytest.approx((0.2, 1.0), abs=1e-15)

    def test_case_formulas_agree_on_boundary(self):
        # On the I/II boundary and a relative 1e-13 to either side of it, C is read off the
        # Case I face on one side and the sum face on the other; both give corner B.
        g1, g12 = gamma(3.0), gamma(6.0)
        b = corner_points(CFG33)[1].as_tuple()
        by_case = {}
        for nudge in (1.0 - 1e-13, 1.0, 1.0 + 1e-13):
            load = TrafficLoad(g1, (g12 - g1) * nudge)
            c = point_c(CFG33, load).as_tuple()
            by_case.setdefault(classify_case(CFG33, load), c)
            assert c == pytest.approx(b, rel=1e-12)
        assert set(by_case) == {Case.I, Case.II}
        assert by_case[Case.I] == pytest.approx(by_case[Case.II], rel=1e-12)

    def test_on_demand_ray(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            cfg, load = random_instance(rng)
            c = point_c(cfg, load)
            assert c.r2 * load.tau1 == pytest.approx(c.r1 * load.tau2, rel=1e-12)


class TestRateToTimeMaps:
    def test_case_ii_images(self):
        c = point_c(CFG33, LOAD_II)
        d = map_rate_to_ct(CFG33, LOAD_II, 1, c)
        assert d.as_tuple() == pytest.approx((CBAR_II, CBAR_II), rel=1e-14)
        a, b = corner_points(CFG33)
        assert map_rate_to_ct(CFG33, LOAD_II, 2, a).as_tuple() == pytest.approx(
            ABAR_II, rel=1e-14
        )
        assert map_rate_to_ct(CFG33, LOAD_II, 1, b).as_tuple() == pytest.approx(
            BBARP_II, rel=1e-14
        )

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            map_rate_to_ct(CFG33, LOAD_II, 1, RatePair(0.0, 0.5))
        with pytest.raises(ValueError):
            map_rate_to_ct(CFG33, LOAD_II, 2, RatePair(0.5, 0.0))

    def test_branches_agree_on_ray(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            cfg, load = random_instance(rng)
            scale = rng.uniform(0.1, 1.0)
            c = point_c(cfg, load)
            r = RatePair(scale * c.r1, scale * c.r2)
            d1 = map_rate_to_ct(cfg, load, 1, r)
            d2 = map_rate_to_ct(cfg, load, 2, r)
            assert abs(d1.d1 - d1.d2) <= 1e-10 * max(1.0, d1.d1)
            assert abs(d2.d1 - d2.d2) <= 1e-10 * max(1.0, d2.d1)
            assert d1.d1 == pytest.approx(d2.d1, rel=1e-12)


class TestMembership:
    def test_examples(self):
        assert ct_contains(CFG33, LOAD_II, CompletionTimePair(*ABAR_II))
        slacks = ct_slacks(CFG33, LOAD_II, CompletionTimePair(*ABAR_II))
        assert abs(slacks["sum_rate"]) <= 1e-12
        assert not ct_contains(CFG33, LOAD_II, CompletionTimePair(1.3, 1.3))
        assert ct_contains(CFG33, LOAD_II, CompletionTimePair(10.0, 10.0))

    def test_grid_variant_matches_scalar(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            cfg, load = random_instance(rng)
            d1 = rng.uniform(0.05, 6.0, size=300)
            d2 = rng.uniform(0.05, 6.0, size=300)
            got = ct_contains_grid(cfg, load, d1, d2)
            expected = [
                ct_contains(cfg, load, CompletionTimePair(a, b)) for a, b in zip(d1, d2)
            ]
            assert got.tolist() == expected

    def test_grid_slacks_equal_scalar_slacks_on_both_sides_of_equal_times(self):
        # Grid and scalar verdicts agree on d1 < d2, d1 > d2 and d1 == d2, and
        # each of the grid's three time-space masks says what the sign of its
        # rate-space slack in `ct_slacks` says, clear of the tolerance edge.
        from macct.capacity import _gammas
        from macct.constrained import _tests

        rng = np.random.default_rng(9)
        for _ in range(20):
            cfg, load = random_instance(rng)
            d1 = rng.uniform(0.05, 6.0, size=300)
            d2 = np.concatenate([rng.uniform(0.05, 6.0, size=200), d1[200:]])  # d1 == d2
            masks = _tests(_gammas(cfg), load.tau1, load.tau2, d1, d2, EPS_MEM)
            assert ct_contains_grid(cfg, load, d1, d2).tolist() == [
                ct_contains(cfg, load, CompletionTimePair(a, b)) for a, b in zip(d1, d2)
            ]
            for k, (a, b) in enumerate(zip(d1, d2)):
                scalar = ct_slacks(cfg, load, CompletionTimePair(a, b))
                assert all(type(s) is float for s in scalar.values())
                for mask, s in zip(masks, scalar.values()):
                    if abs(s + EPS_MEM) > 1e-12:
                        assert bool(mask[k]) == (s >= -EPS_MEM), (cfg, load, a, b, scalar)

    def test_float_path_matches_query_objects(self):
        # The rate-space witness: `ct_contains` and `ct_slacks` read the time-space sides of
        # (d1, d2); wherever a `ConstrainedRateQuery` of (tau1/d1, tau2/d2) at c = d1/d2 is
        # accepted, `constrained_contains` gives the same verdict at `EPS_MEM` and
        # `constrained_slacks` the same slacks up to rounding, on the moderate domain and on
        # p in [1e-4, 1e6], tau in [1e-4, 1e4].  `synthesize` splits the late finisher's bits in
        # time as `decompose_rate` splits its rate, and refuses the same pairs, naming the same
        # constraints.  Pairs the query refuses (c out of its range, an infinite rate) still get
        # slacks, whose signs are the verdict at tol 0.
        import re

        def outcome(fn):
            try:
                return fn()
            except ValueError as exc:
                return exc

        def named(exc):
            return re.findall(r"(\w+) violated by", str(exc))

        rng = np.random.default_rng(47)
        refused = set()
        domains = [(1e-2, 1e4, 1e-2, 1e2)] * 150 + [(1e-4, 1e6, 1e-4, 1e4)] * 150
        for p_lo, p_hi, tau_lo, tau_hi in domains:
            p1, p2 = np.exp(rng.uniform(np.log(p_lo), np.log(p_hi), 2))
            tau1, tau2 = np.exp(rng.uniform(np.log(tau_lo), np.log(tau_hi), 2))
            cfg, load = ChannelConfig(float(p1), float(p2)), TrafficLoad(float(tau1), float(tau2))
            floor1, floor2 = tau1 / gamma(p1), tau2 / gamma(p2)
            t_sum = (tau1 + tau2) / gamma(p1 + p2)  # (t_sum, t_sum) sits on the sum face
            pairs = [(floor1 * a, floor2 * b) for a, b in np.exp(rng.uniform(-0.2, 1.5, (12, 2)))]
            pairs += [(t_sum * f, t_sum * f) for f in (1 - 1e-9, 1.0, 1 + 1e-9, 1.01)]
            # c above and below its range, c underflowing to 0, and r1 overflowing
            pairs += [(1e13, 1.0), (1.0, 1e13), (1e-300, 1.0), (1e-300, 1e300), (5e-324, 1.0)]
            for d in (CompletionTimePair(float(x), float(y)) for x, y in pairs):
                member = ct_contains(cfg, load, d)
                assert type(member) is bool
                slacks = ct_slacks(cfg, load, d)
                assert all(type(s) is float for s in slacks.values())
                plan = outcome(lambda: synthesize(cfg, load, d))
                assert isinstance(plan, Schedule) == member, (cfg, load, d, plan)
                if member:
                    assert validate(cfg, load, plan).ok, (cfg, load, d)
                else:
                    assert type(plan) is InfeasibleError and named(plan), (cfg, load, d, plan)
                query = outcome(lambda: ConstrainedRateQuery(
                    RatePair(load.tau1 / d.d1, load.tau2 / d.d2), d.d1 / d.d2))
                if isinstance(query, ValueError):  # the rate-space view refuses d
                    assert ct_contains(cfg, load, d, 0.0) == (min(slacks.values()) >= 0.0)
                    refused.add((str(query).split(",")[0], member))
                    continue
                assert member == constrained_contains(cfg, query), (cfg, load, d)
                for name, s in constrained_slacks(cfg, query).items():
                    assert abs(slacks[name] - s) <= 1e-12 + 1e-9 * abs(s), (cfg, load, d, name)
                dec = outcome(lambda: decompose_rate(cfg, query))
                if not member:
                    assert named(dec) == named(plan), (cfg, load, d, dec, plan)
                    continue
                late = dec.solo_user - 1
                shared = list(query.rates.as_tuple())
                shared[late] = dec.shared_phase_rate
                assert plan.phases[0].rates.as_tuple() == pytest.approx(shared, rel=0, abs=1e-11)
                if len(plan.phases) == 2:
                    solo = plan.phases[1]
                    assert solo.active_users == {late + 1}
                    assert solo.rates.as_tuple()[late] == pytest.approx(
                        dec.solo_phase_rate, rel=0, abs=1e-11)
                # The query's own reading, the bits (c*r1, r2) over the times (c, 1), splits
                # them bit for bit as `decompose_rate` does.
                c, (r1, r2) = query.c, query.rates.as_tuple()
                reading = synthesize(cfg, TrafficLoad(c * r1, r2), CompletionTimePair(c, 1.0))
                split = (dec.shared_phase_rate, dec.solo_phase_rate, dec.solo_user)
                assert late_rates(reading) == split
        messages = {message for message, _ in refused}
        assert {"r1 must be finite", "c must be a positive finite ratio"} <= messages
        assert any(m.startswith("c=") and "outside the well-conditioned range" in m
                   for m in messages)
        assert {True, False} <= {member for _, member in refused}

    @pytest.mark.parametrize("d, user", [
        ((5e-324, 1.0), 1), ((1e-310, 1e-300), 1), ((1.0, 5e-324), 2),
    ])
    def test_rate_overflow_is_below_the_solo_floor(self, d, user):
        # tau_i/d_i overflows to inf: d_i lies below user i's solo floor, so the
        # pair is outside the region, whatever c is.
        cfg, load, d = ChannelConfig(3.0, 3.0), TrafficLoad(1.0, 1.0), CompletionTimePair(*d)
        assert ct_contains(cfg, load, d) is False
        assert ct_contains(cfg, load, d, 0.0) is False
        with pytest.raises(InfeasibleError, match=f"single_user_{user} violated by inf"):
            synthesize(cfg, load, d)
        report = validate(cfg, load, Schedule((), d))
        assert report.violations[-1].endswith("is not in the region")
        # the slack report has the infinite lack of rate
        assert ct_slacks(cfg, load, d)[f"single_user_{user}"] == -np.inf

    def test_slacks_are_exact_under_user_swap_and_power_of_two_scaling(self):
        # Each slack is a difference of products over a time: swapping the users swaps the
        # solo floors and the two sum faces (at d1 == d2 the larger face is taken), and scaling
        # the load and the times by 2**k scales both sides and the time alike.
        rng = np.random.default_rng(5)
        for domain in ("moderate", "wide"):
            for cfg, load in log_uniform_instances(rng, domain, 200):
                floor1, floor2 = load.tau1 / gamma(cfg.p1), load.tau2 / gamma(cfg.p2)
                pairs = [(floor1 * a, floor2 * b) for a, b in np.exp(rng.uniform(-0.2, 1.5, (4, 2)))]
                pairs.append((max(floor1, floor2),) * 2)
                for d1, d2 in pairs:
                    d1, d2 = float(d1), float(d2)
                    s1, s2, s3 = ct_slacks(cfg, load, CompletionTimePair(d1, d2)).values()
                    mirror = ct_slacks(ChannelConfig(cfg.p2, cfg.p1),
                                       TrafficLoad(load.tau2, load.tau1),
                                       CompletionTimePair(d2, d1))
                    assert tuple(mirror.values()) == (s2, s1, s3), (cfg, load, d1, d2)
                    for k in (-60, 40):
                        scaled = ct_slacks(
                            cfg, TrafficLoad(math.ldexp(load.tau1, k), math.ldexp(load.tau2, k)),
                            CompletionTimePair(math.ldexp(d1, k), math.ldexp(d2, k)))
                        assert tuple(scaled.values()) == (s1, s2, s3), (cfg, load, d1, d2, k)

    def test_scaling_law(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            cfg, load = random_instance(rng)
            lam = float(rng.uniform(0.2, 5.0))
            scaled = TrafficLoad(lam * load.tau1, lam * load.tau2)
            before = build_region(cfg, load)
            after = build_region(cfg, scaled)
            for (_, piece_a), (_, piece_b) in zip(before.pieces, after.pieces):
                for (la, (xa, ya)), (lb, (xb, yb)) in zip(piece_a.vertices, piece_b.vertices):
                    assert la == lb
                    assert xb == pytest.approx(lam * xa, rel=1e-12)
                    assert yb == pytest.approx(lam * ya, rel=1e-12)

    @pytest.mark.parametrize("scale", [100.0, 1e4, 1e6])
    def test_tie_flags_follow_the_scaling_law(self, scale):
        # The region scales with the load, so the optima's tie flags do not
        # change with it, here on a load within 1e-13 of the I/II boundary.
        g1, g12 = gamma(3.0), gamma(6.0)
        ratio = (g12 - g1) / g1 * (1.0 + 1e-13)
        base, scaled = TrafficLoad(1.0, ratio), TrafficLoad(scale, scale * ratio)
        for w in (0.0, 0.3, 0.5, 0.9, 1.0):
            for branch in (1, 2):
                want = minimize_subregion(CFG33, base, branch, w)
                got = minimize_subregion(CFG33, scaled, branch, w)
                assert (got.tie, got.rate_point_label) == (want.tie, want.rate_point_label)
            assert minimize_weighted_sum(CFG33, scaled, w).tie == minimize_weighted_sum(
                CFG33, base, w).tie
        assert minimize_subregion(CFG33, scaled, 1, 0.5).tie is False


class TestRegionDescription:
    def test_case_ii_vertices(self):
        desc = build_region(CFG33, LOAD_II)
        assert desc.case is Case.II
        labels = {
            label: point for _, piece in desc.pieces for label, point in piece.vertices
        }
        assert labels["Abar"] == pytest.approx(ABAR_II, rel=1e-14)
        assert labels["Bbar'"] == pytest.approx(BBARP_II, rel=1e-14)
        assert labels["Cbar"] == pytest.approx((CBAR_II, CBAR_II), rel=1e-14)

    def test_case_i_wedge_has_no_sum_constraint(self):
        desc = build_region(CFG33, LOAD_I)
        assert desc.case is Case.I
        assert len(desc.piece_d1.halfplanes) == 3  # two floors and the ordering only
        labels = dict(desc.piece_d1.vertices)
        assert labels["Cbar"] == pytest.approx((1.0, 1.0), abs=1e-15)
        d2_labels = dict(desc.piece_d2.vertices)
        assert d2_labels["Abar"] == pytest.approx(ABAR_I, rel=1e-14)
        assert d2_labels["Bbar"] == pytest.approx(BBAR_I, rel=1e-14)

    def test_case_iii_mirror(self):
        desc = build_region(CFG33, LOAD_III)
        assert desc.case is Case.III
        assert len(desc.piece_d2.halfplanes) == 3
        labels = dict(desc.piece_d1.vertices)
        assert labels["Abar'"] == pytest.approx(ABARP_III, rel=1e-14)
        assert labels["Bbar'"] == pytest.approx(BBARP_III, rel=1e-14)

    def test_union_reading_of_case_ii(self):
        # member through the d1 >= d2 piece although it violates the other
        # piece's sum constraint: the region is a union, not an intersection
        desc = build_region(CFG33, LOAD_II)
        point = (1.9, 1.05)
        assert ct_contains(CFG33, LOAD_II, CompletionTimePair(*point))
        assert any(region_contains(piece, point) for _, piece in desc.pieces)
        d1_only = all(hp.slack(*point) >= -EPS_MEM for hp in desc.piece_d1.halfplanes)
        assert not d1_only

    def test_vertices_are_members_and_boundary_tight(self):
        rng = np.random.default_rng(12)
        instances = [random_instance(rng) for _ in range(30)] + [
            (cfg, load) for _, cfg, load in REFERENCE_INSTANCES
        ]
        for cfg, load in instances:
            desc = build_region(cfg, load)
            for _, piece in desc.pieces:
                for label, (x, y) in piece.vertices:
                    d = CompletionTimePair(x, y)
                    assert ct_contains(cfg, load, d), (label, x, y)
                    assert min(ct_slacks(cfg, load, d).values()) <= EPS_MEM

    def test_vertices_are_actual_corners(self):
        for _, cfg, load in REFERENCE_INSTANCES:
            desc = build_region(cfg, load)
            for _, piece in desc.pieces:
                for label, (x, y) in piece.vertices:
                    slacks = [hp.slack(x, y) for hp in piece.halfplanes]
                    assert all(s >= -EPS_MEM for s in slacks), label
                    assert sum(1 for s in slacks if abs(s) <= 1e-9 * max(1.0, x, y)) >= 2

    def test_union_membership_matches_definition_on_grid(self):
        rng = np.random.default_rng(13)
        for case in ("I", "II", "III"):
            for _ in range(3):
                cfg, load = random_instance(rng, case)
                desc = build_region(cfg, load)
                lo = 0.5 * min(load.tau1 / gamma(cfg.p1), load.tau2 / gamma(cfg.p2))
                hi = 4.0 * max(load.tau1 / gamma(cfg.p1), load.tau2 / gamma(cfg.p2))
                axis = np.linspace(lo, hi, 80)
                for x in axis:
                    for y in axis:
                        if _near_any_boundary(desc, x, y, 1e-6):
                            continue
                        expected = ct_contains(cfg, load, CompletionTimePair(x, y))
                        union = any(region_contains(piece, (x, y)) for _, piece in desc.pieces)
                        assert union == expected

    def test_piecewise_convexity(self):
        rng = np.random.default_rng(14)
        for _, cfg, load in REFERENCE_INSTANCES:
            for side in ("d1<=d2", "d1>=d2"):
                members = sample_members(rng, cfg, load, 40, side)
                for _ in range(60):
                    a, b = rng.choice(len(members), size=2)
                    alpha = float(rng.uniform(0.0, 1.0))
                    mid = CompletionTimePair(
                        alpha * members[a].d1 + (1 - alpha) * members[b].d1,
                        alpha * members[a].d2 + (1 - alpha) * members[b].d2,
                    )
                    assert ct_contains(cfg, load, mid)

    def test_non_convexity_witness_case_ii(self):
        mid = CompletionTimePair(
            0.5 * (ABAR_II[0] + BBARP_II[0]), 0.5 * (ABAR_II[1] + BBARP_II[1])
        )
        assert mid.d1 == pytest.approx(1.298161269485599, abs=1e-12)
        assert not ct_contains(CFG33, LOAD_II, mid)
        assert 2.0 / mid.d1 > gamma(6.0)


class TestOuterBound:
    def test_reference(self):
        bound = outer_bound(CFG33, LOAD_II)
        assert dict(bound.vertices)["corner"] == pytest.approx((1.0, 1.0), abs=1e-15)
        assert not region_contains(bound, (0.999, 5.0))

    def test_members_inside_outer_bound(self):
        rng = np.random.default_rng(15)
        for _, cfg, load in REFERENCE_INSTANCES:
            bound = outer_bound(cfg, load)
            for d in sample_members(rng, cfg, load, 150):
                assert region_contains(bound, d.as_tuple())


class TestBoundaryPolyline:
    def test_case_shapes(self):
        for (_, cfg, load), middle in zip(
            REFERENCE_INSTANCES,
            (["Cbar", "Bbar", "Abar"], ["Bbar'", "Cbar", "Abar"], ["Bbar'", "Abar'", "Cbar"]),
        ):
            desc = build_region(cfg, load)
            labels = {
                label: point for _, piece in desc.pieces for label, point in piece.vertices
            }
            polyline = boundary_polyline(cfg, load, 6.0, 6.0)
            assert len(polyline) == len(middle) + 2
            assert polyline[0][1] == 6.0 and polyline[-1][0] == 6.0
            for got, name in zip(polyline[1:-1], middle):
                assert got == pytest.approx(labels[name], rel=1e-14)

    def test_box_must_cover_vertices(self):
        with pytest.raises(ValueError):
            boundary_polyline(CFG33, LOAD_II, 1.2, 1.2)


def test_equal_time_vertex_matches_minimax_shape():
    rng = np.random.default_rng(16)
    for _ in range(50):
        cfg, load = random_instance(rng)
        v = equal_time_vertex(cfg, load)
        assert v.d1 == v.d2
        assert ct_contains(cfg, load, v)


def test_both_branch_maps_send_point_c_to_cbar():
    # The identity behind Cbar = (t, t), with t the largest c = 1 floor: point C's image on
    # either branch is (t, t).  A C coordinate whose product with a solo level is below the
    # normal range keeps fewer bits than that, so such extreme instances are skipped.
    import sys

    from macct.capacity import _gammas
    from macct.ctregion import _equal_time, _map_rate_to_ct

    rng = np.random.default_rng(3)
    for domain in DOMAINS:
        checked = 0
        for cfg, load in log_uniform_instances(rng, domain, 300):
            g = _gammas(cfg)
            t, _, _, c = _equal_time(g, load)
            if min(c) * min(g[0], g[1]) < sys.float_info.min:
                continue
            checked += 1
            for branch in (1, 2):
                for d in _map_rate_to_ct(g, load, branch, c):
                    assert abs(d - t) <= 4 * math.ulp(t), (domain, cfg, load, branch)
        assert checked >= 250, domain


def test_overflowing_image_refused_as_a_completion_time():
    # The branch-1 image of C, Cbar's own check, overflows before the solo floors are built.
    with pytest.raises(ValueError, match="^d1 must be finite, got inf$"):
        build_region(ChannelConfig(0.1, 5.0), TrafficLoad(1e308, 1e300))


def _near_any_boundary(desc, x, y, eps):
    for _, piece in desc.pieces:
        for hp in piece.halfplanes:
            if abs(hp.slack(x, y)) / float(np.hypot(hp.a, hp.b)) <= eps:
                return True
    return False
