import math

import numpy as np
import pytest

from macct import (
    ChannelConfig,
    CompletionTimePair,
    InfeasibleError,
    Phase,
    RatePair,
    Schedule,
    TrafficLoad,
    ValidationReport,
    build_region,
    compose,
    ct_contains,
    gamma,
    minimax,
    minimize_weighted_sum,
    region_contains,
    standard_capacity_region,
    synthesize,
    validate,
)
from refvals import (
    ABAR_II,
    CBAR_II,
    CFG33,
    LOAD_II,
    REFERENCE_INSTANCES,
    random_instance,
    sample_members,
)


class TestSynthesize:
    def test_two_phase_boundary_pair(self):
        d = CompletionTimePair(*ABAR_II)
        s = synthesize(CFG33, LOAD_II, d)
        assert len(s.phases) == 2
        shared, solo = s.phases
        assert shared.duration == pytest.approx(1.0, abs=1e-12)
        assert shared.active_users == {1, 2}
        assert shared.rates.as_tuple() == pytest.approx(
            (0.40367746102880205, 1.0), rel=1e-12
        )
        assert solo.duration == pytest.approx(ABAR_II[0] - 1.0, rel=1e-12)
        assert solo.active_users == {1}
        assert solo.rates.as_tuple() == pytest.approx((1.0, 0.0), abs=1e-12)
        # bit conservation, by hand
        assert shared.duration * shared.rates.r1 + solo.duration * solo.rates.r1 == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_single_phase_on_diagonal(self):
        d = CompletionTimePair(CBAR_II, CBAR_II)
        s = synthesize(CFG33, LOAD_II, d)
        assert len(s.phases) == 1
        (phase,) = s.phases
        assert phase.active_users == {1, 2}
        assert phase.rates.as_tuple() == pytest.approx(
            (0.701838730514401, 0.701838730514401), rel=1e-12
        )

    def test_interior_point_solo_saturates(self):
        s = synthesize(CFG33, LOAD_II, CompletionTimePair(2.0, 3.0))
        shared, solo = s.phases
        assert shared.duration == 2.0
        assert shared.rates.as_tuple() == pytest.approx((0.5, 0.0), abs=1e-12)
        assert solo.duration == pytest.approx(1.0, abs=1e-12)
        assert solo.active_users == {2}
        assert solo.rates.r2 == pytest.approx(1.0, abs=1e-12)
        assert 2.0 * shared.rates.r2 + 1.0 * solo.rates.r2 == pytest.approx(
            1.0, abs=1e-12
        )

    def test_infeasible_rejected_naming_constraint(self):
        with pytest.raises(InfeasibleError, match="sum_rate"):
            synthesize(CFG33, LOAD_II, CompletionTimePair(1.3, 1.3))

    def test_round_trip_random_members(self):
        rng = np.random.default_rng(41)
        for _, cfg, load in REFERENCE_INSTANCES:
            for d in sample_members(rng, cfg, load, 100):
                report = validate(cfg, load, synthesize(cfg, load, d))
                assert report.ok, report.violations

    def test_boundary_vertices_give_pentagon_tight_phases(self):
        for _, cfg, load in REFERENCE_INSTANCES:
            desc = build_region(cfg, load)
            g1, g2 = gamma(cfg.p1), gamma(cfg.p2)
            g12 = gamma(cfg.p1 + cfg.p2)
            for _, piece in desc.pieces:
                for label, (x, y) in piece.vertices:
                    s = synthesize(cfg, load, CompletionTimePair(x, y))
                    shared = s.phases[0]
                    r1, r2 = shared.rates.as_tuple()
                    tight = min(
                        abs(g1 - r1), abs(g2 - r2), abs(g12 - r1 - r2)
                    )
                    assert tight <= 1e-9, (label, shared)

    def test_upward_closure(self):
        rng = np.random.default_rng(42)
        for d in sample_members(rng, CFG33, LOAD_II, 50):
            bumped = CompletionTimePair(
                d.d1 + rng.uniform(0.0, 0.5), d.d2 + rng.uniform(0.0, 0.5)
            )
            report = validate(CFG33, LOAD_II, synthesize(CFG33, LOAD_II, bumped))
            assert report.ok


class TestWideRatios:
    """Members whose c = d1/d2 lies beyond [1e-12, 1e12], or rounds to 0 or inf."""

    def _members(self, rng, n):
        # The early finisher sits just above its solo floor and the late one
        # finishes 1e12 to 1e18 times later.  validate's tolerances on bits and
        # end times are relative to each user's load and time, so times of any
        # size are kept.
        out = []
        while len(out) < n:
            powers = np.exp(rng.uniform(np.log(1e-2), np.log(1e4), 2))
            cfg = ChannelConfig(float(powers[0]), float(powers[1]))
            early = int(rng.integers(2))  # 0: user 1 finishes first
            taus = [float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2)))) for _ in range(2)]
            taus[early] = float(np.exp(rng.uniform(np.log(1e-14), np.log(1e-8))))
            load = TrafficLoad(*taus)
            times = [0.0, 0.0]
            floor = taus[early] / gamma(float(powers[early]))
            times[early] = floor * float(rng.uniform(1.0, 2.0))
            times[1 - early] = times[early] * float(np.exp(rng.uniform(np.log(1e12), np.log(1e18))))
            d = CompletionTimePair(*times)
            if ct_contains(cfg, load, d):
                out.append((cfg, load, d))
        return out

    def test_members_beyond_the_c_range_validate(self):
        members = self._members(np.random.default_rng(71), 200)
        ratios = [d.d1 / d.d2 for _, _, d in members]
        assert min(ratios) < 1e-12 and max(ratios) > 1e12
        assert all(not 1e-12 <= c <= 1e12 for c in ratios)
        for cfg, load, d in members:
            report = validate(cfg, load, synthesize(cfg, load, d))
            assert report.ok, (cfg, load, d, report.violations)

    @pytest.mark.parametrize("d, load", [
        ((1e-300, 1e30), (1e-301, 1.0)),  # d1/d2 rounds to 0
        ((1e30, 1e-300), (1.0, 1e-301)),  # d1/d2 overflows to inf
    ])
    def test_ratio_that_rounds_away(self, d, load):
        d, load = CompletionTimePair(*d), TrafficLoad(*load)
        assert d.d1 / d.d2 in (0.0, float("inf"))
        s = synthesize(CFG33, load, d)
        shared = s.phases[0]
        assert shared.duration == min(d.as_tuple())  # kept, though shorter than 1e-12
        assert validate(CFG33, load, s).ok

    def test_shared_rate_is_zero_when_the_solo_phase_carries_every_bit(self):
        cfg = ChannelConfig(26.656682344026844, 5160.3345100736215)
        load = TrafficLoad(0.02471199544039188, 4.1558712815245284)
        d = CompletionTimePair(0.8881441727969035, 0.6739144127837967)  # user 1 late
        s = synthesize(cfg, load, d)
        shared, solo = s.phases
        assert shared.rates.r1 == 0.0
        assert solo.rates.r1 == load.tau1 / (d.d1 - d.d2) < gamma(cfg.p1)
        assert validate(cfg, load, s).ok

    @pytest.mark.parametrize("late", [1, 2])
    def test_late_solo_floor_met_only_within_tol(self, late):
        # tau_late is 0.9e-9*d_late above gamma(3)*d_late = d_late and the early
        # user finishes 1e6 times sooner.  The late user runs at tau/d in both
        # phases (1 + 0.9e-9); the excess put into the shared phase alone
        # would make its rate 1.0009, outside the pentagon.
        d_late = 1.0 / (1.0 + 0.9e-9)
        d = CompletionTimePair(*((d_late, d_late / 1e6) if late == 1 else (d_late / 1e6, d_late)))
        load = TrafficLoad(*((1.0, 1e-7) if late == 1 else (1e-7, 1.0)))
        assert ct_contains(CFG33, load, d) and not ct_contains(CFG33, load, d, 0.0)
        shared, solo = synthesize(CFG33, load, d).phases
        assert shared.rates.as_tuple()[late - 1] == solo.rates.as_tuple()[late - 1] == 1.0 / d_late
        report = validate(CFG33, load, synthesize(CFG33, load, d))
        assert report.ok, report.violations


class TestLoadScale:
    """Scaling the load by 2**k scales every time by 2**k exactly, and the schedule with it."""

    @staticmethod
    def _optimum_schedule(k):
        # Case II at P = (3, 3); at w = 0.2 the optimum is Abar, where user 1 finishes last.
        load = TrafficLoad(2.0**k, 1.5 * 2.0**k)
        d = minimize_weighted_sum(CFG33, load, 0.2).optimizer_point
        return load, synthesize(CFG33, load, d)

    @pytest.mark.parametrize("k", [-60, 40])
    def test_optimum_keeps_its_short_solo_phase_and_validates(self, k):
        # At 2**-60 the solo phase lasts about 5e-19 and user 1 sends 39% of its bits in it.
        load, s = self._optimum_schedule(k)
        _, unit = self._optimum_schedule(0)
        assert [p.duration for p in s.phases] == [math.ldexp(p.duration, k) for p in unit.phases]
        assert [p.rates for p in s.phases] == [p.rates for p in unit.phases]
        assert [p.active_users for p in s.phases] == [{1, 2}, {1}]
        assert validate(CFG33, load, s).ok

    @pytest.mark.parametrize("k", [-60, 0, 40])
    def test_schedule_missing_its_solo_phase_is_rejected(self, k):
        load, s = self._optimum_schedule(k)
        report = validate(CFG33, load, Schedule(s.phases[:1], s.achieved))
        assert [v.split(":")[0] for v in report.violations] == ["user 1", "user 1"]
        assert "delivers" in report.violations[0]

    @pytest.mark.parametrize("k", [-60, 40, 300])
    def test_random_optima_validate_at_every_scale(self, k):
        rng = np.random.default_rng(8)
        for _ in range(60):
            cfg, load = random_instance(rng)
            load = TrafficLoad(math.ldexp(load.tau1, k), math.ldexp(load.tau2, k))
            w = float(rng.uniform())
            for d in (minimize_weighted_sum(cfg, load, w).optimizer_point, minimax(cfg, load)[1]):
                report = validate(cfg, load, synthesize(cfg, load, d))
                assert report.ok, (cfg, load, w, report.violations)


class TestCompose:
    def test_convex_combination_of_achieved_pairs(self):
        s = synthesize(CFG33, LOAD_II, CompletionTimePair(1.0, ABAR_II[0]))
        s_prime = synthesize(CFG33, LOAD_II, CompletionTimePair(CBAR_II, CBAR_II))
        out = compose(s, s_prime, 0.5)
        assert out.achieved.d1 == pytest.approx(0.5 * (1.0 + CBAR_II), abs=1e-12)
        assert out.achieved.d2 == pytest.approx(0.5 * (ABAR_II[0] + CBAR_II), abs=1e-12)
        report = validate(CFG33, LOAD_II, out)
        assert report.ok, report.violations

    def test_alpha_one_is_identity(self):
        s = synthesize(CFG33, LOAD_II, CompletionTimePair(1.2, 1.8))
        s_prime = synthesize(CFG33, LOAD_II, CompletionTimePair(1.5, 1.5))
        out = compose(s, s_prime, 1.0)
        assert out.achieved == s.achieved
        assert [p.rates for p in out.phases] == [p.rates for p in s.phases]

    def test_opposite_sides_rejected(self):
        s = synthesize(CFG33, LOAD_II, CompletionTimePair(1.2, 1.8))
        s_prime = synthesize(CFG33, LOAD_II, CompletionTimePair(1.8, 1.2))
        with pytest.raises(ValueError, match="opposite sides"):
            compose(s, s_prime, 0.5)

    def test_closure_under_composition(self):
        rng = np.random.default_rng(43)
        for _, cfg, load in REFERENCE_INSTANCES:
            for side in ("d1<=d2", "d1>=d2"):
                members = sample_members(rng, cfg, load, 12, side)
                for _ in range(20):
                    i, j = rng.choice(len(members), size=2)
                    alpha = float(rng.uniform(0.0, 1.0))
                    out = compose(
                        synthesize(cfg, load, members[i]),
                        synthesize(cfg, load, members[j]),
                        alpha,
                    )
                    assert validate(cfg, load, out).ok
                    assert ct_contains(cfg, load, out.achieved)

    def test_short_shared_phases_are_kept(self):
        # The early finisher's only phases are the shared ones, here 1e-300 long.
        load = TrafficLoad(1e-301, 1.0)
        s = synthesize(CFG33, load, CompletionTimePair(1e-300, 1e30))
        s_prime = synthesize(CFG33, load, CompletionTimePair(2e-300, 1e30))
        assert validate(CFG33, load, s).ok and validate(CFG33, load, s_prime).ok
        out = compose(s, s_prime, 0.5)
        assert [p.duration for p in out.phases] == [5e-301, 1e-300, 5e29, 5e29]
        report = validate(CFG33, load, out)
        assert report.ok, report.violations

    def test_composed_compose_again(self):
        rng = np.random.default_rng(44)
        members = sample_members(rng, CFG33, LOAD_II, 3, "d1<=d2")
        schedules = [synthesize(CFG33, LOAD_II, d) for d in members]
        once = compose(schedules[0], schedules[1], 0.3)
        twice = compose(once, schedules[2], 0.6)
        assert validate(CFG33, LOAD_II, twice).ok


class TestValidate:
    def test_detects_pentagon_violation(self):
        bad = Schedule(
            phases=(Phase(1.0, RatePair(1.0, 1.0), frozenset({1, 2})),),
            achieved=CompletionTimePair(1.0, 1.0),
        )
        report = validate(CFG33, TrafficLoad(1.0, 1.0), bad)
        assert not report.ok
        assert any("pentagon" in v for v in report.violations)

    def test_detects_missing_bits(self):
        d = CompletionTimePair(*ABAR_II)
        s = synthesize(CFG33, LOAD_II, d)
        short = Schedule(
            phases=(
                s.phases[0],
                Phase(
                    s.phases[1].duration,
                    RatePair(s.phases[1].rates.r1 * 0.9, 0.0),
                    frozenset({1}),
                ),
            ),
            achieved=d,
        )
        report = validate(CFG33, LOAD_II, short)
        assert any("bits" in v for v in report.violations)

    def test_detects_non_contiguous_activity(self):
        gap = Schedule(
            phases=(
                Phase(0.5, RatePair(1.0, 0.0), frozenset({1})),
                Phase(0.5, RatePair(0.0, 1.0), frozenset({2})),
                Phase(0.5, RatePair(1.0, 0.0), frozenset({1})),
            ),
            achieved=CompletionTimePair(1.5, 1.0),
        )
        report = validate(CFG33, TrafficLoad(1.0, 0.5), gap)
        assert any("initial run" in v for v in report.violations)

    def test_detects_infeasible_achieved_pair(self):
        bad = Schedule(
            phases=(Phase(1.3, RatePair(1.0 / 1.3, 1.0 / 1.3), frozenset({1, 2})),),
            achieved=CompletionTimePair(1.3, 1.3),
        )
        report = validate(CFG33, LOAD_II, bad)
        assert any("not in the region" in v for v in report.violations)

    def test_detects_solo_rate_above_capacity(self):
        bad = Schedule(
            phases=(
                Phase(1.0, RatePair(0.5, 0.9), frozenset({1, 2})),
                Phase(0.5, RatePair(1.0, 0.0), frozenset({1})),
                Phase(0.25, RatePair(1.2, 0.0), frozenset({1})),
            ),
            achieved=CompletionTimePair(1.75, 1.0),
        )
        report = validate(ChannelConfig(3, 3), TrafficLoad(1.3, 0.9), bad)
        assert any("capacity" in v for v in report.violations)

    def test_violation_names_the_constraint(self):
        bad = Schedule(
            phases=(
                Phase(1.0, RatePair(0.8, 0.8), frozenset({1, 2})),
                Phase(0.5, RatePair(1.0, 0.0), frozenset({1})),
                Phase(0.25, RatePair(1.2, 0.0), frozenset({1})),
            ),
            achieved=CompletionTimePair(1.75, 1.0),
        )
        report = validate(CFG33, TrafficLoad(1.6, 0.8), bad)
        pentagon = [v for v in report.violations if "pentagon" in v]
        assert pentagon == [
            "phase 0: rates (0.8, 0.8) outside the capacity pentagon: sum_rate violated by 0.196",
            "phase 2: rates (1.2, 0) outside the capacity pentagon: single_user_1 violated by 0.2",
        ]

    def test_phase_check_matches_half_plane_reference(self):
        # Shared and solo phases of optimizer-like boundary schedules and of
        # interior ones, nudged across the pentagon faces in both directions.
        rng = np.random.default_rng(46)
        seen = set()  # (active users, outside) pairs met
        for _ in range(8):
            cfg, load = random_instance(rng)
            pentagon = standard_capacity_region(cfg)
            pairs = [CompletionTimePair(x, y)
                     for _, piece in build_region(cfg, load).pieces
                     for _, (x, y) in piece.vertices]
            for d in pairs + sample_members(rng, cfg, load, 10):
                phases = synthesize(cfg, load, d).phases
                for f in (1.0, 1 + 1e-12, 1 - 1e-12, 1 + 1e-9, 1 - 1e-9, 1.001, 0.999):
                    scaled = tuple(
                        Phase(p.duration, RatePair(p.rates.r1 * f, p.rates.r2 * f), p.active_users)
                        for p in phases
                    )
                    report = validate(cfg, load, Schedule(scaled, d))
                    for k, p in enumerate(scaled):
                        outside = not region_contains(pentagon, p.rates.as_tuple())
                        reported = any(v.startswith(f"phase {k}:") for v in report.violations)
                        assert reported == outside, (cfg, load, d, f, k, report.violations)
                        seen.add((len(p.active_users), outside))
        assert seen == {(1, False), (1, True), (2, False), (2, True)}

    def test_one_gamma_triple_per_call(self, monkeypatch):
        import macct.capacity as capacity

        s = synthesize(CFG33, LOAD_II, CompletionTimePair(*ABAR_II))
        calls = []
        real = capacity.gamma
        monkeypatch.setattr(capacity, "gamma", lambda x: calls.append(x) or real(x))
        assert validate(CFG33, LOAD_II, s).ok
        assert len(calls) == 3

    def test_passing_reports_are_one_shared_object(self):
        reports = [validate(CFG33, LOAD_II, synthesize(CFG33, LOAD_II, CompletionTimePair(*d)))
                   for d in (ABAR_II, (2.0, 3.0))]
        assert reports[0] == ValidationReport(True, ())
        assert reports[0] is reports[1]

    def test_deadline_mismatch_detected(self):
        d = CompletionTimePair(*ABAR_II)
        s = synthesize(CFG33, LOAD_II, d)
        wrong = Schedule(phases=s.phases, achieved=CompletionTimePair(d.d1 + 0.5, d.d2))
        report = validate(CFG33, LOAD_II, wrong)
        assert any("ends at" in v for v in report.violations)


def test_phase_invariants_enforced_at_construction():
    with pytest.raises(ValueError):
        Phase(-0.1, RatePair(0.1, 0.1), frozenset({1, 2}))
    with pytest.raises(ValueError):
        Phase(1.0, RatePair(0.1, 0.1), frozenset({1}))  # inactive user 2 with rate
    with pytest.raises(ValueError):
        Phase(1.0, RatePair(0.0, 0.1), frozenset({3}))


@pytest.mark.parametrize("users", [[1, 2], (2, 1), {1, 2}, frozenset({np.int64(1), 2})])
def test_phase_stores_users_as_frozenset_of_ints(users):
    phase = Phase(1.0, RatePair(0.5, 0.5), users)
    assert phase.active_users == {1, 2}
    assert type(phase.active_users) is frozenset
    assert {type(user) for user in phase.active_users} == {int}
    assert hash(phase) == hash(Phase(1.0, RatePair(0.5, 0.5), frozenset({1, 2})))


@pytest.mark.parametrize("users, match", [
    (frozenset({True, 2}), "active user must be the int 1 or 2, got True"),
    (frozenset({1.0, 2}), "active user must be the int 1 or 2, got 1.0"),
    ({3}, r"active_users must be a subset of \{1, 2\}"),
    (1, "active_users must be a set of users, got 1"),
])
def test_phase_rejects_bad_users(users, match):
    with pytest.raises(ValueError, match=match):
        Phase(1.0, RatePair(0.5, 0.5), users)


def test_phase_checks_user_sets_that_are_not_its_own():
    # `synthesize` hands `Phase` the module's own user sets, which skip the
    # user check; an equal set built elsewhere must still take it.
    from macct.schedule import _BOTH, _SOLO

    assert frozenset({True, 2}) == _BOTH and frozenset({1.0}) == _SOLO[0]
    with pytest.raises(ValueError, match="active user must be the int 1 or 2, got True"):
        Phase(1.0, RatePair(0.5, 0.5), frozenset({True, 2}))
    with pytest.raises(ValueError, match="active user must be the int 1 or 2, got 1.0"):
        Phase(1.0, RatePair(0.5, 0.0), frozenset({1.0}))
    phase = Phase(1.0, RatePair(0.5, 0.5), {1, 2})
    assert type(phase.active_users) is frozenset and phase.active_users == _BOTH
    with pytest.raises(ValueError, match="inactive user 2 must have rate 0"):
        Phase(1.0, RatePair(0.5, 0.5), {1})
    shared, solo = synthesize(CFG33, LOAD_II, CompletionTimePair(1.6, 1.0)).phases
    assert shared.active_users is _BOTH and solo.active_users is _SOLO[0]


def test_validate_adds_bits_as_bits_delivered_does(monkeypatch):
    # From Python 3.12 `sum()` of floats is compensated, so a running sum can
    # differ from it in the last bits; both must add the same way.  With no bit
    # tolerance, validate flags a load that differs from `bits_delivered` at all.
    import macct.schedule as schedule

    monkeypatch.setattr(schedule, "_BIT_TOL", 0.0)
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        phases = tuple(
            Phase(float(t), RatePair(float(r1), float(r2)), frozenset({1, 2}))
            for t, r1, r2 in zip(np.exp(rng.uniform(-20, 5, n)),
                                 *np.exp(rng.uniform(-30, 0, (2, n))))
        )
        s = Schedule(phases, CompletionTimePair(1.0, 1.0))
        bits = s.bits_delivered(1), s.bits_delivered(2)
        report = validate(CFG33, TrafficLoad(*bits), s)
        assert not [v for v in report.violations if "delivers" in v], bits
        off = validate(CFG33, TrafficLoad(np.nextafter(bits[0], 2.0), bits[1]), s)
        assert [v for v in off.violations if "delivers" in v] == [
            f"user 1: delivers {bits[0]:.12g} bits, load is {np.nextafter(bits[0], 2.0):.12g}"
        ]


@pytest.mark.parametrize("rates", [(0.5, 0.5), None, 0.5])
def test_phase_rejects_rates_that_are_not_a_rate_pair(rates):
    with pytest.raises(ValueError, match="rates must be a RatePair"):
        Phase(1.0, rates, frozenset({1, 2}))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_phase_rejects_non_finite_duration(bad):
    # NaN slips past every ordered comparison, so validate() would pass it
    shared, solo = synthesize(CFG33, LOAD_II, CompletionTimePair(1.6, 1.0)).phases
    for phase in (shared, solo):
        with pytest.raises(ValueError, match="duration"):
            Phase(bad, phase.rates, phase.active_users)


def test_random_instances_round_trip():
    rng = np.random.default_rng(45)
    for _ in range(10):
        cfg, load = random_instance(rng)
        for d in sample_members(rng, cfg, load, 20):
            s = synthesize(cfg, load, d)
            report = validate(cfg, load, s)
            assert report.ok, (cfg, load, d, report.violations)


# Hand-built schedules, one for each kind of `validate` violation, with the
# report each one gives.  `every_kind` pins the order of the messages.
_BOTH, _ONE, _TWO = frozenset({1, 2}), frozenset({1}), frozenset({2})
_VALID = ((1.0, (0.25, 1.0), _BOTH), (1.0, (0.75, 0.0), _ONE))
_PENTAGON_0 = (
    "phase 0: rates (1.2, 1) outside the capacity pentagon: "
    "single_user_1 violated by 0.2, sum_rate violated by 0.796"
)
VIOLATION_CASES = {
    "valid": (LOAD_II, (2.0, 1.0), _VALID, ()),
    "no_active_users": (
        LOAD_II, (2.0, 1.0), (*_VALID, (0.5, (0.0, 0.0), frozenset())),
        ("phase 2: no active users",),
    ),
    "pentagon_breach": (
        LOAD_II, (2.0, 1.0),
        ((0.5, (1.2, 1.0), _BOTH), (0.5, (0.2, 1.0), _BOTH), (1.0, (0.3, 0.0), _ONE)),
        (_PENTAGON_0,),
    ),
    "bit_shortfall": (
        LOAD_II, (2.0, 1.0), ((1.0, (0.25, 1.0), _BOTH), (1.0, (0.5, 0.0), _ONE)),
        ("user 1: delivers 0.75 bits, load is 1",),
    ),
    "activity_not_initial": (
        TrafficLoad(1.0, 0.5), (1.5, 1.0),
        ((0.5, (1.0, 0.0), _ONE), (0.5, (0.0, 1.0), _TWO), (0.5, (1.0, 0.0), _ONE)),
        (
            "user 1: active phases are not an initial run",
            "user 2: active phases are not an initial run",
        ),
    ),
    "never_transmits": (
        LOAD_II, (1.0, 2.0), ((1.0, (1.0, 0.0), _BOTH),),
        ("user 2: delivers 0 bits, load is 1", "user 2: never transmits"),
    ),
    "ends_before_deadline": (
        LOAD_II, (2.5, 1.0), _VALID,
        ("user 1: last nonzero-rate phase ends at 2, completion time is 2.5",),
    ),
    "achieved_outside": (
        LOAD_II, (1.3, 1.3), ((1.3, (1.0 / 1.3, 1.0 / 1.3), _BOTH),),
        (
            "phase 0: rates (0.769231, 0.769231) outside the capacity pentagon: "
            "sum_rate violated by 0.135",
            "achieved pair (1.3, 1.3) is not in the region",
        ),
    ),
    "pentagon_and_bits": (
        LOAD_II, (2.0, 1.0), ((1.0, (1.2, 1.0), _BOTH), (1.0, (0.75, 0.0), _ONE)),
        (_PENTAGON_0, "user 1: delivers 1.95 bits, load is 1"),
    ),
    "every_kind": (
        LOAD_II, (1.5, 0.5),
        (
            (0.5, (0.0, 0.0), frozenset()),
            (0.5, (1.2, 0.5), _BOTH),
            (0.5, (0.0, 0.0), frozenset()),
        ),
        (
            "phase 0: no active users",
            "phase 1: rates (1.2, 0.5) outside the capacity pentagon: "
            "single_user_1 violated by 0.2, sum_rate violated by 0.296",
            "phase 2: no active users",
            "user 1: delivers 0.6 bits, load is 1",
            "user 2: delivers 0.25 bits, load is 1",
            "user 1: active phases are not an initial run",
            "user 1: last nonzero-rate phase ends at 1, completion time is 1.5",
            "user 2: active phases are not an initial run",
            "user 2: last nonzero-rate phase ends at 1, completion time is 0.5",
            "achieved pair (1.5, 0.5) is not in the region",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(VIOLATION_CASES))
def test_validate_reports_each_violation_kind(name):
    load, d, phases, expected = VIOLATION_CASES[name]
    s = Schedule(
        tuple(Phase(t, RatePair(*r), users) for t, r, users in phases),
        CompletionTimePair(*d),
    )
    report = validate(CFG33, load, s)
    assert report.violations == expected
    assert report.ok == (not expected)
