import numpy as np
import pytest
from hypothesis import given, strategies as st

from macct import (
    ChannelConfig,
    ConstrainedRateQuery,
    InfeasibleError,
    RateDecomposition,
    RatePair,
    clamp_transform,
    constrained_contains,
    constrained_slacks,
    decompose_rate,
    gamma,
    region_contains,
    standard_capacity_region,
)
from refvals import ABAR_II, CFG33, G6


def q(r1, r2, c):
    return ConstrainedRateQuery(RatePair(r1, r2), c)


class TestMembership:
    def test_member_below_boundary(self):
        # 0.4 + 2*0.9 = 2.2 <= (1/0.5 - 1)*gamma(3) + gamma(6) = 1 + G6
        assert constrained_contains(CFG33, q(0.4, 0.9, 0.5))
        assert 2.2 <= 1.0 + G6

    def test_boundary_tight_member(self):
        # the d2-map image of corner A pulled back to rate space: exactly tight
        c = ABAR_II[0]
        query = q(1.0 / ABAR_II[0], 1.0, c)
        slacks = constrained_slacks(CFG33, query)
        assert constrained_contains(CFG33, query)
        assert abs(slacks["sum_rate"]) <= 1e-12

    def test_non_member_at_c1(self):
        assert not constrained_contains(CFG33, q(1.0, 1.0, 1.0))
        assert 2.0 > G6

    def test_c1_reduces_to_pentagon_on_grid(self):
        pentagon = standard_capacity_region(CFG33)
        disagreements = 0
        for r1 in np.linspace(0.0, 1.2, 61):
            for r2 in np.linspace(0.0, 1.2, 61):
                direct = constrained_contains(CFG33, q(r1, r2, 1.0))
                via_pentagon = region_contains(pentagon, (r1, r2))
                disagreements += direct != via_pentagon
        assert disagreements == 0

    def test_extreme_c_rejected(self):
        for c in (0.0, -1.0, 1e13, 1e-13, float("inf")):
            with pytest.raises(ValueError):
                q(0.1, 0.1, c)

    @pytest.mark.parametrize("c", [0.25, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 4.0])
    def test_numpy_scalar_c_matches_float_c(self, c):
        from macct.capacity import _gammas
        from macct.constrained import _membership_slacks

        g = _gammas(CFG33)
        expected = _membership_slacks(g, 0.4, 0.9, c)
        assert all(type(s) is float for s in expected)
        for numpy_c in (np.float64(c), np.array(c)):
            assert [float(s) for s in _membership_slacks(g, 0.4, 0.9, numpy_c)] == list(expected)


class TestClampTransform:
    def test_clamp_active(self):
        assert clamp_transform(CFG33, q(0.4, 0.4, 0.5)).as_tuple() == (0.4, 0.0)

    def test_clamp_inactive(self):
        out = clamp_transform(CFG33, q(0.4, 0.9, 0.5))
        assert out.as_tuple() == pytest.approx((0.4, 0.8), abs=1e-15)

    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_identity_at_c1(self, r1, r2):
        query = q(r1, r2, 1.0)
        assert clamp_transform(CFG33, query) is query.rates

    def test_equivalence_random(self):
        rng = np.random.default_rng(20260810)
        for _ in range(20_000):
            cfg = ChannelConfig(rng.uniform(0.1, 100.0), rng.uniform(0.1, 100.0))
            query = q(rng.uniform(0.05, 20.0), rng.uniform(0.05, 20.0), rng.uniform(0.05, 20.0))
            direct = constrained_contains(cfg, query)
            pentagon = standard_capacity_region(cfg)
            via_transform = region_contains(pentagon, clamp_transform(cfg, query).as_tuple())
            assert direct == via_transform

    def test_membership_monotone_in_shrinking_c(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            cfg = ChannelConfig(rng.uniform(0.2, 50.0), rng.uniform(0.2, 50.0))
            g2 = gamma(cfg.p2)
            r2 = rng.uniform(0.0, g2 * 0.999)
            r1 = rng.uniform(0.0, gamma(cfg.p1))
            c = rng.uniform(0.05, 1.0)
            if constrained_contains(cfg, q(r1, r2, c)):
                smaller = c * rng.uniform(0.1, 1.0)
                assert constrained_contains(cfg, q(r1, r2, smaller))


class TestDecomposition:
    def test_solo_phase_saturates(self):
        out = decompose_rate(CFG33, q(0.4, 0.9, 0.5))
        assert out.solo_user == 2
        assert out.solo_phase_rate == 1.0
        assert out.shared_phase_rate == pytest.approx(0.8, abs=1e-15)

    def test_solo_phase_suffices_alone(self):
        out = decompose_rate(CFG33, q(0.4, 0.4, 0.5))
        assert out.solo_user == 2
        assert out.solo_phase_rate == pytest.approx(0.8, abs=1e-15)
        assert out.shared_phase_rate == 0.0

    def test_late_user_1(self):
        c = ABAR_II[0]
        out = decompose_rate(CFG33, q(1.0 / c, 1.0, c))
        assert out.solo_user == 1
        assert out.solo_phase_rate == pytest.approx(1.0, abs=1e-12)
        assert out.shared_phase_rate == pytest.approx(G6 - 1.0, abs=1e-12)

    def test_infeasible_rejected_with_constraint_name(self):
        with pytest.raises(InfeasibleError, match="sum_rate"):
            decompose_rate(CFG33, q(1.0, 1.0, 1.0))
        with pytest.raises(InfeasibleError, match="single_user_1"):
            decompose_rate(CFG33, q(1.5, 0.0, 0.5))

    def test_equal_lengths_with_a_silent_late_user(self):
        # c = 1 has no solo phase to divide by, and r2 = 0 leaves nothing to split
        assert decompose_rate(CFG33, q(0.5, 0.0, 1.0)) == RateDecomposition(0.0, 0.0, 2)
        assert decompose_rate(CFG33, q(0.5, 0.25, 1.0)) == RateDecomposition(0.25, 0.0, 2)

    def test_late_rate_above_capacity_within_tol(self):
        # r2 exceeds gamma(P2) = 1 by 0.5e-9: kept in both phases, not pushed
        # into the shared phase as 1 + 0.5e-9/c = 1.0005
        r2 = 1.0 + 0.5e-9
        assert decompose_rate(CFG33, q(0.4, r2, 1e-6)) == RateDecomposition(r2, r2, 2)

    def test_round_trip_random(self):
        rng = np.random.default_rng(99)
        pent_cache = {}
        done = 0
        while done < 400:
            cfg = ChannelConfig(rng.uniform(0.2, 30.0), rng.uniform(0.2, 30.0))
            c = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
            query = q(
                rng.uniform(0.0, gamma(cfg.p1)),
                rng.uniform(0.0, gamma(cfg.p2)),
                c,
            )
            if not constrained_contains(cfg, query):
                continue
            done += 1
            out = decompose_rate(cfg, query)
            if c < 1.0:
                rebuilt = c * out.shared_phase_rate + (1 - c) * out.solo_phase_rate
                target = query.rates.r2
                shared_pair = (query.rates.r1, out.shared_phase_rate)
                cap = gamma(cfg.p2)
            elif c > 1.0:
                rebuilt = (1 / c) * out.shared_phase_rate + (1 - 1 / c) * out.solo_phase_rate
                target = query.rates.r1
                shared_pair = (out.shared_phase_rate, query.rates.r2)
                cap = gamma(cfg.p1)
            else:
                continue
            assert abs(rebuilt - target) <= 1e-12 * max(1.0, target)
            assert out.solo_phase_rate <= cap + 1e-12
            pentagon = pent_cache.setdefault(cfg, standard_capacity_region(cfg))
            assert region_contains(pentagon, shared_pair)
