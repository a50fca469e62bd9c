import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from macct import (
    EPS_MEM,
    ChannelConfig,
    corner_points,
    gamma,
    region_contains,
    standard_capacity_region,
)
from refvals import A_33, B_33, CFG33, G6

snr = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
power = st.floats(min_value=1e-3, max_value=1e4)


class TestGamma:
    def test_exact_points(self):
        assert gamma(0.0) == 0.0
        assert gamma(3.0) == 1.0
        assert gamma(6.0) == pytest.approx(G6, abs=1e-15)

    def test_domain_errors(self):
        for bad in (-1e-12, -3.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                gamma(bad)

    @given(snr, st.floats(min_value=1e-9, max_value=10.0))
    def test_strictly_increasing(self, x, gap):
        y = x + gap * (1.0 + x)
        assert gamma(x) < gamma(y)

    @given(snr, snr)
    def test_concave(self, x, y):
        mid = gamma((x + y) / 2.0)
        assert mid >= (gamma(x) + gamma(y)) / 2.0 - EPS_MEM


class TestPentagon:
    def test_corner_points(self):
        a, b = corner_points(CFG33)
        assert a.as_tuple() == pytest.approx(A_33, abs=1e-15)
        assert b.as_tuple() == pytest.approx(B_33, abs=1e-15)

    @given(power)
    def test_equal_power_symmetry(self, p):
        a, b = corner_points(ChannelConfig(p, p))
        assert a.r1 == b.r2 and a.r2 == b.r1

    @given(power, power)
    def test_sum_corner_subadditive(self, p1, p2):
        assert gamma(p1 + p2) <= gamma(p1) + gamma(p2)

    @given(power, power)
    def test_corners_feasible_and_sum_tight(self, p1, p2):
        cfg = ChannelConfig(p1, p2)
        pentagon = standard_capacity_region(cfg)
        g12 = gamma(p1 + p2)
        for point in corner_points(cfg):
            assert region_contains(pentagon, point.as_tuple())
            assert abs(point.r1 + point.r2 - g12) <= 1e-12 * g12

    def test_membership_examples(self):
        pentagon = standard_capacity_region(CFG33)
        assert region_contains(pentagon, (0.5, 0.5))
        assert not region_contains(pentagon, (1.0, 1.0))
        assert region_contains(pentagon, (0.0, 0.0))
        assert region_contains(pentagon, A_33)
        # violates r1 <= gamma(3) = 1 by 1e-4, far above the tolerance
        assert not region_contains(pentagon, (1.0001, 0.5), tol=1e-9)

    def test_vertices_are_corners(self):
        pentagon = standard_capacity_region(CFG33)
        for _, (x, y) in pentagon.vertices:
            slacks = [hp.slack(x, y) for hp in pentagon.halfplanes]
            assert all(s >= -EPS_MEM for s in slacks)
            assert sum(1 for s in slacks if abs(s) <= EPS_MEM) >= 2

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_downward_closed(self, u, v, s1, s2):
        pentagon = standard_capacity_region(CFG33)
        g12 = gamma(6.0)
        r1, r2 = u * 1.0, v * 1.0
        if r1 + r2 > g12:
            shrink = g12 / (r1 + r2)
            r1, r2 = r1 * shrink, r2 * shrink
        assert region_contains(pentagon, (r1, r2))
        assert region_contains(pentagon, (s1 * r1, s2 * r2))

    def test_bad_config_rejected(self):
        for p1, p2 in ((0.0, 1.0), (-2.0, 1.0), (math.nan, 1.0), (1.0, math.inf), (True, 3.0)):
            with pytest.raises(ValueError):
                ChannelConfig(p1, p2)


def test_random_membership_matches_direct_inequalities():
    rng = np.random.default_rng(7)
    pentagon = standard_capacity_region(CFG33)
    g12 = gamma(6.0)
    for _ in range(500):
        r1 = rng.uniform(0, 1.5)
        r2 = rng.uniform(0, 1.5)
        expected = r1 <= 1 + EPS_MEM and r2 <= 1 + EPS_MEM and r1 + r2 <= g12 + EPS_MEM
        assert region_contains(pentagon, (r1, r2)) == expected
