"""The equal-time results on loads and powers far beyond the moderate domain.

Cbar = (t, t), the case and the minimax value come from the largest of the
three c = 1 floors, so they are exact under a user swap, C cells lie on the
diagonal, and a load answers unless t itself is beyond the float range.
"""

import numpy as np
import pytest

from macct import (
    Case,
    ChannelConfig,
    TrafficLoad,
    build_region,
    classify_case,
    equal_time_vertex,
    gamma,
    minimax,
    minimize_subregion,
    minimize_weighted_sum,
    point_c,
)
from refvals import DOMAINS, log_uniform_instances


@pytest.mark.parametrize("domain", DOMAINS)
def test_equal_time_results_are_swap_exact_and_on_the_diagonal(domain):
    rng = np.random.default_rng(7)
    c_cells = 0
    for cfg, load in log_uniform_instances(rng, domain, 400):
        w = float(rng.choice([0.0, rng.uniform(), 1.0]))
        value, point = minimax(cfg, load)
        assert point.d1 == point.d2 == value
        mirror = minimax(ChannelConfig(cfg.p2, cfg.p1), TrafficLoad(load.tau2, load.tau1))
        assert mirror[0] == value, (cfg, load)
        for branch in (1, 2):
            out = minimize_subregion(cfg, load, branch, w)
            if out.rate_point_label == "C":
                c_cells += 1
                assert out.optimizer_point.d1 == out.optimizer_point.d2 == value, (cfg, load, w)
        assert build_region(cfg, load).case is classify_case(cfg, load)
        minimize_weighted_sum(cfg, load, w)
    assert c_cells > 100


def test_overflowing_load_sum_is_case_ii_and_its_minimax_is_refused_as_a_time():
    # tau1 + tau2 overflows, and so does every floor; the case and point C do not.
    cfg, load = ChannelConfig(0.1, 0.1), TrafficLoad(1e308, 1e308)
    assert classify_case(cfg, load) is Case.II
    half_g12 = gamma(0.2) / 2
    assert point_c(cfg, load).as_tuple() == pytest.approx((half_g12, half_g12), rel=1e-15)
    for solve in (minimax, equal_time_vertex, build_region):
        with pytest.raises(ValueError, match="^d1 must be finite, got inf$"):
            solve(cfg, load)


def test_subnormal_load_ratio_in_case_iii_gives_the_solo_floor():
    # tau1/tau2 is subnormal, so a t read back through point C loses precision.
    cfg = ChannelConfig(3.2410986385454495e-10, 205803110959380.4)
    load = TrafficLoad(2.5431093605719295e-121, 1.73435626248829e+198)
    t = load.tau2 / gamma(cfg.p2)
    assert t == 7.295141109700503e+196
    assert classify_case(cfg, load) is Case.III
    assert minimax(cfg, load)[0] == t
    assert equal_time_vertex(cfg, load).as_tuple() == (t, t)
    cbar = dict(build_region(cfg, load).piece_d1.vertices)["Cbar"]
    assert cbar == (t, t)
