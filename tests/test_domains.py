"""The equal-time results on loads and powers far beyond the moderate domain.

Cbar = (t, t), the case and the minimax value come from the largest of the
three c = 1 floors, so they are exact under a user swap, C cells lie on the
diagonal, and a load answers unless t itself is beyond the float range.
"""

import itertools
import math

import numpy as np
import pytest

from macct import (
    Case,
    ChannelConfig,
    CompletionTimePair,
    ConsistencyError,
    TrafficLoad,
    build_region,
    classify_case,
    ct_contains,
    default_grid,
    dominant_extreme_points,
    equal_time_vertex,
    gamma,
    map_rate_to_ct,
    minimax,
    minimize_subregion,
    minimize_weighted_sum,
    outer_bound,
    point_c,
    region_contains,
    synthesize,
    thresholds,
    validate,
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


def test_overflowing_load_sum_gives_w3_its_share():
    # tau1 + tau2 overflows; w3 = tau1/(tau1 + tau2) does not.
    cfg = ChannelConfig(100.0, 100.0)
    assert thresholds(cfg, TrafficLoad(1e308, 1e308)).w3 == 0.5
    assert thresholds(cfg, TrafficLoad(2.0**1022, 3 * 2.0**1022)).w3 == 0.25
    assert thresholds(cfg, TrafficLoad(5e-324, 1.7e308)).w3 == 0.0


def test_overflowing_load_sum_keeps_the_region():
    # tau1 + tau2 overflows; each piece's sum half-plane is stored halved, which is the same set.
    cfg, load = ChannelConfig(100.0, 100.0), TrafficLoad(1e308, 1e308)
    desc = build_region(cfg, load)
    t = minimax(cfg, load)[0]
    assert dict(desc.piece_d1.vertices)["Cbar"] == dict(desc.piece_d2.vertices)["Cbar"] == (t, t)
    verdicts = set()
    for x, y in [(0.99, 0.99), (1.01, 1.01), (1.5, 0.9), (0.9, 1.5), (1.5, 0.5), (0.5, 1.5),
                 (1.2, 0.95), (0.95, 1.2)]:
        d = CompletionTimePair(x * t, y * t)
        member = ct_contains(cfg, load, d)
        assert any(region_contains(piece, d.as_tuple()) for _, piece in desc.pieces) == member
        verdicts.add(member)
    assert verdicts == {True, False}


@pytest.mark.parametrize("w", [0.0, 0.3, 0.5, 0.7, 1.0])
def test_overflowing_products_keep_the_weighted_optimum(w):
    # (g2 - r2)*tau1 overflows in B's branch-1 image (d2 about 5.5e307), and its mirror in A's
    # branch-2 image.  The answer is the unit load's times 1e308.
    cfg, load, unit = ChannelConfig(100.0, 100.0), TrafficLoad(1e308, 1e308), TrafficLoad(1.0, 1.0)
    got, want = minimize_weighted_sum(cfg, load, w), minimize_weighted_sum(cfg, unit, w)
    assert (got.rate_point_label, got.branch, got.tie) == (want.rate_point_label, want.branch,
                                                          want.tie)
    assert got.optimal_value == pytest.approx(1e308 * want.optimal_value, rel=1e-15)
    assert got.optimizer_point.as_tuple() == pytest.approx(
        tuple(1e308 * x for x in want.optimizer_point.as_tuple()), rel=1e-15)


def test_underflowing_branch_product_maps_point_c_to_cbar():
    # On branch 2, g1*r2 underflows to 0 (7.2e-41 times C's r2 of 7.2e-301).
    cfg, load = ChannelConfig(1e-40, 1e-40), TrafficLoad(1.0, 1e-260)
    t = minimax(cfg, load)[0]
    assert t == pytest.approx(1.386e40, rel=1e-3)
    for branch in (1, 2):
        d = map_rate_to_ct(cfg, load, branch, point_c(cfg, load))
        assert abs(d.d1 - t) <= 4 * math.ulp(t) and abs(d.d2 - t) <= 4 * math.ulp(t), branch



def _top_of_range(load):
    return TrafficLoad(math.ldexp(load.tau1, 1020), math.ldexp(load.tau2, 1020))


def test_loads_at_the_top_of_the_float_range_scale_exactly():
    # Times scale with the loads, so the case, point C, the side of the demand ray each vertex
    # lies on, the thresholds and a schedule's rates are those of the load over 2^1020.  Products
    # such as r1*tau2 and g*d overflow there; each reader scales by an exact power of two.  Pinned:
    # at tau = (1e308, 1e308) both of B's ray-side products overflow, so branch 2 gave [A, C] for
    # [A, B]; the second channel's w = 0 schedule delivered 1.0635e308 of user 1's 1.0934e308 bits.
    rng = np.random.default_rng(5)
    powers = np.exp(rng.uniform(math.log(1e-2), math.log(1e8), (300, 2)))
    loads = rng.uniform(1.0, 15.0, (300, 2))
    top = math.ldexp(1e308, -1020)
    instances = [(ChannelConfig(100.0, 1e10), TrafficLoad(top, top)),
                 (ChannelConfig(94746244.49510172, 90555830.22060043),
                  TrafficLoad(9.731284362789648, 6.799057419805062)),
                 *((ChannelConfig(*map(float, p)), TrafficLoad(*map(float, t)))
                   for p, t in zip(powers, loads))]
    answered = 0
    for cfg, unit in instances:
        load = _top_of_range(unit)
        assert classify_case(cfg, load) is classify_case(cfg, unit), (cfg, unit)
        assert point_c(cfg, load) == point_c(cfg, unit), (cfg, unit)
        assert thresholds(cfg, load) == thresholds(cfg, unit), (cfg, unit)
        for branch in (1, 2):
            assert (dominant_extreme_points(cfg, load, branch)
                    == dominant_extreme_points(cfg, unit, branch)), (cfg, unit, branch)
        for w in (0.0, 0.3, 1.0):
            want = minimize_weighted_sum(cfg, unit, w)
            try:
                got = minimize_weighted_sum(cfg, load, w)
            except ValueError:  # an optimal time beyond the float range
                continue
            answered += 1
            assert got.optimizer_point == CompletionTimePair(
                *(math.ldexp(x, 1020) for x in want.optimizer_point.as_tuple()))
            plan = synthesize(cfg, load, got.optimizer_point)
            assert validate(cfg, load, plan).ok, (cfg, unit, w, validate(cfg, load, plan))
            unit_plan = synthesize(cfg, unit, want.optimizer_point)
            assert [p.rates for p in plan.phases] == [p.rates for p in unit_plan.phases]
    assert answered > 400
    assert [x for x, _ in dominant_extreme_points(*instances[0], 2)] == ["A", "B"]


# The calls that derive the gammas and the c = 1 floors of a channel and a load.
DERIVED = (
    build_region,
    minimax,
    lambda cfg, load: minimize_weighted_sum(cfg, load, 0.3),
    lambda cfg, load: [minimize_subregion(cfg, load, branch, 0.3) for branch in (1, 2)],
    classify_case,
    point_c,
    outer_bound,
    default_grid,
    lambda cfg, load: [dominant_extreme_points(cfg, load, branch) for branch in (1, 2)],
)


# Every gamma of P = (5e-324, 5e-324) rounds to the smallest subnormal, so gamma(P1 + P2) =
# gamma(P2) while gamma(P1/(1 + P2)) > 0: the float pentagon is not one, and at tau = (5e-324,
# 1e-300), whose floors tie on the II/III boundary, the two cases' sub-region minima disagree.
SUBNORMAL_PENTAGON = (5e-324, 5e-324, 5e-324, 1e-300)


def test_every_float_answers_or_raises_a_value_error():
    # gamma(5e-324) is 5e-324, not 0; and when the largest c = 1 floor underflows (P =
    # (4.3e43, 1.9e120), tau = (5e-324, 4.6e-322)), the case and point C are read off the load
    # times a power of two.  Nothing divides by zero: each call answers or refuses the input.
    assert gamma(5e-324) == 5e-324
    with pytest.raises(ValueError, match="^d1 must be finite, got inf$"):
        minimax(ChannelConfig(5e-324, 1.0), TrafficLoad(1.0, 1.0))
    rng = np.random.default_rng(7)
    draws = np.exp(rng.uniform(math.log(5e-324), math.log(1.7e308), (4000, 4)))
    grid = itertools.product((5e-324, 1e-300, 1.0, 1e300, 1.7e308), repeat=4)
    inputs = [*(x for x in grid if x != SUBNORMAL_PENTAGON),
              (4.297857468058407e43, 1.855043310371351e120, 5e-324, 4.6e-322), *draws.tolist()]
    for p1, p2, tau1, tau2 in inputs:
        cfg, load = ChannelConfig(p1, p2), TrafficLoad(tau1, tau2)
        for call in DERIVED:
            try:
                call(cfg, load)
            except ValueError:
                pass


@pytest.mark.xfail(raises=ConsistencyError, strict=True,
                   reason="the float gammas of a subnormal channel need not form a pentagon")
def test_subnormal_pentagon_answers_or_raises_a_value_error():
    p1, p2, tau1, tau2 = SUBNORMAL_PENTAGON
    for branch in (1, 2):
        try:
            minimize_subregion(ChannelConfig(p1, p2), TrafficLoad(tau1, tau2), branch, 0.3)
        except ValueError:
            pass
