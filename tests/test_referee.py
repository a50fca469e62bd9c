"""`ct_contains` against a 50-digit evaluation of the rate-space inequalities.

The pairs are those whose ratio c = d1/d2 lies in [1e-300, 1e-12] or
[1e12, 1e300], beyond the range `ConstrainedRateQuery` accepts, plus pairs with
d1 = 5e-324, whose rate tau1/d1 overflows.  The referee reads the same float
inputs (p1, p2, tau1, tau2, d1, d2) and evaluates

    g_i - tau_i/d_i >= -tol                     (single_user_1, single_user_2)
    sum-rate slack of `constrained` at c = d1/d2 >= -tol

in 50-digit arithmetic.  A slack decides the verdict only when it lies
clear of -tol by more than 1e-12 times the sum of the magnitudes of its
terms (the band): closer than that, the float inputs' own rounding of the
gammas and the products can carry it to either side.

The pentagon corners A and B, which the closed forms and `ct_contains`
share, are refereed against a 200-digit difference of gammas, and their
branch-1 and branch-2 images against the branch maps evaluated in 50 digits
on the same float gammas and corners.  The region vertices and the sub-region
optima the library returns are refereed against a 250-digit evaluation from P
and tau alone.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from macct import (
    EPS_MEM,
    ChannelConfig,
    CompletionTimePair,
    TrafficLoad,
    corner_points,
    build_region,
    ct_contains,
    gamma,
    map_rate_to_ct,
    minimize_subregion,
)
from refvals import DOMAINS, log_uniform_instances

mpmath = pytest.importorskip("mpmath")

_BAND = 1e-12


def _referee(cfg: ChannelConfig, load: TrafficLoad, d: CompletionTimePair, tol: float):
    """True or False where the 50-digit slacks decide it clear of the band, else None."""
    mp, mpf = mpmath.mp, mpmath.mpf
    with mpmath.workdps(50):
        p1, p2 = mpf(cfg.p1), mpf(cfg.p2)
        g1, g2, g12 = (mpmath.log1p(p) / (2 * mpmath.log(2)) for p in (p1, p2, p1 + p2))
        r1, r2 = mpf(load.tau1) / mpf(d.d1), mpf(load.tau2) / mpf(d.d2)
        c = mpf(d.d1) / mpf(d.d2)
        if c >= 1:
            terms = ((c - 1) * g1, g12, -c * r1, -r2)
        else:
            terms = ((1 / c - 1) * g2, g12, -r1, -r2 / c)
        slacks = ((g1, -r1), (g2, -r2), terms)
        margins = [(mp.fsum(t) + tol, _BAND * mp.fsum(abs(x) for x in t)) for t in slacks]
    if any(m < -band for m, band in margins):
        return False
    if all(m > band for m, band in margins):
        return True
    return None


def _pairs(rng, n):
    """Seeded scenarios on p in [1e-8, 1e8], tau in [1e-6, 1e6], with c beyond its range.

    The early finisher sits within a factor 1 +- 1e-2 (log-uniformly as close
    as 1e-16) of its solo floor.  The late one either sits near its own floor,
    which puts the pair near a corner of the region, or finishes 1e12 to
    1e300 times later; one in ten has d1 = 5e-324.
    """
    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    def near(x):
        return x * (1.0 + float(rng.choice((-1.0, 1.0))) * log_uniform(1e-16, 1e-2))

    out = []
    while len(out) < n:
        cfg = ChannelConfig(log_uniform(1e-8, 1e8), log_uniform(1e-8, 1e8))
        load = TrafficLoad(log_uniform(1e-6, 1e6), log_uniform(1e-6, 1e6))
        floors = (load.tau1 / gamma(cfg.p1), load.tau2 / gamma(cfg.p2))
        kind = rng.choice(3, p=(0.1, 0.45, 0.45))
        if kind == 0:
            d = (5e-324, near(floors[1]) * log_uniform(1e-3, 1e3))
        else:
            early = int(rng.integers(2))
            times = [0.0, 0.0]
            times[early] = near(floors[early])
            if kind == 1:
                times[1 - early] = near(floors[1 - early])
            else:
                times[1 - early] = times[early] * log_uniform(1e12, 1e300)
            d = tuple(times)
        if not all(0.0 < t < 1e300 for t in d):
            continue
        c = d[0] / d[1]
        if d[0] == 5e-324 or 1e-300 <= c < 1e-12 or 1e12 < c <= 1e300:
            out.append((cfg, load, CompletionTimePair(*d)))
    return out


@pytest.mark.parametrize("tol", [EPS_MEM, 0.0])
def test_ct_contains_matches_the_referee_beyond_the_c_range(tol):
    judged = {True: 0, False: 0}
    pairs = _pairs(np.random.default_rng(1109), 1500)
    for cfg, load, d in pairs:
        got = ct_contains(cfg, load, d, tol)
        assert type(got) is bool
        want = _referee(cfg, load, d, tol)
        if want is not None:
            assert got == want, (cfg, load, d, tol)
            judged[want] += 1
    # most pairs are judged (at tol 0 about a quarter sit inside the band), and
    # both verdicts occur
    assert judged[True] > 100 and judged[False] > 100
    assert sum(judged.values()) > 0.6 * len(pairs)


@pytest.mark.parametrize("domain", DOMAINS)
def test_corner_rates_match_a_200_digit_difference_of_gammas(domain):
    # A = (g12 - g2, g2) and B = (g1, g12 - g1).  On the extreme domain a difference keeps
    # 1e-80 of g12, so the referee subtracts at 200 digits; the library computes each
    # difference as a successive-decoding rate, with no subtraction.
    rng = np.random.default_rng(9)
    with mpmath.workdps(200):
        for cfg, _ in log_uniform_instances(rng, domain, 200):
            p1, p2 = mpmath.mpf(cfg.p1), mpmath.mpf(cfg.p2)
            g1, g2, g12 = (mpmath.log1p(p) / (2 * mpmath.log(2)) for p in (p1, p2, p1 + p2))
            a, b = corner_points(cfg)
            for got, want in ((a.r1, g12 - g2), (a.r2, g2), (b.r1, g1), (b.r2, g12 - g1)):
                assert abs(got - want) <= 4 * math.ulp(got), (cfg, got, want)


def _branch_image(g1, g2, r, tau1, tau2, branch):
    """The branch map at 50 digits: the early finisher at its rate, the late one's rest solo."""
    with mpmath.workdps(50):
        g1, g2, tau1, tau2, r1, r2 = map(mpmath.mpf, (g1, g2, tau1, tau2, *r))
        if branch == 1:
            return tau1 / r1, tau2 / g2 + (g2 - r2) * tau1 / (g2 * r1)
        return tau1 / g1 + (g1 - r1) * tau2 / (g1 * r2), tau2 / r2


@pytest.mark.parametrize("domain, top", [("wide", None), ("extreme", None), ("extreme", 1024)])
def test_corner_images_match_the_50_digit_branch_maps(domain, top):
    # With top, each load is scaled by a power of two so that the larger lies in
    # [2**(top-1), 2**top): a product of a load and a rate overflows while most images do not.
    # An image beyond the float range must be refused with a ValueError.  The referee reads the
    # library's float gammas and corners, so the rounding of g_i - r_i is not judged here.
    rng = np.random.default_rng(13)
    finite = refused = 0
    for cfg, load in log_uniform_instances(rng, domain, 200):
        if top is not None:
            e = top - math.frexp(max(load.tau1, load.tau2))[1]
            load = TrafficLoad(math.ldexp(load.tau1, e), math.ldexp(load.tau2, e))
        g1, g2 = gamma(cfg.p1), gamma(cfg.p2)
        for r in corner_points(cfg):
            for branch in (1, 2):
                want = _branch_image(g1, g2, r.as_tuple(), load.tau1, load.tau2, branch)
                if max(want) > sys.float_info.max:
                    with pytest.raises(ValueError, match="must be finite, got inf"):
                        map_rate_to_ct(cfg, load, branch, r)
                    refused += 1
                    continue
                got = map_rate_to_ct(cfg, load, branch, r).as_tuple()
                for x, y in zip(got, want):
                    assert abs(x - y) <= 4 * math.ulp(float(y)), (cfg, load, branch, r, got)
                finite += 1
    assert finite > 300 and (top is None) == (refused == 0)


def _exact_points(cfg: ChannelConfig, load: TrafficLoad) -> dict:
    """Cbar and each corner's image on each branch, in 250 digits from P and tau alone."""
    with mpmath.workdps(250):
        p1, p2, tau1, tau2 = map(mpmath.mpf, (cfg.p1, cfg.p2, load.tau1, load.tau2))
        g1, g2, g12 = (mpmath.log1p(p) / (2 * mpmath.log(2)) for p in (p1, p2, p1 + p2))
        t = max(tau1 / g1, tau2 / g2, (tau1 + tau2) / g12)
        points = {"C": (t, t)}
        for label, (r1, r2) in (("A", (g12 - g2, g2)), ("B", (g1, g12 - g1))):
            points[label, 1] = tau1 / r1, tau2 / g2 + (g2 - r2) * tau1 / (g2 * r1)
            points[label, 2] = tau1 / g1 + (g1 - r1) * tau2 / (g1 * r2), tau2 / r2
    return points


_VERTEX_KEYS = {"Cbar": "C", "Abar'": ("A", 1), "Bbar'": ("B", 1), "Abar": ("A", 2),
                "Bbar": ("B", 2)}


@pytest.mark.parametrize("domain", DOMAINS)
def test_region_vertices_and_optima_match_a_250_digit_evaluation(domain):
    # The images of the corners a region holds keep their digits (every image does: see
    # test_every_corner_image_matches_a_250_digit_evaluation).
    rng = np.random.default_rng(3)
    checked = 0
    for cfg, load in log_uniform_instances(rng, domain, 200):
        exact = _exact_points(cfg, load)
        got = [(_VERTEX_KEYS[label], xy) for _, piece in build_region(cfg, load).pieces
               for label, xy in piece.vertices]
        for w in (0.0, 0.5, 1.0):
            for branch in (1, 2):
                out = minimize_subregion(cfg, load, branch, w)
                label = out.rate_point_label
                got.append(("C" if label == "C" else (label, branch),
                            out.optimizer_point.as_tuple()))
        for key, xy in got:
            for x, want in zip(xy, exact[key]):
                assert abs(x - want) <= 4 * math.ulp(float(want)), (cfg, load, key, x)
                checked += 1
    assert checked > 3000


@pytest.mark.parametrize("domain", DOMAINS)
def test_every_corner_image_matches_a_250_digit_evaluation(domain):
    # Both corners on both branches, held by the region or not.  Where the late finisher runs at
    # its corner rate s (B on branch 1, A on branch 2), its spare rate g - s is the gap
    # gamma(P1*P2/(1+P1+P2)); the difference of the float gammas cancels, up to the whole value.
    from macct.capacity import _corner_gammas
    from macct.ctregion import _corner_image

    rng = np.random.default_rng(3)
    checked = 0
    for cfg, load in log_uniform_instances(rng, domain, 400):
        exact = _exact_points(cfg, load)
        g = _corner_gammas(cfg)
        for label in "AB":
            for branch in (1, 2):
                got = _corner_image(g, load, branch, label)
                for x, want in zip(got, exact[label, branch]):
                    assert abs(x - want) <= 4 * math.ulp(float(want)), (cfg, load, label, branch)
                    checked += 1
    assert checked == 400 * 8
