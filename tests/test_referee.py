"""`ct_contains` against a 50-digit evaluation of the rate-space inequalities.

The pairs are those whose ratio c = d1/d2 lies in [1e-300, 1e-12] or
[1e12, 1e300], beyond the range `ct_query` accepts, plus pairs with
d1 = 5e-324, whose rate tau1/d1 overflows.  The referee reads the same float
inputs (p1, p2, tau1, tau2, d1, d2) and evaluates

    g_i - tau_i/d_i >= -tol                     (single_user_1, single_user_2)
    sum-rate slack of `constrained` at c = d1/d2 >= -tol

in 50-digit arithmetic.  A slack decides the verdict only when it lies
clear of -tol by more than 1e-12 times the sum of the magnitudes of its
terms (the band): closer than that, the float inputs' own rounding of the
gammas and the products can carry it to either side.

The pentagon corners A and B, which the closed forms and `ct_contains`
share, are refereed against a 200-digit difference of gammas.
"""

from __future__ import annotations

import numpy as np
import pytest

from macct import (
    EPS_MEM,
    ChannelConfig,
    CompletionTimePair,
    TrafficLoad,
    corner_points,
    ct_contains,
    gamma,
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
    import math

    rng = np.random.default_rng(9)
    with mpmath.workdps(200):
        for cfg, _ in log_uniform_instances(rng, domain, 200):
            p1, p2 = mpmath.mpf(cfg.p1), mpmath.mpf(cfg.p2)
            g1, g2, g12 = (mpmath.log1p(p) / (2 * mpmath.log(2)) for p in (p1, p2, p1 + p2))
            a, b = corner_points(cfg)
            for got, want in ((a.r1, g12 - g2), (a.r2, g2), (b.r1, g1), (b.r2, g12 - g1)):
                assert abs(got - want) <= 4 * math.ulp(got), (cfg, got, want)
