"""Frozen reference values and instance helpers shared by the test suite.

Every constant below was computed independently of the library with a
30-digit mpmath evaluation of the defining formulas (g(x) = 0.5*log2(1+x)
and plain rational arithmetic), then frozen at 17 significant digits:

    from mpmath import mp, mpf, log
    mp.dps = 30
    g = lambda x: log(1 + mpf(x), 2) / 2
    g3, g6 = g(3), g(6)                      # 1, 1.4036774610288021
    abar = (1 + (2*g3 - g6)) / g3            # d2-map of corner A, tau=(1,1)
    ...

The reference channel is P1 = P2 = 3, where g(3) = 1 exactly, paired with
loads (1, 0.2), (1, 1) and (0.2, 1) to hit Cases I, II and III.
"""

from __future__ import annotations

# numpy is imported inside the sampling helpers: `bench/run.py` loads this file
# for its reference constants in every set-up, which needs no numpy.
TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import numpy as np

from macct import (
    ChannelConfig,
    CompletionTimePair,
    TrafficLoad,
    ct_contains,
    gamma,
)

G6 = 1.4036774610288021          # gamma(6) = 0.5*log2(7)
A_33 = (0.40367746102880205, 1.0)            # pentagon corner A at P=(3,3)
B_33 = (1.0, 0.40367746102880205)            # pentagon corner B

# Case II instance: P=(3,3), tau=(1,1)
ABAR_II = (1.5963225389711979, 1.0)          # d2-map of A
BBARP_II = (1.0, 1.5963225389711979)         # d1-map of B
CBAR_II = 1.4248287484320887                 # 2/gamma(6), equal components
W1_33 = 0.28758562578395565                  # (gamma(6)-1)/gamma(6)
W2_33 = 0.71241437421604435                  # 1/gamma(6)
VALUE_W02_II = 1.1192645077942396            # 0.2*Abar.d1 + 0.8*Abar.d2
VALUE_W05_II = 1.2981612694855990            # tie value at w = 0.5

# Case I instance: P=(3,3), tau=(1,0.2)
ABAR_I = (1.1192645077942396, 0.2)           # d2-map of A
BBAR_I = (1.0, 0.49544505033866670)          # d2-map of B
CBAR_I = 1.0

# Case III instance: P=(3,3), tau=(0.2,1)
ABARP_III = (0.49544505033866670, 1.0)       # d1-map of A
BBARP_III = (0.2, 1.1192645077942396)        # d1-map of B
CBAR_III = 1.0

CFG33 = ChannelConfig(3.0, 3.0)
LOAD_I = TrafficLoad(1.0, 0.2)
LOAD_II = TrafficLoad(1.0, 1.0)
LOAD_III = TrafficLoad(0.2, 1.0)
REFERENCE_INSTANCES = (
    ("I", CFG33, LOAD_I),
    ("II", CFG33, LOAD_II),
    ("III", CFG33, LOAD_III),
)


def random_instance(rng: np.random.Generator, case: str | None = None):
    """A random channel and, when requested, a load forcing one case."""
    import numpy as np

    p1 = float(np.exp(rng.uniform(np.log(0.2), np.log(50.0))))
    p2 = float(np.exp(rng.uniform(np.log(0.2), np.log(50.0))))
    cfg = ChannelConfig(p1, p2)
    g1, g2, g12 = gamma(p1), gamma(p2), gamma(p1 + p2)
    t_low = (g12 - g1) / g1         # Case I/II classification boundary
    t_high = g2 / (g12 - g2)        # Case II/III boundary
    if case == "I":
        ratio = t_low * rng.uniform(0.1, 0.95)
    elif case == "II":
        frac = rng.uniform(0.05, 0.95)
        ratio = t_low * (t_high / t_low) ** frac
    elif case == "III":
        ratio = t_high * rng.uniform(1.05, 10.0)
    else:
        ratio = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
    tau1 = float(rng.uniform(0.3, 3.0))
    return cfg, TrafficLoad(tau1, tau1 * ratio)


def sample_members(
    rng: np.random.Generator,
    cfg: ChannelConfig,
    load: TrafficLoad,
    count: int,
    side: str | None = None,
) -> list[CompletionTimePair]:
    """Rejection-sample feasible pairs, optionally restricted to one piece.

    The box runs from 0.95 * the smaller solo floor to 3 * the equal-time
    optimum, which the c = 1 constraints give as
    max(tau1/g1, tau2/g2, (tau1+tau2)/g12).
    """
    g1, g2, g12 = gamma(cfg.p1), gamma(cfg.p2), gamma(cfg.p1 + cfg.p2)
    lo = 0.95 * min(load.tau1 / g1, load.tau2 / g2)
    hi = 3.0 * max(load.tau1 / g1, load.tau2 / g2, (load.tau1 + load.tau2) / g12)
    out: list[CompletionTimePair] = []
    while len(out) < count:
        d1 = float(rng.uniform(lo, hi))
        d2 = float(rng.uniform(lo, hi))
        if side == "d1<=d2" and d1 > d2:
            d1, d2 = d2, d1
        elif side == "d1>=d2" and d1 < d2:
            d1, d2 = d2, d1
        d = CompletionTimePair(d1, d2)
        if ct_contains(cfg, load, d):
            out.append(d)
    return out


# Log-uniform (power range, load range) domains: the range the benchmark's
# closed-form workload draws from, a wide one, and one near the float range.
DOMAINS = {
    "moderate": ((1e-2, 1e4), (1e-2, 1e2)),
    "wide": ((1e-8, 1e8), (1e-6, 1e6)),
    "extreme": ((1e-40, 1e40), (1e-200, 1e200)),
}


def log_uniform_instances(rng: np.random.Generator, domain: str, count: int):
    """`count` (cfg, load) pairs with every power and load log-uniform on the domain."""
    import numpy as np

    (p_lo, p_hi), (t_lo, t_hi) = DOMAINS[domain]
    powers = np.exp(rng.uniform(np.log(p_lo), np.log(p_hi), (count, 2)))
    loads = np.exp(rng.uniform(np.log(t_lo), np.log(t_hi), (count, 2)))
    return [(ChannelConfig(float(p1), float(p2)), TrafficLoad(float(t1), float(t2)))
            for (p1, p2), (t1, t2) in zip(powers, loads)]


def late_rates(plan) -> tuple[float, float, int]:
    """A synthesized schedule's late-finisher rates (shared, solo, user), in `decompose_rate`'s
    fields: user 2 at d1 == d2, where there is no solo phase and its solo rate is 0.0."""
    user = 1 if plan.achieved.d1 > plan.achieved.d2 else 2
    solo = plan.phases[1].rates.as_tuple()[user - 1] if len(plan.phases) == 2 else 0.0
    return plan.phases[0].rates.as_tuple()[user - 1], solo, user
