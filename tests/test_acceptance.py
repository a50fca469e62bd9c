"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""

import contextlib
import json
import time

import numpy as np
import pytest

import macct.cli as cli
from macct import (
    ChannelConfig,
    CompletionTimePair,
    ConstrainedRateQuery,
    GridSpec,
    RatePair,
    TrafficLoad,
    build_region,
    clamp_transform,
    constrained_contains,
    ct_contains,
    default_grid,
    dominant_extreme_points,
    gamma,
    minimax,
    minimize_subregion,
    minimize_weighted_sum,
    objective_d,
    oracle_minimax,
    oracle_region_equivalence,
    oracle_weighted_min,
    region_contains,
    standard_capacity_region,
    synthesize,
    validate,
)
from refvals import (
    ABAR_II,
    BBARP_II,
    CBAR_II,
    CFG33,
    REFERENCE_INSTANCES,
    VALUE_W02_II,
    random_instance,
    sample_members,
)


@contextlib.contextmanager
def criterion(num: int, description: str, runtime_limit: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - t0
    if runtime_limit is not None and elapsed >= runtime_limit:
        print(f"ACCEPTANCE {num}: FAIL - {description} (runtime {elapsed:.2f}s)")
        raise AssertionError(
            f"criterion {num} runtime {elapsed:.2f}s exceeds {runtime_limit}s"
        )
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.2f} s) - {description}")


def test_criterion_1_constrained_region_two_representations_agree():
    with criterion(
        1,
        "direct c-constrained membership == pentagon membership of the clamp "
        "transform on 1e5 random samples, zero disagreements",
        runtime_limit=5.0,
    ):
        rng = np.random.default_rng(20260810)
        n = 100_000
        powers = rng.uniform(0.1, 100.0, size=(n, 2))
        rates = rng.uniform(0.05, 20.0, size=(n, 2))
        ratios = rng.uniform(0.05, 20.0, size=n)
        disagreements = 0
        for i in range(n):
            cfg = ChannelConfig(powers[i, 0], powers[i, 1])
            query = ConstrainedRateQuery(RatePair(rates[i, 0], rates[i, 1]), ratios[i])
            direct = constrained_contains(cfg, query, tol=1e-9)
            transformed = clamp_transform(cfg, query)
            via_pentagon = region_contains(
                standard_capacity_region(cfg), transformed.as_tuple(), tol=1e-9
            )
            disagreements += direct != via_pentagon
        assert disagreements == 0


def test_criterion_2_region_description_matches_definition():
    with criterion(
        2,
        "half-plane region description agrees with definitional membership on "
        "500x500 grids for 20 random instances across all cases",
        runtime_limit=30.0,
    ):
        rng = np.random.default_rng(2)
        instances = []
        for case, count in (("I", 7), ("II", 7), ("III", 6)):
            instances += [random_instance(rng, case) for _ in range(count)]
        assert len(instances) == 20
        for cfg, load in instances:
            lo = 0.5 * min(load.tau1 / gamma(cfg.p1), load.tau2 / gamma(cfg.p2))
            hi = 4.0 * max(load.tau1 / gamma(cfg.p1), load.tau2 / gamma(cfg.p2))
            spec = GridSpec(500, (lo, hi), (lo, hi))
            disagreements = oracle_region_equivalence(cfg, load, spec, eps_boundary=1e-6)
            assert disagreements == [], (cfg, load, disagreements[:5])


def test_criterion_3_weighted_sum_table_against_oracle():
    with criterion(
        3,
        "closed-form weighted-sum optimum inside the 2001^2 oracle bracket for "
        "all three cases and 21 weights; reference value pinned",
        runtime_limit=120.0,
    ):
        weights = [round(0.05 * k, 2) for k in range(21)]
        for _, cfg, load in REFERENCE_INSTANCES:
            spec = default_grid(cfg, load, 2001)
            for w in weights:
                closed = minimize_weighted_sum(cfg, load, w).optimal_value
                report = oracle_weighted_min(cfg, load, w, spec)
                # bracket: the oracle can only sit above the true optimum, by
                # at most the certified gap; 1e-9 covers membership tolerance
                assert closed <= report.optimum_value + 1e-9, (load, w)
                assert closed >= report.optimum_value - report.certified_gap_bound, (
                    load,
                    w,
                )
        reference = minimize_weighted_sum(CFG33, TrafficLoad(1, 1), 0.2).optimal_value
        assert abs(reference - 1.119265) <= 1e-6
        assert abs(reference - VALUE_W02_II) <= 1e-12
        oracle_ref = oracle_weighted_min(
            CFG33, TrafficLoad(1, 1), 0.2, default_grid(CFG33, TrafficLoad(1, 1), 2001)
        )
        assert abs(reference - oracle_ref.optimum_value) <= 2e-3


def test_criterion_4_minimax_closed_forms_and_oracle():
    with criterion(
        4,
        "minimax closed forms (2/gamma(6) and the two solo floors) to 1e-6, "
        "each inside the 2001^2 oracle bracket",
        runtime_limit=60.0,
    ):
        expected = {"I": 1.0, "II": CBAR_II, "III": 1.0}
        for case, cfg, load in REFERENCE_INSTANCES:
            value, point = minimax(cfg, load)
            assert abs(value - expected[case]) <= 1e-6
            assert point.d1 == pytest.approx(point.d2, rel=1e-12)
            report = oracle_minimax(cfg, load, default_grid(cfg, load, 2001))
            assert value <= report.optimum_value + 1e-9
            assert value >= report.optimum_value - report.certified_gap_bound


def test_criterion_5_subregion_convexity():
    with criterion(
        5,
        "1e3 random same-piece member pairs per instance: every convex "
        "combination is a member, zero failures",
    ):
        rng = np.random.default_rng(5)
        for _, cfg, load in REFERENCE_INSTANCES:
            failures = 0
            for side in ("d1<=d2", "d1>=d2"):
                members = sample_members(rng, cfg, load, 100, side)
                for _ in range(500):
                    i, j = rng.integers(0, len(members), size=2)
                    alpha = float(rng.uniform(0.0, 1.0))
                    mid = CompletionTimePair(
                        alpha * members[i].d1 + (1 - alpha) * members[j].d1,
                        alpha * members[i].d2 + (1 - alpha) * members[j].d2,
                    )
                    failures += not ct_contains(cfg, load, mid)
            assert failures == 0


def test_criterion_6_case_ii_non_convexity_witness():
    with criterion(
        6,
        "midpoint of the two Case II weighted-sum optimizers is not a member",
    ):
        mid = CompletionTimePair(
            0.5 * (ABAR_II[0] + BBARP_II[0]), 0.5 * (ABAR_II[1] + BBARP_II[1])
        )
        assert mid.d1 == pytest.approx(1.298161269485599, abs=1e-12)
        assert mid.d1 == mid.d2
        assert not ct_contains(CFG33, TrafficLoad(1, 1), mid)
        assert 2.0 / mid.d1 > gamma(6.0)  # induced sum rate exceeds the capacity


def test_criterion_7_schedule_synthesis_round_trip():
    with criterion(
        7,
        "validate(synthesize(d)) passes for 1e3 sampled members per instance; "
        "region vertices produce pentagon-tight shared phases",
        runtime_limit=10.0,
    ):
        rng = np.random.default_rng(7)
        for _, cfg, load in REFERENCE_INSTANCES:
            for d in sample_members(rng, cfg, load, 1000):
                report = validate(cfg, load, synthesize(cfg, load, d))
                assert report.ok, (d, report.violations)
            g1, g2 = gamma(cfg.p1), gamma(cfg.p2)
            g12 = gamma(cfg.p1 + cfg.p2)
            desc = build_region(cfg, load)
            for _, piece in desc.pieces:
                for label, (x, y) in piece.vertices:
                    s = synthesize(cfg, load, CompletionTimePair(x, y))
                    r1, r2 = s.phases[0].rates.as_tuple()
                    tight = min(abs(g1 - r1), abs(g2 - r2), abs(g12 - r1 - r2))
                    assert tight <= 1e-9, (label, s.phases[0])


def test_criterion_8_table_cells_match_dominant_extreme_points():
    with criterion(
        8,
        "sub-region closed form never exceeds the best dominant extreme point "
        "by more than 1e-12 (all cases, both branches, 50 weights each)",
    ):
        rng = np.random.default_rng(8)
        for _, cfg, load in REFERENCE_INSTANCES:
            for branch in (1, 2):
                candidates = dominant_extreme_points(cfg, load, branch)
                for w in rng.uniform(0.0, 1.0, size=50):
                    w = float(w)
                    closed = minimize_subregion(cfg, load, branch, w).optimal_value
                    best = min(
                        objective_d(cfg, load, branch, w, r) for _, r in candidates
                    )
                    assert closed <= best + 1e-12


def test_criterion_9_cli_contract(capsys):
    with criterion(
        9,
        "golden documents for the three reference scenarios and the full "
        "exit-code matrix {0, 1, 2, 3}",
    ):
        from pathlib import Path

        golden = Path(__file__).parent / "golden"
        flags = {
            "case_I": ["--p1", "3", "--p2", "3", "--tau1", "1", "--tau2", "0.2"],
            "case_II": ["--p1", "3", "--p2", "3", "--tau1", "1", "--tau2", "1"],
            "case_III": ["--p1", "3", "--p2", "3", "--tau1", "0.2", "--tau2", "1"],
        }
        for name, argv in flags.items():
            assert cli.main(["region", *argv]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc == json.loads((golden / f"region_{name}.json").read_text())
            assert cli.main(["minimize", *argv, "--minimax"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc == json.loads((golden / f"minimax_{name}.json").read_text())

        # exit-code matrix
        assert cli.main(["check", *flags["case_II"], "1.6", "1.1"]) == 0
        assert cli.main(["check", *flags["case_II"], "1.3", "1.3"]) == 1
        assert cli.main(["schedule", *flags["case_II"], "1.3", "1.3"]) == 1
        assert cli.main(["region", "--p1", "3", "--p2", "3", "--tau1", "1",
                         "--tau2", "-1"]) == 2
        assert cli.main(["minimize", *flags["case_II"], "--weight", "2"]) == 2
        assert _wrong_closed_form_exit_code() == 3
        capsys.readouterr()


def _wrong_closed_form_exit_code() -> int:
    """Exit code of --verify when the closed form is deliberately wrong."""
    from unittest import mock

    from macct import optimize
    from macct.optimize import WeightedSumSolution

    fake = WeightedSumSolution(0.2, 0.5, CompletionTimePair(1.0, 1.0), "A", 2, False)
    # `minimize` imports the optimizer when it runs, so the defining module is patched.
    with mock.patch.object(optimize, "minimize_weighted_sum", return_value=fake):
        return cli.main(
            ["minimize", "--p1", "3", "--p2", "3", "--tau1", "1", "--tau2", "1",
             "--weight", "0.2", "--verify", "--grid", "64"]
        )
