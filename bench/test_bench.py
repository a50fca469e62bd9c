"""Tests of the benchmark itself: its checks, its tracing and its contract.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def m():
    lib, _ = run.load_library(ROOT)
    run.importlib.import_module("macct.cli")
    return lib


def closed_form(m, n=40):
    w = wl.ClosedForm(m, ROOT)
    return w, w.inputs(run.DEFAULT_SEED)[:n]


def test_library_matches_frozen_reference_values(m):
    _, refvals = run.load_library(ROOT)
    assert wl.reference_check(m, refvals) == []


def test_clean_run_runs_every_check(m):
    w, inputs = closed_form(m)
    for inp in inputs:
        checks = wl.Checks()
        w.check(inp, w.op(inp), checks)
        assert checks.ran == set(w.CHECKS)
        assert checks.failures == []


def test_nudged_infeasible_optimizer_counts_as_failure(m, monkeypatch):
    real = m.minimize_weighted_sum

    def nudged(cfg, load, w):
        sol = real(cfg, load, w)
        x = sol.optimizer_point
        point = m.CompletionTimePair(0.99 * x.d1, 0.99 * x.d2)
        return dataclasses.replace(sol, optimizer_point=point,
                                   optimal_value=w * point.d1 + (1 - w) * point.d2)

    monkeypatch.setattr(m, "minimize_weighted_sum", nudged)
    w, inputs = closed_form(m)
    tally = run.Loop(w, w.op, inputs).run(ops=len(inputs))
    assert tally.counts[wl.FAILED] == len(inputs)
    assert tally.counts[wl.REFUSED] == 0
    assert any("weighted_optimizer_feasible" in s for s in tally.samples)


def test_typed_refusal_is_not_a_failure(m, monkeypatch):
    def refuse(cfg, load):
        raise m.InfeasibleError("declined")

    monkeypatch.setattr(m, "minimax", refuse)
    w, inputs = closed_form(m, 10)
    tally = run.Loop(w, w.op, inputs).run(ops=10)
    assert (tally.counts[wl.REFUSED], tally.counts[wl.FAILED]) == (10, 0)
    # Every closed_form input is valid, so refusing them is still incorrect;
    # on edge_domain the library may decline an input.
    assert run.incorrect_ops(w, tally) == 10
    assert run.incorrect_ops(wl.EdgeDomain(m, ROOT), tally) == 0


def test_cli_exit_codes_are_compared_when_the_library_accepts(m):
    w = wl.Cli(m, ROOT)
    inputs = w.inputs(run.DEFAULT_SEED)
    # argparse exits 2 on every child: a failure, not a refusal.
    tally = run.Loop(w, lambda inp: (2, ""), inputs).run(ops=len(inputs))
    assert tally.counts[wl.FAILED] == len(inputs)
    assert run.incorrect_ops(w, tally) == len(inputs)
    # An input the library declines too may be refused with exit 1 or 2.
    inp = inputs[0]
    bad = dataclasses.replace(inp, kind="minimize_weight", weight=1.5, argv=wl.cli_argv(
        "minimize_weight", inp.scenario, inp.pair, 1.5))
    assert w.outcome(bad, wl.cli_in_process(m, bad.argv)).status == wl.REFUSED


def test_untyped_exception_is_a_failure(m, monkeypatch):
    def inconsistent(cfg, load):
        raise m.ConsistencyError("cross-check failed")

    monkeypatch.setattr(m, "minimax", inconsistent)
    w, inputs = closed_form(m, 10)
    tally = run.Loop(w, w.op, inputs).run(ops=10)
    assert (tally.counts[wl.REFUSED], tally.counts[wl.FAILED]) == (0, 10)


def test_skipping_a_check_cannot_give_a_clean_run(m, monkeypatch):
    w, inputs = closed_form(m, 5)

    def partial_check(inp, result, checks):
        checks.expect("minimax_point_feasible", True)

    monkeypatch.setattr(w, "check", partial_check)
    tally = run.Loop(w, w.op, inputs).run(ops=5)
    assert tally.counts[wl.FAILED] == 5
    assert "checks not run" in tally.samples[0]


def test_certify_bracket_rejects_a_wrong_closed_form(m, monkeypatch):
    w = wl.Certify(m, ROOT)
    inp = w.inputs(run.DEFAULT_SEED)[0]
    result = w.op(inp, 101)
    assert w.outcome(inp, result).status == wl.OK
    real = m.minimax
    monkeypatch.setattr(m, "minimax", lambda cfg, load: (0.9 * real(cfg, load)[0],
                                                         real(cfg, load)[1]))
    outcome = w.outcome(inp, result)
    assert outcome.status == wl.FAILED and "minimax_in_oracle_bracket" in outcome.detail


def test_cli_documents_are_checked_against_the_library(m):
    w = wl.Cli(m, ROOT)
    for inp in w.inputs(run.DEFAULT_SEED)[:len(wl.CLI_COMMANDS)]:
        code, out = wl.cli_in_process(m, inp.argv)
        assert w.outcome(inp, (code, out)).status == wl.OK, inp.kind
        if inp.kind == "minimize_minimax":
            wrong = out.replace('"schema_version": 1', '"schema_version": 2')
            assert w.outcome(inp, (code, wrong)).status == wl.FAILED


def test_latency_is_each_inputs_fastest_time():
    # three inputs; the second pass ran slow, the third only partly
    durations = [1.0, 2.0, 3.0] + [1.5, 3.0, 4.5] + [0.9, 2.5]
    tally = run.Tally(3)
    for i, d in enumerate(durations):
        tally.add(i, d, wl.Outcome(wl.OK))
    assert tally.latencies() == [0.9, 2.0, 3.0]
    assert tally.latencies(first=True) == [1.0, 2.0, 3.0]
    assert (tally.attempted, len(tally.best)) == (8, 3)  # memory stays per input
    short = run.Tally(3)
    for i, d in enumerate([5.0, 6.0]):
        short.add(i, d, wl.Outcome(wl.OK))
    assert short.latencies() == [5.0, 6.0]


def test_results_reused_across_passes_show_in_the_first_pass(m):
    w, inputs = closed_form(m, 30)
    memo = {}

    def memoized(inp):
        if inp not in memo:
            memo[inp] = w.op(inp)
        return memo[inp]

    tally = run.Loop(w, memoized, inputs).run(ops=4 * len(inputs))
    assert tally.counts[wl.OK] == tally.attempted
    first, best = (statistics.median(tally.latencies(f)) for f in (True, False))
    assert first / best > 20


def test_same_seed_gives_same_inputs(m):
    a = [inp.scenario for inp in wl.ClosedForm(m, ROOT).inputs(7)]
    b = [inp.scenario for inp in wl.ClosedForm(m, ROOT).inputs(7)]
    c = [inp.scenario for inp in wl.ClosedForm(m, ROOT).inputs(8)]
    assert a == b != c
    assert any(s.on_boundary for s in a)


def traced_counts(m, w, inputs, ops):
    tracer = Tracer()
    tracer.install()
    try:
        run.Loop(w, w.op, inputs, tracer).run(ops=ops)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(ops)
    counts = {k: v for k, (v, _) in metrics.items()
              if k.endswith(("calls_per_op", "distinct_ratio", "grid_points_per_op", "errors"))}
    return tracer, counts


def test_traced_counts_repeat_exactly(m):
    w, inputs = closed_form(m, 20)
    first_tracer, first = traced_counts(m, w, inputs, 20)
    _, second = traced_counts(m, w, inputs, 20)
    assert first == second
    assert first["capacity.gamma.calls_per_op"] > 0
    assert first["oracle.calls_per_op"] == 0
    # Nested calls are charged to the callee's layer, under the caller's span.
    names = first_tracer.names
    by_id = {s[0]: s for s in first_tracer.spans}
    parents = {names[by_id[s[4]][1]] for s in first_tracer.spans
               if names[s[1]] == "capacity.gamma" and s[4] in by_id}
    assert any(p.startswith("optimize.") for p in parents)


def test_uninstall_restores_every_binding(m):
    originals = (m.gamma, m.optimize.gamma, m.oracle.ct_contains_grid, m.cli.main)
    tracer = Tracer()
    for _ in range(2):  # a traced run installs and uninstalls once per chunk
        tracer.install()
        assert m.optimize.gamma is not originals[1]
        tracer.uninstall()
        assert (m.gamma, m.optimize.gamma, m.oracle.ct_contains_grid, m.cli.main) == originals


def test_grid_points_are_counted_from_the_broadcast_shape(m):
    import numpy as np

    cfg, load = m.ChannelConfig(3.0, 3.0), m.TrafficLoad(1.0, 1.0)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        m.ct_contains_grid(cfg, load, np.linspace(1, 2, 5)[:, None], np.linspace(1, 2, 7)[None, :])
        m.ctregion.ct_contains_grid(cfg, load, np.ones(3), np.ones(3))
        tracer.op = None
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics(1)["ctregion.grid_points_per_op"][0] == 5 * 7 + 3


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.4 for v in parent]
    noisy = [5.0, 20.0] * 5
    assert compare.judge(parent, faster, "lower", 0.25) == (1.0, compare.IMPROVED)
    assert compare.judge(parent, slower, "lower", 0.25) == (0.0, compare.REGRESSED)
    assert compare.judge(parent, parent, "lower", 0.25) == (0.0, compare.WITHIN)
    assert compare.judge(parent, noisy, "lower", 0.25)[1] == compare.UNRESOLVED
    assert compare.judge([0.0] * 10, [0.0] * 9 + [0.1], "lower", 0.0)[1] == compare.WITHIN
    assert compare.judge([0.0] * 10, [0.1] * 10, "lower", 0.0)[1] == compare.REGRESSED


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert doc["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in doc["workloads"]] == list(run.GATED_WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [
        wl.WORKLOADS[n].why for n in run.GATED_WORKLOADS]
    assert [e["name"] for e in doc["end_to_end"]] == list(run.GATED)
    for e in doc["end_to_end"]:
        assert (e["unit"], e["better"], e["bound"]) == run.END_TO_END[e["name"]]
    assert [e["name"] for e in doc["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "closed_form",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
