#!/usr/bin/env python3
"""Compare two checkouts, parent and change, with one copy of the benchmark.

    python3 bench/compare.py --parent ../parent --change .
    python3 bench/compare.py --parent ../parent --change . --workloads certify

Ten pairs, each running both sides on one seed (seeds 1 to 10), alternating
which side runs first, with this directory's run.py and its run length for
both.  For each workload and
metric the report gives each side's median and quartiles, the fraction of
pairs the change wins (ties count for neither), and a verdict:

* improved     -- the change wins at least 9 pairs in 10 and the medians
                  differ by more than the parent's interquartile range;
* regressed    -- the change's median is worse than the parent's by more
                  than the metric's bound;
* unresolved   -- either side's interquartile range, as a share of its
                  median, is wider than the bound, and not every change run
                  beats every parent run;
* within bound -- none of the above.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import run

IMPROVED, REGRESSED, UNRESOLVED, WITHIN = "improved", "regressed", "unresolved", "within bound"
PAIRS = 10


def run_side(root: Path, workload: str, seed: int, out_dir: Path) -> dict:
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(run.DEFAULT_SECONDS), "--trace", "0",
           "--root", str(root), "--out", str(out_dir)]
    subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL, timeout=900, check=True)
    record = json.loads((out_dir / f"{workload}-seed{seed}-trace0.json").read_text())
    if not record["correct"] and workload in run.GATED_WORKLOADS:
        raise SystemExit(f"{root}: {workload} seed {seed} gave wrong answers")
    return {k: v["value"] for k, v in record["metrics"].items()}


def collect(parent: Path, change: Path, workloads: list[str]) -> dict:
    sides = {"parent": parent.resolve(), "change": change.resolve()}
    runs: dict = {"parent": {}, "change": {}}
    for workload in workloads:
        for side in sides:
            runs[side][workload] = []
        for i in range(PAIRS):
            seed = run.DEFAULT_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = run.BENCH_DIR / "out" / "compare" / side
                runs[side][workload].append(run_side(sides[side], workload, seed, out))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def judge(parent: list[float], change: list[float], better: str, bound: float):
    """(win fraction, verdict) of one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(a: float, b: float) -> bool:
        return sign * (a - b) < 0

    wins = sum(beats(c, p) for p, c in zip(parent, change)) / len(parent)
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    if pm == 0:
        worse_by = math.inf if beats(pm, cm) else 0.0
    else:
        worse_by = sign * (cm - pm) / abs(pm)
    all_beat = all(beats(c, p) for c in change for p in parent)
    if max(relative_spread(parent), relative_spread(change)) > bound and not all_beat:
        return wins, UNRESOLVED
    if wins >= 0.9 and abs(cm - pm) > p3 - p1 and beats(cm, pm):
        return wins, IMPROVED
    if worse_by > bound:
        return wins, REGRESSED
    return wins, WITHIN


def report(runs: dict) -> list[str]:
    lines = [f"{'workload':12s} {'metric':34s} {'parent median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s} {'wins':>5s}  verdict"]
    for workload, parent_runs in runs["parent"].items():
        change_runs = runs["change"][workload]
        for metric in parent_runs[0]:
            parent = [r[metric] for r in parent_runs]
            change = [r[metric] for r in change_runs]
            unit, better, bound = run.END_TO_END[metric]
            wins, verdict = judge(parent, change, better, bound)
            cells = []
            for values in (parent, change):
                q1, q2, q3 = quartiles(values)
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] {unit}")
            lines.append(f"{workload:12s} {metric:34s} {cells[0]:>34s} {cells[1]:>34s} "
                         f"{wins:5.2f}  {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workloads", default=",".join(run.GATED_WORKLOADS),
                        help="comma-separated; every workload of run.py may be named")
    args = parser.parse_args(argv)
    runs = collect(Path(args.parent), Path(args.change), args.workloads.split(","))
    print("\n".join(report(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
