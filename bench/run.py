#!/usr/bin/env python3
"""Benchmark of the macct library and CLI: seeded closed-loop workloads.

Run from the root of a checkout (the library is imported from its src/):

    python3 bench/run.py --workload closed_form --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all                   # every workload, one table

--trace 0 runs the workload for --seconds of timed op time and reports the
end-to-end metrics; --trace 1 is a separate run of a fixed number of ops
that wraps the library's public functions and reports per-layer metrics.
Every op's answer is checked outside the timed interval.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics ({name: {"value", "unit"}}); the full record, with the
machine facts and inputs, is written to bench/out/.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads here or in any child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1
# Reserved for confirming a claim on a seed not used while making it.
HOLDOUT_SEED = 5222
# The run length BENCHMARK.json fixes; compare.py uses it on both sides.
DEFAULT_SECONDS = 45
SETUP_REPEATS = 15
TRACED_OPS = {"closed_form": 300, "edge_domain": 300, "certify": 3, "cli": 24}
PROBE_REPEATS = 5
# The workloads BENCHMARK.json lists: no op fails on them at this commit.
GATED_WORKLOADS = ("closed_form", "cli")

# name: (unit, better, bound).  The bound is the share of the parent's
# median by which a metric may worsen before a change counts as a
# regression; for the ratios, which are often 0, any rise counts.  The
# timing bounds are wide because of the host noise that `Tally` describes:
# over ten seeds the interquartile range of a timing metric was 5-8% of its
# median on closed_form and cli when the host was calm, and up to 24% on
# cli when a slow spell covered several runs.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_p90_ms": ("ms", "lower", 0.25),
    "op_p99_ms": ("ms", "lower", 0.25),
    "fail_ratio": ("ratio", "lower", 0.0),
    "refusal_ratio": ("ratio", "lower", 0.0),
    "peak_rss_mb": ("MB", "lower", 0.1),
}
# Reported on every workload, never 0, so they can gate a change.
GATED = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")

PER_LAYER = (
    *(f"{layer}.{stat}" for layer in LAYERS for stat in ("calls_per_op", "self_us_per_op")),
    "capacity.gamma.calls_per_op",
    "capacity.gamma.distinct_ratio",
    "ctregion.ct_contains.calls_per_op",
    "ctregion.grid_points_per_op",
    "cli.interp_ms",
    "cli.import_ms",
    "cli.import_numpy_ms",
    "cli.command_ms",
    *(f"{layer}.errors" for layer in LAYERS),
    "trace_overhead_ratio",
)


class SetupError(Exception):
    """The checkout holds no usable library, or it fails the reference values."""


def load_library(root: Path):
    """Import macct from root/src and tests/refvals.py; nothing installed is used."""
    src = root / "src"
    refvals_path = root / "tests" / "refvals.py"
    if not (src / "macct" / "__init__.py").is_file() or not refvals_path.is_file():
        raise SetupError(f"no macct source (src/macct, tests/refvals.py) under {root}")
    sys.path.insert(0, str(src))
    m = importlib.import_module("macct")
    if Path(m.__file__).resolve().parent != (src / "macct").resolve():
        raise SetupError(f"imported macct from {m.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("refvals", refvals_path)
    refvals = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(refvals)
    return m, refvals


def setup(name: str, seed: int, root: Path):
    """Import, reference check, seeded inputs and warm-up; returns their time too."""
    t0 = time.perf_counter()
    m, refvals = load_library(root)
    problems = wl.reference_check(m, refvals)
    if problems:
        raise SetupError("library disagrees with tests/refvals.py: " + "; ".join(problems))
    workload = wl.WORKLOADS[name](m, root)
    inputs = workload.inputs(seed)
    workload.warm_up(seed)
    return workload, inputs, time.perf_counter() - t0


def judge(workload, inp, result, exc) -> wl.Outcome:
    if exc is not None:
        kind = wl.REFUSED if isinstance(exc, ValueError) else wl.FAILED
        return wl.Outcome(kind, f"{type(exc).__name__}: {exc}")
    try:
        return workload.outcome(inp, result)
    except Exception as err:  # noqa: BLE001 -- a check that cannot run is a failure
        return wl.Outcome(wl.FAILED, f"check raised {type(err).__name__}: {err}")


class Tally:
    """Outcomes and per-input times of one closed loop over a pool of inputs.

    The loop cycles through the pool, so every input runs once per pass.
    Shared machines alternate between speeds: on the 2-vCPU machine this was
    built on, other tenants slow every op by up to 1.6x in spells of 0.1 s
    to about a minute.  An input's latency is therefore its fastest time
    over the run, which measures the code rather than the neighbours;
    latency percentiles are taken over the inputs.  Each input also keeps
    its first time, from the pass on which no earlier op has seen it.

    Only these two times per input are kept, so the harness's memory does
    not grow with the number of ops and peak RSS stays the library's.
    """

    def __init__(self, pool: int) -> None:
        self.first = array("d", [math.inf]) * pool
        self.best = array("d", [math.inf]) * pool
        self.attempted = 0
        self.seconds = 0.0
        self.counts: Counter = Counter()
        self.samples: list[str] = []

    def add(self, index: int, seconds: float, outcome: wl.Outcome) -> None:
        """Op number `index` of the loop, on input `index % pool`."""
        i = index % len(self.best)
        if index < len(self.first):
            self.first[i] = seconds
        self.best[i] = min(self.best[i], seconds)
        self.attempted += 1
        self.seconds += seconds
        self.counts[outcome.status] += 1
        if outcome.status != wl.OK and len(self.samples) < 20:
            self.samples.append(f"{outcome.status}: {outcome.detail}")

    def latencies(self, first: bool = False) -> list[float]:
        """Each input's fastest (or first) time, over the inputs that ran."""
        times = self.first if first else self.best
        return list(times[:min(self.attempted, len(times))])

    def merge(self, other: "Tally") -> None:
        """Add another loop's outcomes; the times stay this loop's."""
        self.attempted += other.attempted
        self.seconds += other.seconds
        self.counts.update(other.counts)
        self.samples += other.samples


def incorrect_ops(workload, tally: Tally) -> int:
    """Failed ops, and refused ones on a workload whose inputs are all valid."""
    bad = tally.counts[wl.FAILED]
    if not workload.refusals_allowed:
        bad += tally.counts[wl.REFUSED]
    return bad


def percentile_ms(durations: list[float], p: int) -> float:
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[p - 1] * 1e3


def latency_metrics(durations: list[float], p99: bool) -> dict[str, float]:
    metrics = {
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": percentile_ms(durations, 50),
        "op_p90_ms": percentile_ms(durations, 90),
    }
    if p99:
        metrics["op_p99_ms"] = percentile_ms(durations, 99)
    return metrics


class Loop:
    """Closed loop over the inputs; each `run` goes on where the last one stopped."""

    def __init__(self, workload, op, inputs, tracer: Tracer | None = None) -> None:
        self.workload, self.op, self.inputs, self.tracer = workload, op, inputs, tracer
        self.tally = Tally(len(inputs))
        self.next = 0

    def run(self, ops: int | None = None, seconds: float | None = None) -> Tally:
        """Run for a number of ops or of timed seconds."""
        stop = None if ops is None else self.next + ops
        timed = 0.0
        while (stop is not None and self.next < stop) or (seconds is not None and timed < seconds):
            inp = self.inputs[self.next % len(self.inputs)]
            if self.tracer is not None:
                self.tracer.op = self.next
            dt, result, exc = wl.attempt(self.op, inp)
            if self.tracer is not None:
                self.tracer.op = None
            timed += dt
            self.tally.add(self.next, dt, judge(self.workload, inp, result, exc))
            self.next += 1
        return self.tally


def setup_seconds(name: str, seed: int, root: Path) -> float:
    """Set-up time of a fresh process: import, reference check, inputs, warm-up."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", "--workload", name,
           "--seed", str(seed), "--root", str(root)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


def end_to_end(name: str, seed: int, seconds: float, root: Path):
    workload, inputs, _ = setup(name, seed, root)
    # Set-ups spread over the run, so one slow spell cannot cover all of them.
    loop = Loop(workload, workload.op, inputs)
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(setup_seconds(name, seed, root))
        loop.run(seconds=seconds / SETUP_REPEATS)
    tally = loop.tally
    if name == "cli":
        peak_kb = workload.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = tally.attempted
    best = tally.latencies()
    metrics = {
        "setup_s": statistics.median(setups),
        **latency_metrics(best, workload.p99),
        "fail_ratio": tally.counts[wl.FAILED] / n,
        "refusal_ratio": tally.counts[wl.REFUSED] / n,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    first = latency_metrics(tally.latencies(first=True), workload.p99)
    extra = {
        "setup_samples_s": setups,
        "inputs": len(inputs),
        "passes": n / len(inputs),
        # Throughput over every op, slow spells included.
        "all_ops_per_s": n / tally.seconds,
        # The first pass, on which no op has seen its input before.  A cache
        # that reuses results across ops shows as a rise of repeat_speedup
        # over its baseline: the fastest-time latencies would credit it, but
        # a caller with fresh inputs would not see it.
        "first_pass": first,
        "repeat_speedup": first["op_p50_ms"] / metrics["op_p50_ms"],
    }
    return workload, tally, {k: (v, END_TO_END[k][0]) for k, v in metrics.items()}, extra


def per_layer(name: str, seed: int, root: Path, out_dir: Path):
    workload, inputs, _ = setup(name, seed, root)
    m = workload.m
    importlib.import_module("macct.cli")
    op = workload.op
    if name == "cli":  # a child process cannot be traced: trace main() in-process
        def op(inp):
            return wl.cli_in_process(m, inp.argv)
    ops = TRACED_OPS[name]
    tracer = Tracer()
    plain, traced = Loop(workload, op, inputs), Loop(workload, op, inputs, tracer)
    # Untraced and traced chunks of the same inputs alternate, so that a slow
    # spell of the host does not fall on one side of trace_overhead_ratio only.
    chunk = max(1, ops // 10)
    while traced.next < ops:
        plain.run(ops=chunk)
        tracer.install()
        try:
            traced.run(ops=min(chunk, ops - traced.next))
        finally:
            tracer.uninstall()
    tracer.write(out_dir / f"spans-{name}-seed{seed}.csv.gz")
    metrics = tracer.layer_metrics(ops)
    metrics.update(cli_probes(m, root, seed))
    metrics["trace_overhead_ratio"] = (statistics.median(traced.tally.latencies())
                                       / statistics.median(plain.tally.latencies()), "ratio")
    tally = Tally(len(inputs))
    tally.merge(plain.tally)
    tally.merge(traced.tally)
    extra = {"traced_ops": ops, "spans": len(tracer.spans), "inputs": len(inputs),
             "functions": tracer.function_table()}
    return workload, tally, {k: metrics[k] for k in PER_LAYER}, extra


def cli_probes(m, root: Path, seed: int) -> dict[str, tuple[float, str]]:
    """Interpreter start and imports in fresh processes; a command in-process."""
    env = wl.child_env(root)

    def child_seconds(code: str) -> float:
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        return float(proc.stdout.split()[-1])

    def wall(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, timeout=60, check=True)
        return time.perf_counter() - t0

    timer = "import time; t = time.perf_counter(); import {0}; print(time.perf_counter() - t)"
    interp = [wall("pass") for _ in range(PROBE_REPEATS)]
    imp = [child_seconds(timer.format("macct")) for _ in range(PROBE_REPEATS)]
    imp_np = [child_seconds(timer.format("numpy")) for _ in range(PROBE_REPEATS)]
    cli_inputs = wl.Cli(m, root).inputs(seed)
    wl.cli_in_process(m, cli_inputs[0].argv)
    commands = [wl.attempt(wl.cli_in_process, m, inp.argv)[0] for inp in cli_inputs * 2]
    return {
        "cli.interp_ms": (statistics.median(interp) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(imp) * 1e3, "ms"),
        "cli.import_numpy_ms": (statistics.median(imp_np) * 1e3, "ms"),
        "cli.command_ms": (statistics.median(commands) * 1e3, "ms"),
    }


def machine_facts(root: Path) -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "git_commit": _git_commit(root),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }
    return facts


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> list[str]:
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out.append(f"L{level} {kind} {size}")
    return out


def _git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def run_one(args, root: Path, out_dir: Path) -> int:
    t0 = time.perf_counter()
    if args.trace:
        workload, tally, metrics, extra = per_layer(args.workload, args.seed, root, out_dir)
        reported = list(PER_LAYER)
    else:
        workload, tally, metrics, extra = end_to_end(args.workload, args.seed, args.seconds,
                                                     root)
        reported = list(GATED)
    failed = incorrect_ops(workload, tally)
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": tally.attempted,
        "failed": tally.counts[wl.FAILED],
        "refused": tally.counts[wl.REFUSED],
        "refusals_allowed": workload.refusals_allowed,
        "incorrect_ops": failed,
        "correct": failed == 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "outcome_samples": tally.samples,
        "run_wall_s": time.perf_counter() - t0,
        "machine": machine_facts(root),
        **extra,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for sample in tally.samples[:5]:
        print(f"# {sample}")
    print(f"# {args.workload} seed={args.seed} ops={tally.attempted} "
          f"failed={record['failed']} refused={record['refused']} correct={record['correct']}")
    if "repeat_speedup" in extra:
        print(f"# first-pass op_p50_ms {extra['first_pass']['op_p50_ms']:.6g}, "
              f"repeat_speedup {extra['repeat_speedup']:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: record["metrics"][k] for k in reported},
    }))
    return 0


def run_all(args, root: Path, out_dir: Path) -> int:
    """Every workload in its own process; one table of every metric."""
    records = {}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", str(root), "--out", str(out_dir)]
        subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL, timeout=900, check=True)
        records[name] = json.loads(
            (out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
    names = list(PER_LAYER) if args.trace else list(END_TO_END)
    print(f"{'metric':36s} {'unit':>14s}" + "".join(f" {n:>14s}" for n in records))
    for metric in names:
        unit = next(r["metrics"][metric]["unit"] for r in records.values()
                    if metric in r["metrics"])
        cells = "".join(
            f" {r['metrics'][metric]['value']:14.6g}" if metric in r["metrics"] else f" {'-':>14s}"
            for r in records.values())
        print(f"{metric:36s} {unit:>14s}{cells}")
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["incorrect_ops"] for r in records.values()),
        "metrics": {f"{n}.{k}": v for n, r in records.items() for k, v in r["metrics"].items()},
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed op seconds of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", default=str(BENCH_DIR.parent),
                        help="checkout whose src/ and tests/refvals.py are measured")
    parser.add_argument("--out", default=str(BENCH_DIR / "out"), help="record directory")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root).resolve()
    out_dir = Path(args.out).resolve()
    try:
        if args.setup_probe:
            print(setup(args.workload, args.seed, root)[2])
            return 0
        if args.workload == "all":
            return run_all(args, root, out_dir)
        return run_one(args, root, out_dir)
    except SetupError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
