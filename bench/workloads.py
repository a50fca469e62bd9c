"""Seeded inputs, operations and correctness checks of the benchmark workloads.

Every workload is closed loop with one client: the next op starts only
after the previous one has returned and has been checked.  Inputs come
only from the seed; the library receives the generated scenarios and
nothing else.  Checks run outside the timed interval and rest only on the
definitional membership test `ct_contains`, schedule `validate`, the grid
oracle's verification bracket (the one `macct minimize --verify` applies),
and, at set-up, the frozen reference values of tests/refvals.py.

An op ends in one of three outcomes:

* ok       -- the op returned and every check passed;
* refused  -- the library raised a typed error (`ValueError`, which
              `InfeasibleError` subclasses), i.e. it declined the input;
              on a workload whose inputs are all valid this still makes
              the run incorrect (`refusals_allowed`);
* failed   -- a check found a wrong answer, or the op raised anything else
              (`ConsistencyError`, `AssertionError`, ...).

`synthesize` refusing an optimizer that the library itself returned is a
wrong answer of the optimizer, not a refusal of the input: the closed-form
op keeps that error in its result and the checks report it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

OK, REFUSED, FAILED = "ok", "refused", "failed"

# Weights of the closed-form op: both end points, where a piece degenerates
# to one user's floor, plus interior weights on both sides of 1/2.
WEIGHTS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
SAMPLE_POINTS = 6
# Share of loads placed exactly on a Case I/II or II/III boundary, where
# the library runs its adjacent-case cross-check.
BOUNDARY_SHARE = 0.05
MODERATE = ((1e-2, 1e4), (1e-2, 1e2))  # (power range, load range)
EDGE = ((1e-4, 1e6), (1e-4, 1e4))
CLOSED_FORM_POOL = 1024
# Small pools for the slow ops, so a run passes through each input
# several times; see run.Tally.
CERTIFY_POOL = 8
CLI_POOL = 6
# The CLI's default oracle resolution (`macct minimize --verify`).
CERTIFY_RESOLUTION = 2001
# Relative tolerance of value comparisons between two computations that
# should agree up to rounding.
REL_TOL = 1e-9


def gamma(x: float) -> float:
    """0.5*log2(1+x), written out here so input generation needs no library."""
    return 0.5 * math.log1p(x) / math.log(2.0)


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


@dataclass(frozen=True)
class Scenario:
    p1: float
    p2: float
    tau1: float
    tau2: float
    on_boundary: bool

    def minimax_time(self) -> float:
        """max of the three pentagon bounds at c = 1: the equal-time optimum."""
        return max(
            self.tau1 / gamma(self.p1),
            self.tau2 / gamma(self.p2),
            (self.tau1 + self.tau2) / gamma(self.p1 + self.p2),
        )


def draw_scenario(rng: random.Random, domain) -> Scenario:
    """Powers and loads log-uniform on the domain; some loads on a case boundary."""
    (p_lo, p_hi), (t_lo, t_hi) = domain
    p1, p2 = log_uniform(rng, p_lo, p_hi), log_uniform(rng, p_lo, p_hi)
    if rng.random() >= BOUNDARY_SHARE:
        return Scenario(p1, p2, log_uniform(rng, t_lo, t_hi), log_uniform(rng, t_lo, t_hi),
                        False)
    while True:  # a boundary ratio tau2/tau1 that both loads can meet on the domain
        g1, g2, g12 = gamma(p1), gamma(p2), gamma(p1 + p2)
        ratio = (g12 - g1) / g1 if rng.random() < 0.5 else g2 / (g12 - g2)
        lo, hi = max(t_lo, t_lo / ratio), min(t_hi, t_hi / ratio)
        if lo < hi:
            tau1 = log_uniform(rng, lo, hi)
            return Scenario(p1, p2, tau1, tau1 * ratio, True)
        p1, p2 = log_uniform(rng, p_lo, p_hi), log_uniform(rng, p_lo, p_hi)


def draw_points(rng: random.Random, s: Scenario, count: int) -> list[tuple[float, float]]:
    """Pairs around the solo floors: some inside the region, some outside."""
    lo1, lo2 = s.tau1 / gamma(s.p1), s.tau2 / gamma(s.p2)
    return [(lo1 * log_uniform(rng, 0.9, 4.0), lo2 * log_uniform(rng, 0.9, 4.0))
            for _ in range(count)]


class Checks:
    """Collects the outcome of each named check of one op."""

    def __init__(self) -> None:
        self.ran: set[str] = set()
        self.failures: list[str] = []

    def expect(self, name: str, condition: bool, detail: str = "") -> None:
        self.ran.add(name)
        if not condition:
            self.failures.append(f"{name}: {detail}" if detail else name)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def attempt(fn, *args):
    """Run fn(*args) on the clock: (seconds, result or None, exception or None).

    Any exception is returned, not raised: the caller classifies it as a
    refusal or a failure and keeps the closed loop running.
    """
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 -- counted by the caller
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, result, None


@dataclass
class Outcome:
    status: str
    detail: str = ""


class Workload:
    """Base: subclasses define `inputs`, `op`, `check` and the check names."""

    name = ""
    why = ""
    CHECKS: tuple[str, ...] = ()
    p99 = False
    # Whether the library may decline some of the workload's inputs.  Where
    # it may not, every input is valid and a refusal makes the run incorrect.
    refusals_allowed = False

    def __init__(self, m, root: Path) -> None:
        self.m = m
        self.root = root

    def inputs(self, seed: int, stream: str = "") -> list:
        """The seeded input pool; another `stream` gives other inputs of the same kind."""
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, result, checks: Checks) -> None:
        raise NotImplementedError

    def warm_up(self, seed: int) -> None:
        """Ops on inputs the timed loop never sees, so no result can be reused."""
        for inp in self.inputs(seed, "warm-up")[:50]:
            attempt(self.op, inp)

    def outcome(self, inp, result) -> Outcome:
        checks = Checks()
        self.check(inp, result, checks)
        skipped = set(self.CHECKS) - checks.ran
        if skipped:
            checks.failures.append("checks not run: " + ", ".join(sorted(skipped)))
        if checks.failures:
            return Outcome(FAILED, "; ".join(list(dict.fromkeys(checks.failures))[:3]))
        return Outcome(OK)


# --------------------------------------------------------------------------
# closed_form / edge_domain


@dataclass(frozen=True)
class ClosedFormInput:
    scenario: Scenario
    points: tuple[tuple[float, float], ...]


@dataclass
class ClosedFormResult:
    cfg: Any
    load: Any
    points: tuple
    region: Any
    solutions: list
    minimax: tuple
    memberships: list
    # (target pair, schedule, validation report), or (target, None, error)
    # when synthesize refused the target.
    plans: list = field(default_factory=list)


class ClosedForm(Workload):
    name = "closed_form"
    why = ("closed-form region, optima and schedules on the moderate domain; "
           "the oracle does no work")
    domain = MODERATE
    p99 = True
    CHECKS = (
        "region_matches_ct_contains",
        "weighted_optimizer_feasible",
        "weighted_value_matches_point",
        "weighted_not_beaten_by_members",
        "minimax_point_equal_times",
        "minimax_point_feasible",
        "minimax_not_beaten_by_members",
        "schedule_valid",
        "schedule_achieves_target",
    )

    def inputs(self, seed: int, stream: str = "") -> list[ClosedFormInput]:
        rng = random.Random(f"{self.name}:{seed}{stream}")
        out = []
        for _ in range(CLOSED_FORM_POOL):
            s = draw_scenario(rng, self.domain)
            out.append(ClosedFormInput(s, tuple(draw_points(rng, s, SAMPLE_POINTS))))
        return out

    def op(self, inp: ClosedFormInput) -> ClosedFormResult:
        # The library's objects are built from plain floats in every op, as a
        # caller would, so nothing cached on them carries over to the next pass.
        m, s = self.m, inp.scenario
        cfg, load = m.ChannelConfig(s.p1, s.p2), m.TrafficLoad(s.tau1, s.tau2)
        points = tuple(m.CompletionTimePair(*p) for p in inp.points)
        region = m.build_region(cfg, load)
        solutions = [m.minimize_weighted_sum(cfg, load, w) for w in WEIGHTS]
        value, point = m.minimax(cfg, load)
        memberships = [m.ct_contains(cfg, load, d) for d in points]
        result = ClosedFormResult(cfg, load, points, region, solutions, (value, point),
                                  memberships)
        for target in [s.optimizer_point for s in solutions] + [point]:
            try:
                plan = m.synthesize(cfg, load, target)
            except ValueError as exc:
                # The library refused its own optimizer: a wrong answer, which
                # the checks report, not a refusal of the scenario.
                result.plans.append((target, None, exc))
                continue
            result.plans.append((target, plan, m.validate(cfg, load, plan)))
        return result

    def check(self, inp: ClosedFormInput, r: ClosedFormResult, checks: Checks) -> None:
        m, cfg, load = self.m, r.cfg, r.load
        for d, member in zip(r.points, r.memberships):
            if not _near_boundary(r.region, d):
                checks.expect("region_matches_ct_contains",
                              _union_contains(r.region, d) == member,
                              f"({d.d1!r}, {d.d2!r}) ct_contains={member}")
        checks.ran.add("region_matches_ct_contains")  # every sample may sit on a boundary
        members = [d for d, member in zip(r.points, r.memberships) if member]
        value, point = r.minimax
        feasible_optimizers = []
        for sol in r.solutions:
            w, opt, x = sol.weight, sol.optimal_value, sol.optimizer_point
            feasible = m.ct_contains(cfg, load, x)
            checks.expect("weighted_optimizer_feasible", feasible,
                          f"w={w}: ({x.d1!r}, {x.d2!r}) not in region")
            if feasible:
                feasible_optimizers.append(x)
            checks.expect("weighted_value_matches_point",
                          close(opt, w * x.d1 + (1.0 - w) * x.d2), f"w={w}")
            best_member = min((w * d.d1 + (1.0 - w) * d.d2 for d in [*members, point]))
            checks.expect("weighted_not_beaten_by_members",
                          best_member >= opt - REL_TOL * max(1.0, abs(opt)),
                          f"w={w}: member objective {best_member!r} < optimum {opt!r}")
        checks.expect("minimax_point_equal_times",
                      close(point.d1, value) and close(point.d2, value),
                      f"value {value!r}, point ({point.d1!r}, {point.d2!r})")
        checks.expect("minimax_point_feasible", m.ct_contains(cfg, load, point))
        best_max = min((max(d.d1, d.d2) for d in [*members, *feasible_optimizers]),
                       default=math.inf)
        checks.expect("minimax_not_beaten_by_members",
                      best_max >= value - REL_TOL * max(1.0, value),
                      f"member max {best_max!r} < minimax {value!r}")
        for target, plan, report in r.plans:
            if plan is None:
                checks.expect("schedule_valid", False, f"synthesize refused: {report}")
                checks.ran.add("schedule_achieves_target")
                continue
            checks.expect("schedule_valid", report.ok, "; ".join(report.violations[:2]))
            checks.expect("schedule_achieves_target", plan.achieved == target)


class EdgeDomain(ClosedForm):
    name = "edge_domain"
    why = ("the closed_form op on the widest domain, where the library's "
           "conditioning shows as wrong answers and refusals")
    domain = EDGE
    refusals_allowed = True


def _halfplane_terms(hp, d) -> tuple[float, float]:
    slack = hp.a * d.d1 + hp.b * d.d2 - hp.c
    scale = abs(hp.a * d.d1) + abs(hp.b * d.d2) + abs(hp.c)
    return slack, scale


def _union_contains(region, d, tol: float = 1e-9) -> bool:
    return any(all(_halfplane_terms(hp, d)[0] >= -tol for hp in piece.halfplanes)
               for _, piece in region.pieces)


def _near_boundary(region, d, rel: float = 1e-7) -> bool:
    """Within rounding of a half-plane line, where two exact tests may differ."""
    for _, piece in region.pieces:
        for hp in piece.halfplanes:
            slack, scale = _halfplane_terms(hp, d)
            if abs(slack) <= rel * scale + 1e-9:
                return True
    return False


# --------------------------------------------------------------------------
# certify


@dataclass(frozen=True)
class CertifyInput:
    scenario: Scenario
    weight: float


class Certify(Workload):
    name = "certify"
    why = ("what `macct minimize --verify` runs: grid oracles at resolution 2001, "
           "where the oracle layer does nearly all the work")
    CHECKS = (
        "weighted_in_oracle_bracket",
        "minimax_in_oracle_bracket",
        "oracle_points_feasible",
        "region_equivalence_empty",
    )
    # default_grid declines some moderate scenarios today (see README.md).
    refusals_allowed = True

    def inputs(self, seed: int, stream: str = "") -> list[CertifyInput]:
        rng = random.Random(f"{self.name}:{seed}{stream}")
        return [CertifyInput(draw_scenario(rng, MODERATE), rng.random())
                for _ in range(CERTIFY_POOL)]

    def op(self, inp: CertifyInput, resolution: int = CERTIFY_RESOLUTION):
        m, s = self.m, inp.scenario
        cfg, load = m.ChannelConfig(s.p1, s.p2), m.TrafficLoad(s.tau1, s.tau2)
        spec = m.default_grid(cfg, load, resolution)
        return (
            m.oracle_weighted_min(cfg, load, inp.weight, spec),
            m.oracle_minimax(cfg, load, spec),
            m.oracle_region_equivalence(cfg, load, spec),
        )

    def warm_up(self, seed: int) -> None:
        for inp in self.inputs(seed, "warm-up")[:2]:
            attempt(self.op, inp, 201)

    def check(self, inp: CertifyInput, result, checks: Checks) -> None:
        m, s = self.m, inp.scenario
        cfg, load = m.ChannelConfig(s.p1, s.p2), m.TrafficLoad(s.tau1, s.tau2)
        weighted, mm, disagreements = result
        closed_w = m.minimize_weighted_sum(cfg, load, inp.weight).optimal_value
        closed_mm = m.minimax(cfg, load)[0]
        for name, value, report in (("weighted_in_oracle_bracket", closed_w, weighted),
                                    ("minimax_in_oracle_bracket", closed_mm, mm)):
            checks.expect(name, in_verify_bracket(value, report),
                          f"closed form {value!r}, oracle {report.optimum_value!r} "
                          f"gap {report.certified_gap_bound!r}")
            checks.expect("oracle_points_feasible", m.ct_contains(cfg, load, report.optimizer))
        checks.expect("region_equivalence_empty", not disagreements,
                      f"{len(disagreements)} grid points disagree")


def in_verify_bracket(value: float, report) -> bool:
    """The acceptance bracket of `macct minimize --verify`."""
    return (report.optimum_value - report.certified_gap_bound - 1e-12
            <= value <= report.optimum_value + 1e-9)


# --------------------------------------------------------------------------
# cli

CLI_COMMANDS = ("region", "region_csv", "check", "minimize_weight", "minimize_minimax",
                "schedule")


@dataclass(frozen=True)
class CliInput:
    kind: str
    argv: tuple[str, ...]
    scenario: Scenario
    pair: tuple[float, float]
    weight: float


class Cli(Workload):
    name = "cli"
    why = ("sequential `python -m macct` runs of every subcommand but --verify; "
           "interpreter start and import dominate")
    CHECKS = ("exit_code", "schema_version", "agrees_with_library")

    def __init__(self, m, root: Path) -> None:
        super().__init__(m, root)
        self.env = child_env(root)
        self.child_peak_kb = 0

    def inputs(self, seed: int, stream: str = "") -> list[CliInput]:
        rng = random.Random(f"{self.name}:{seed}{stream}")
        out = []
        for k in range(CLI_POOL):
            s = draw_scenario(rng, MODERATE)
            kind = CLI_COMMANDS[k % len(CLI_COMMANDS)]
            if kind == "check":
                pair = draw_points(rng, s, 1)[0]
            else:  # strictly inside: the region is upward closed
                t = s.minimax_time()
                pair = (t * log_uniform(rng, 1.0, 2.0), t * log_uniform(rng, 1.0, 2.0))
            weight = rng.random()
            out.append(CliInput(kind, cli_argv(kind, s, pair, weight), s, pair, weight))
        return out

    def op(self, inp: CliInput):
        """One `python -m macct` child; returns (exit code, stdout)."""
        proc = subprocess.Popen([sys.executable, "-m", "macct", *inp.argv], cwd=self.root,
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        with proc.stdout:
            out = proc.stdout.read()
        # wait4 reaps the child and returns its own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, out.decode()

    def warm_up(self, seed: int) -> None:
        """Every subcommand once in-process: imports the CLI without a child's start-up noise."""
        for inp in self.inputs(seed, "warm-up"):
            attempt(cli_in_process, self.m, inp.argv)

    def outcome(self, inp: CliInput, result) -> Outcome:
        code = result[0]
        try:
            self.expected(inp)
        except ValueError as exc:
            # The library declines this input too.  Exit 2 (invalid input) and
            # exit 1 (infeasible pair) are then the CLI's typed refusals.
            if code in (1, 2):
                return Outcome(REFUSED, f"{inp.kind}: exit {code}")
            return Outcome(FAILED, f"{inp.kind}: exit {code}, library raised {exc!r}")
        # The library accepts the input, so the exit code must be the expected one.
        return super().outcome(inp, result)

    def check(self, inp: CliInput, result, checks: Checks) -> None:
        code, out = result
        expected_code, expected = self.expected(inp)
        checks.expect("exit_code", code == expected_code, f"{inp.kind}: exit {code}")
        if inp.kind == "region_csv":
            checks.ran.add("schema_version")
            rows = [tuple(float(v) for v in line.split(",")) for line in out.split()[1:]]
            checks.expect("agrees_with_library",
                          out.split()[:1] == ["d1,d2"] and rows == expected, inp.kind)
            return
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            doc = {}
        checks.expect("schema_version", doc.get("schema_version") == 1, inp.kind)
        checks.expect("agrees_with_library", _project(inp.kind, doc) == expected,
                      f"{inp.kind}: {_project(inp.kind, doc)!r} != {expected!r}")

    def expected(self, inp: CliInput):
        """Exit code and document fields the in-process library implies."""
        m, s = self.m, inp.scenario
        cfg, load = m.ChannelConfig(s.p1, s.p2), m.TrafficLoad(s.tau1, s.tau2)
        d = m.CompletionTimePair(*inp.pair)
        if inp.kind in ("region", "region_csv"):
            value, _ = m.minimax(cfg, load)
            box = 4.0 * value
            poly = [(r12(x), r12(y)) for x, y in m.boundary_polyline(cfg, load, box, box)]
            if inp.kind == "region_csv":
                return 0, poly
            return 0, (m.build_region(cfg, load).case.value, r12(value),
                       [list(p) for p in poly])
        if inp.kind == "check":
            member = m.ct_contains(cfg, load, d)
            return (0 if member else 1), member
        if inp.kind == "minimize_weight":
            sol = m.minimize_weighted_sum(cfg, load, inp.weight)
            x = sol.optimizer_point
            return 0, (r12(sol.optimal_value), r12(x.d1), r12(x.d2))
        if inp.kind == "minimize_minimax":
            value, x = m.minimax(cfg, load)
            return 0, (r12(value), r12(x.d1), r12(x.d2))
        plan = m.synthesize(cfg, load, d)
        ok = m.validate(cfg, load, plan).ok
        return (0 if ok else 3), ("pass" if ok else "fail", r12(d.d1), r12(d.d2))


def _project(kind: str, doc: dict):
    """The fields of a CLI document that `Cli.expected` predicts."""
    try:
        if kind == "region":
            return (doc["case"], doc["minimax"]["value"], doc["boundary_polyline"])
        if kind == "check":
            return doc["member"]
        if kind in ("minimize_weight", "minimize_minimax"):
            return (doc["value"], doc["point"]["d1"], doc["point"]["d2"])
        return (doc["validation"], doc["achieved"]["d1"], doc["achieved"]["d2"])
    except (KeyError, TypeError):
        return None


def r12(x: float) -> float:
    return float(f"{float(x):.12g}")


def cli_argv(kind: str, s: Scenario, pair, weight: float) -> tuple[str, ...]:
    flags = ("--p1", repr(s.p1), "--p2", repr(s.p2), "--tau1", repr(s.tau1),
             "--tau2", repr(s.tau2))
    if kind == "region":
        return ("region", *flags)
    if kind == "region_csv":
        return ("region", *flags, "--csv")
    if kind == "check":
        return ("check", *flags, repr(pair[0]), repr(pair[1]))
    if kind == "minimize_weight":
        return ("minimize", *flags, "--weight", repr(weight))
    if kind == "minimize_minimax":
        return ("minimize", *flags, "--minimax")
    return ("schedule", *flags, repr(pair[0]), repr(pair[1]))


def cli_in_process(m, argv) -> tuple[int, str]:
    """`macct.cli.main(argv)` with its output captured, as the child would run it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = m.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


WORKLOADS = {w.name: w for w in (ClosedForm, EdgeDomain, Certify, Cli)}


# --------------------------------------------------------------------------
# set-up reference check


def reference_check(m, refvals) -> list[str]:
    """Compare the library with the frozen values of tests/refvals.py."""
    r = refvals
    problems: list[str] = []

    def expect(name, got, want, rel=1e-12):
        got, want = _as_tuple(got), _as_tuple(want)
        if len(got) != len(want) or not all(close(g, w, rel) for g, w in zip(got, want)):
            problems.append(f"{name}: got {got!r}, frozen {want!r}")

    a, b = m.corner_points(r.CFG33)
    expect("corner A", a.as_tuple(), r.A_33)
    expect("corner B", b.as_tuple(), r.B_33)
    expect("gamma(6)", m.gamma(6.0), r.G6)
    th = m.thresholds(r.CFG33, r.LOAD_II)
    expect("w1", th.w1, r.W1_33)
    expect("w2", th.w2, r.W2_33)
    sol = m.minimize_weighted_sum(r.CFG33, r.LOAD_II, 0.2)
    expect("weighted value w=0.2", sol.optimal_value, r.VALUE_W02_II)
    expect("weighted point w=0.2", sol.optimizer_point.as_tuple(), r.ABAR_II)
    expect("weighted value w=0.5", m.minimize_weighted_sum(r.CFG33, r.LOAD_II, 0.5).optimal_value,
           r.VALUE_W05_II)
    vertices = {
        "I": {"Abar": r.ABAR_I, "Bbar": r.BBAR_I, "Cbar": (r.CBAR_I,) * 2},
        "II": {"Abar": r.ABAR_II, "Bbar'": r.BBARP_II, "Cbar": (r.CBAR_II,) * 2},
        "III": {"Abar'": r.ABARP_III, "Bbar'": r.BBARP_III, "Cbar": (r.CBAR_III,) * 2},
    }
    for case, cfg, load in r.REFERENCE_INSTANCES:
        region = m.build_region(cfg, load)
        if region.case.value != case:
            problems.append(f"case of instance {case}: got {region.case.value}")
        labelled = {label: xy for _, piece in region.pieces for label, xy in piece.vertices}
        for label, want in vertices[case].items():
            expect(f"Case {case} vertex {label}", labelled.get(label, ()), want)
        expect(f"Case {case} minimax", m.minimax(cfg, load)[0], vertices[case]["Cbar"][0])
    return problems


def _as_tuple(x) -> tuple:
    return tuple(x) if isinstance(x, (tuple, list)) else (x,)
