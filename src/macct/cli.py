"""Command-line front end.

Subcommands: `region` (export the region geometry as JSON or a CSV
boundary polyline), `check` (membership verdict for one pair), `minimize`
(weighted-sum or minimax optimum, optionally verified against the grid
oracle) and `schedule` (synthesize the achieving transmission schedule).

Exit codes: 0 success/member, 1 non-member or infeasible pair, 2 invalid
input, 3 oracle verification failed, 4 internal consistency error.  All
JSON output carries a schema_version field and numbers rounded to 12
significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# Each handler imports the layers only it runs (`optimize`, `oracle`, `schedule`): a child
# process compiles no module its subcommand does not use.
from .ctregion import (
    boundary_polyline,
    build_region,
    classify_case,
    ct_contains,
    ct_slacks,
    equal_time_vertex,
)
from .types import (
    EPS_MEM,
    ChannelConfig,
    CompletionTimePair,
    ConsistencyError,
    InfeasibleError,
    TrafficLoad,
    _require_resolution,
    _require_tol,
)

TYPE_CHECKING = False  # as typing.TYPE_CHECKING: `typing` costs each run its import
if TYPE_CHECKING:
    from typing import Any

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NON_MEMBER = 1
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3
EXIT_INTERNAL = 4

_DEFAULTS: dict[str, Any] = {"db": False, "tol": EPS_MEM, "grid": 2001, "bbox_scale": 4.0}
_REQUIRED = ("p1", "p2", "tau1", "tau2")


def r12(x: float) -> float | None:
    """Round to 12 significant digits for stable output; a non-finite x is None, JSON's null."""
    x = float(x)
    return float(f"{x:.12g}") if math.isfinite(x) else None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, *_settings(args))
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_NON_MEMBER
    except ValueError as err:
        # an invalid setting, named by its field, or a value the domain types refuse
        # (e.g. a minimax time beyond the float range)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except ConsistencyError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macct",
        description=(
            "Completion-time regions, optimal trade-offs and schedules for "
            "the two-user Gaussian multi-access channel."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", metavar="PATH", help="JSON file with key = flag name")
    common.add_argument("--p1", type=float, help="receive power of user 1 (linear SNR)")
    common.add_argument("--p2", type=float, help="receive power of user 2 (linear SNR)")
    common.add_argument("--db", action="store_true", default=None,
                        help="interpret --p1/--p2 as dB")
    common.add_argument("--tau1", type=float, help="bit load of user 1 per source unit")
    common.add_argument("--tau2", type=float, help="bit load of user 2 per source unit")
    common.add_argument("--tol", type=float,
                        help="membership tolerance of check and schedule (default 1e-9)")

    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser("region", parents=[common], help="export the region geometry")
    fmt = region.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--csv", action="store_true", help="CSV boundary polyline")
    region.add_argument("--bbox-scale", type=float, dest="bbox_scale",
                        help="ray truncation box, in units of the minimax value (default 4)")
    region.set_defaults(handler=_cmd_region)

    check = sub.add_parser("check", parents=[common], help="membership verdict for one pair")
    check.add_argument("d1", type=float)
    check.add_argument("d2", type=float)
    check.set_defaults(handler=_cmd_check)

    minimize = sub.add_parser("minimize", parents=[common], help="optimal completion times")
    target = minimize.add_mutually_exclusive_group(required=True)
    target.add_argument("--weight", type=float, help="weight w of d1 in w*d1 + (1-w)*d2")
    target.add_argument("--minimax", action="store_true", help="minimize max(d1, d2)")
    minimize.add_argument("--verify", action="store_true",
                          help="also run the grid oracle and report its bracket")
    minimize.add_argument("--grid", type=int, help="oracle resolution per axis (default 2001)")
    minimize.set_defaults(handler=_cmd_minimize)

    schedule = sub.add_parser("schedule", parents=[common],
                              help="synthesize a schedule achieving a pair")
    schedule.add_argument("d1", type=float)
    schedule.add_argument("d2", type=float)
    schedule.set_defaults(handler=_cmd_schedule)
    return parser


def _settings(args: argparse.Namespace) -> tuple[dict[str, Any], ChannelConfig, TrafficLoad]:
    """Merge defaults, scenario file and explicit flags (flags win), then check every setting:
    the powers and loads, tol, bbox_scale and grid, in that order.  Handlers only read them."""
    settings = dict(_DEFAULTS)
    if args.scenario:
        try:
            with open(args.scenario, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ValueError(f"scenario file {args.scenario}: {err}") from err
        if not isinstance(file_values, dict):
            raise ValueError(f"scenario file {args.scenario}: expected a JSON object")
        for key, value in file_values.items():
            name = key.replace("-", "_")
            if name not in (*_REQUIRED, *_DEFAULTS):
                raise ValueError(f"scenario field {key!r} is not a recognized setting")
            settings[name] = value
    for name in (*_REQUIRED, *_DEFAULTS):
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
    missing = [name for name in _REQUIRED if name not in settings]
    if missing:
        raise ValueError(f"missing required setting(s): {', '.join(missing)}")
    for name in _REQUIRED:
        if isinstance(settings[name], bool):  # a JSON true/false would pass as 1/0
            raise ValueError(f"{name}: must be a number, got {settings[name]!r}")
    p1, p2, db = settings["p1"], settings["p2"], settings["db"]
    if not isinstance(db, bool):
        raise ValueError(f"db: must be true or false, got {db!r}")
    try:
        if db:
            p1, p2 = 10.0 ** (p1 / 10.0), 10.0 ** (p2 / 10.0)
        cfg = ChannelConfig(p1, p2)
    except (OverflowError, TypeError, ValueError) as err:
        raise ValueError(f"channel powers: {err}") from err
    try:
        load = TrafficLoad(settings["tau1"], settings["tau2"])
    except (TypeError, ValueError) as err:
        raise ValueError(f"traffic load: {err}") from err
    _require_tol(settings["tol"])
    scale = settings["bbox_scale"]
    if not isinstance(scale, (int, float)) or not 1.0 < scale < math.inf:
        raise ValueError(f"bbox-scale: must be a finite number > 1, got {scale!r}")
    _require_resolution(settings["grid"])
    return settings, cfg, load


def _emit(command: str, settings: dict[str, Any], cfg: ChannelConfig, load: TrafficLoad,
          body: dict) -> None:
    """Print the command's JSON document: the common header, then `body`."""
    scenario = {
        "p1": r12(cfg.p1),
        "p2": r12(cfg.p2),
        "tau1": r12(load.tau1),
        "tau2": r12(load.tau2),
        "tol": r12(settings["tol"]),
    }
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "scenario": scenario, **body}
    print(json.dumps(doc, indent=2))


def _pair(d: CompletionTimePair) -> dict[str, float]:
    return {"d1": r12(d.d1), "d2": r12(d.d2)}


def _cmd_region(args, settings, cfg: ChannelConfig, load: TrafficLoad) -> int:
    desc = build_region(cfg, load)
    point = equal_time_vertex(cfg, load)  # Cbar = (t, t), the minimax point
    value = point.d1
    box = settings["bbox_scale"] * value
    polyline = boundary_polyline(cfg, load, box, box)
    if args.csv:
        print("d1,d2")
        for x, y in polyline:
            print(f"{x:.12g},{y:.12g}")
        return EXIT_OK
    _emit("region", settings, cfg, load, {
        "case": desc.case.value,
        "pieces": [
            {
                "sub_region": name,
                "halfplanes": [
                    {"a": r12(hp.a), "b": r12(hp.b), "c": r12(hp.c)}
                    for hp in piece.halfplanes
                ],
                "vertices": [
                    {"label": label, "d1": r12(x), "d2": r12(y)}
                    for label, (x, y) in piece.vertices
                ],
            }
            for name, piece in desc.pieces
        ],
        "outer_bound": {  # the solo floors, each piece's first two half-planes
            "d1_min": r12(desc.piece_d1.halfplanes[0].c),
            "d2_min": r12(desc.piece_d1.halfplanes[1].c),
        },
        "minimax": {"value": r12(value), **_pair(point)},
        "bounding_box": {"d1_max": r12(box), "d2_max": r12(box)},
        "boundary_polyline": [[r12(x), r12(y)] for x, y in polyline],
    })
    return EXIT_OK


def _parse_pair(args) -> CompletionTimePair:
    try:
        return CompletionTimePair(args.d1, args.d2)
    except ValueError as err:
        raise ValueError(f"completion-time pair: {err}") from err


def _cmd_check(args, settings, cfg: ChannelConfig, load: TrafficLoad) -> int:
    d = _parse_pair(args)
    member = ct_contains(cfg, load, d, settings["tol"])
    slacks = ct_slacks(cfg, load, d)
    _emit("check", settings, cfg, load, {
        "point": _pair(d),
        "member": member,
        "constrained_rates": {
            "r1": r12(load.tau1 / d.d1),
            "r2": r12(load.tau2 / d.d2),
            "c": r12(d.d1 / d.d2),
        },
        "slacks": {name: r12(s) for name, s in slacks.items()},
        "binding": min(slacks, key=slacks.get),
    })
    return EXIT_OK if member else EXIT_NON_MEMBER


def _cmd_minimize(args, settings, cfg: ChannelConfig, load: TrafficLoad) -> int:
    from .optimize import minimax, minimize_weighted_sum

    case = classify_case(cfg, load)
    if args.minimax:
        value, point = minimax(cfg, load)
        doc, cell, tie = {"mode": "minimax"}, "Cbar", False
    else:
        try:
            solution = minimize_weighted_sum(cfg, load, args.weight)
        except ValueError as err:
            raise ValueError(f"weight: {err}") from err
        value, point = solution.optimal_value, solution.optimizer_point
        doc = {"mode": "weighted_sum", "weight": r12(args.weight)}
        cell, tie = f"D{solution.branch}({solution.rate_point_label})", solution.tie
    doc.update(value=r12(value), point=_pair(point), cell=f"Case {case.value}, {cell}", tie=tie)
    exit_code = EXIT_OK
    if args.verify:
        from .oracle import default_grid, oracle_minimax, oracle_weighted_min

        spec = default_grid(cfg, load, settings["grid"])
        try:  # the grid oracle imports numpy
            report = (oracle_minimax(cfg, load, spec) if args.minimax
                      else oracle_weighted_min(cfg, load, args.weight, spec))
        except ImportError as err:
            raise ValueError(f"--verify needs numpy: {err}") from None
        # The closed form may undercut the grid by at most the gap bound and
        # exceed it only by rounding dust, both slacks relative to the oracle's value.
        oracle = report.optimum_value
        lowest = oracle - report.certified_gap_bound - 1e-12 * oracle
        bracket_ok = lowest <= value <= oracle * (1 + 1e-9)
        doc["verification"] = {
            "resolution": spec.resolution,
            "bounds": {
                "d1": [r12(spec.d1_bounds[0]), r12(spec.d1_bounds[1])],
                "d2": [r12(spec.d2_bounds[0]), r12(spec.d2_bounds[1])],
            },
            "oracle_value": r12(oracle),
            "oracle_point": _pair(report.optimizer),
            "grid_step": r12(report.grid_step),
            "gap_bound": r12(report.certified_gap_bound),
            "bracket_ok": bracket_ok,
        }
        if not bracket_ok:
            exit_code = EXIT_VERIFY_FAILED
    _emit("minimize", settings, cfg, load, doc)
    return exit_code


def _cmd_schedule(args, settings, cfg: ChannelConfig, load: TrafficLoad) -> int:
    from .schedule import synthesize, validate

    d = _parse_pair(args)
    schedule = synthesize(cfg, load, d, settings["tol"])  # raises InfeasibleError
    report = validate(cfg, load, schedule, settings["tol"])
    doc = {
        "phases": [
            {
                "duration": r12(p.duration),
                "r1": r12(p.rates.r1),
                "r2": r12(p.rates.r2),
                "active": sorted(p.active_users),
            }
            for p in schedule.phases
        ],
        "achieved": _pair(schedule.achieved),
        "validation": "pass" if report.ok else "fail",
    }
    if not report.ok:
        doc["violations"] = list(report.violations)
    _emit("schedule", settings, cfg, load, doc)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED
