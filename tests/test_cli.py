import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import macct.cli as cli
import refvals
from macct import CompletionTimePair, ConsistencyError, ct_contains, ct_slacks, gamma
from refvals import CBAR_II, CFG33, LOAD_II, VALUE_W02_II

GOLDEN = Path(__file__).parent / "golden"

CASE_FLAGS = {
    "case_I": ["--p1", "3", "--p2", "3", "--tau1", "1", "--tau2", "0.2"],
    "case_II": ["--p1", "3", "--p2", "3", "--tau1", "1", "--tau2", "1"],
    "case_III": ["--p1", "3", "--p2", "3", "--tau1", "0.2", "--tau2", "1"],
}


def run(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestGolden:
    @pytest.mark.parametrize("name", sorted(CASE_FLAGS))
    def test_region_documents(self, name, capsys):
        rc, out, _ = run(["region", *CASE_FLAGS[name]], capsys)
        assert rc == 0
        assert json.loads(out) == json.loads((GOLDEN / f"region_{name}.json").read_text())

    @pytest.mark.parametrize("name", sorted(CASE_FLAGS))
    def test_minimax_documents(self, name, capsys):
        rc, out, _ = run(["minimize", *CASE_FLAGS[name], "--minimax"], capsys)
        assert rc == 0
        assert json.loads(out) == json.loads((GOLDEN / f"minimax_{name}.json").read_text())

    def test_weighted_document(self, capsys):
        rc, out, _ = run(["minimize", *CASE_FLAGS["case_II"], "--weight", "0.2"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc == json.loads((GOLDEN / "minimize_w02_case_II.json").read_text())
        # key numbers pinned independently of the golden file
        assert doc["value"] == float(f"{VALUE_W02_II:.12g}")
        assert doc["cell"] == "Case II, D2(A)"

    @pytest.mark.parametrize(
        "name, pair",
        [
            ("1.596_1", ["1.59632253897", "1"]),
            ("1_1.596", ["1", "1.59632253897"]),
            ("1.5_1.5", ["1.5", "1.5"]),
            ("1.2_3", ["1.2", "3.0"]),
            ("3_1.2", ["3.0", "1.2"]),
        ],
    )
    def test_schedule_documents(self, name, pair, capsys):
        rc, out, _ = run(["schedule", *CASE_FLAGS["case_II"], *pair], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc == json.loads((GOLDEN / f"schedule_{name}_case_II.json").read_text())
        # the late finisher, if any, ends with a solo phase of its own
        d1, d2 = map(float, pair)
        assert [p["active"] for p in doc["phases"]] == (
            [[1, 2]] if d1 == d2 else [[1, 2], [2 if d1 < d2 else 1]]
        )

    def test_region_csv(self, capsys):
        rc, out, _ = run(["region", *CASE_FLAGS["case_II"], "--csv"], capsys)
        assert rc == 0
        assert out == (GOLDEN / "region_case_II.csv").read_text()
        lines = out.strip().splitlines()
        assert lines[0] == "d1,d2"
        assert len(lines) == 6

    def test_regen_reproduces_every_golden_byte_for_byte(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
        regen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(regen)
        monkeypatch.setattr(regen, "HERE", tmp_path)
        regen.regen()
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == sorted(
            path.name for path in GOLDEN.iterdir() if path.is_file() and path.suffix != ".py"
        )
        for name in written:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_golden_region_values_match_frozen_constants(self):
        doc = json.loads((GOLDEN / "region_case_II.json").read_text())
        assert doc["case"] == "II"
        vertices = {
            v["label"]: (v["d1"], v["d2"])
            for piece in doc["pieces"]
            for v in piece["vertices"]
        }
        assert vertices["Cbar"] == (float(f"{CBAR_II:.12g}"),) * 2
        assert doc["minimax"]["value"] == float(f"{CBAR_II:.12g}")


def strict_json(text):
    """The JSON document in text; Infinity, -Infinity or NaN is refused."""
    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


class TestExitCodes:
    def test_member_and_non_member(self, capsys):
        member = ["check", *CASE_FLAGS["case_II"], "1.5963225389711979", "1"]
        assert run(member, capsys)[0] == 0
        assert run(["check", *CASE_FLAGS["case_II"], "1.3", "1.3"], capsys)[0] == 1
        assert run(["check", *CASE_FLAGS["case_II"], "10", "10"], capsys)[0] == 0
        # c = d1/d2 far beyond the rate-space view's [1e-12, 1e12] still gets a verdict
        for pair, code in ((["1e13", "1"], 0), (["1e13", "0.5"], 1),
                           (["1", "1e13"], 0), (["0.5", "1e13"], 1)):
            assert run(["check", *CASE_FLAGS["case_II"], *pair], capsys)[0] == code, pair

    def test_invalid_inputs_exit_2(self, capsys):
        bad = [
            ["region", "--p1", "3", "--p2", "3", "--tau1", "1", "--tau2", "-1"],
            ["region", "--p1", "0", "--p2", "3", "--tau1", "1", "--tau2", "1"],
            ["region", "--p2", "3", "--tau1", "1", "--tau2", "1"],  # p1 missing
            ["minimize", *CASE_FLAGS["case_II"], "--weight", "1.5"],
            ["check", *CASE_FLAGS["case_II"], "-1", "2"],
        ]
        for argv in bad:
            rc, _, err = run(argv, capsys)
            assert rc == 2, argv
            assert err.startswith("error:")
            assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", [[], ["--csv"]])
    @pytest.mark.parametrize("scale", ["inf", "nan"])
    def test_non_finite_bbox_scale_exit_2(self, scale, fmt, capsys):
        argv = ["region", *CASE_FLAGS["case_II"], "--bbox-scale", scale, *fmt]
        rc, out, err = run(argv, capsys)
        assert rc == 2 and out == ""
        assert err.startswith("error: bbox-scale")

    def test_infeasible_schedule_exit_1_names_constraint(self, capsys):
        rc, _, err = run(["schedule", *CASE_FLAGS["case_II"], "1.3", "1.3"], capsys)
        assert rc == 1
        assert "sum_rate" in err

    def test_rate_overflow_exit_codes(self, capsys):
        # tau1/d1 overflows: below user 1's solo floor, so `schedule` finds the
        # pair infeasible and `check` reports it a non-member, its infinite rate as null
        rc, out, err = run(["schedule", *CASE_FLAGS["case_II"], "5e-324", "1"], capsys)
        assert rc == 1 and out == ""
        assert "single_user_1 violated by inf" in err
        rc, out, err = run(["check", *CASE_FLAGS["case_II"], "5e-324", "1"], capsys)
        assert rc == 1 and err == ""
        doc = strict_json(out)
        assert doc["member"] is False and doc["binding"] == "single_user_1"
        assert doc["constrained_rates"]["r1"] is None and doc["slacks"]["single_user_1"] is None

    @pytest.mark.parametrize("tau", ["5e307", "1e308"])
    def test_region_with_overflowing_box_exits_0(self, tau, capsys):
        # bbox_scale * minimax overflows, so the polyline's open ends are inf
        flags = ["--p1", "3", "--p2", "3", "--tau1", tau, "--tau2", tau]
        rc, out, err = run(["region", *flags, "--csv"], capsys)
        assert rc == 0 and err == ""
        rows = out.splitlines()
        assert rows[0] == "d1,d2" and rows[1].endswith(",inf")
        rc, out, err = run(["region", *flags], capsys)
        assert rc == 0 and err == ""
        doc = strict_json(out)
        assert doc["bounding_box"] == {"d1_max": None, "d2_max": None}
        assert doc["boundary_polyline"][0][1] is None

    def test_verify_bracket_failure_exit_3(self, capsys, monkeypatch):
        from macct.optimize import WeightedSumSolution

        def wrong(cfg, load, w):
            return WeightedSumSolution(
                w, 0.5, CompletionTimePair(1.0, 1.0), "A", 2, False
            )

        monkeypatch.setattr(cli, "minimize_weighted_sum", wrong)
        argv = ["minimize", *CASE_FLAGS["case_II"], "--weight", "0.2", "--verify",
                "--grid", "64"]
        rc, out, _ = run(argv, capsys)
        assert rc == 3
        assert json.loads(out)["verification"]["bracket_ok"] is False

    def test_internal_error_exit_4(self, capsys, monkeypatch):
        def inconsistent(cfg, load):
            raise ConsistencyError("minimax value disagrees across the case boundary")

        monkeypatch.setattr(cli, "minimax", inconsistent)
        rc, out, err = run(["minimize", *CASE_FLAGS["case_II"], "--minimax"], capsys)
        assert rc == 4
        assert out == ""
        assert err.startswith("internal error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, scenario, shown", [
        (["--grid", "8"], {}, "8"), ([], {"grid": True}, "True"), ([], {"grid": 64.0}, "64.0")])
    def test_bad_grid_exit_2(self, flag, scenario, shown, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"p1": 3, "p2": 3, "tau1": 1, "tau2": 1, **scenario}))
        argv = ["minimize", "--scenario", str(path), "--weight", "0.3", "--verify", *flag]
        rc, out, err = run(argv, capsys)
        assert rc == 2 and out == ""
        assert err == f"error: grid resolution must be an int >= 16, got {shown}\n"

    @pytest.mark.parametrize("tol", ["-1", "1"])
    def test_tol_out_of_range_exit_2(self, tol, capsys):
        rc, out, err = run(["check", *CASE_FLAGS["case_II"], "--tol", tol, "3", "3"], capsys)
        assert rc == 2 and out == ""
        assert err == f"error: tol: must be a small nonnegative number, got {float(tol)!r}\n"

    def test_failed_validation_exit_3_lists_violations(self, capsys, monkeypatch):
        from macct.schedule import ValidationReport

        monkeypatch.setattr(
            cli, "validate", lambda *args: ValidationReport(False, ("achieved pair differs",))
        )
        rc, out, _ = run(["schedule", *CASE_FLAGS["case_II"], "1.5", "1.5"], capsys)
        assert rc == 3
        doc = json.loads(out)
        assert doc["validation"] == "fail"
        assert doc["violations"] == ["achieved pair differs"]

    @pytest.mark.parametrize("tau", ["1", "1e-12", "1e-18"])
    def test_verify_refuses_a_doubled_closed_form_at_any_load(self, tau, capsys, monkeypatch):
        # The bracket's slacks are relative to the oracle's value, so a closed form twice the
        # optimum fails however small the load.
        import dataclasses

        honest = cli.minimize_weighted_sum

        def doubled(cfg, load, w):
            solution = honest(cfg, load, w)
            return dataclasses.replace(solution, optimal_value=2.0 * solution.optimal_value)

        monkeypatch.setattr(cli, "minimize_weighted_sum", doubled)
        argv = ["minimize", "--p1", "3", "--p2", "3", "--tau1", tau, "--tau2", tau,
                "--weight", "0.3", "--verify", "--grid", "101"]
        rc, out, _ = run(argv, capsys)
        assert rc == 3
        assert json.loads(out)["verification"]["bracket_ok"] is False

    @pytest.mark.parametrize("tau", ["1e-12", "1", "1e12"])
    def test_verify_passes_for_true_solution_at_any_load(self, tau, capsys):
        argv = ["minimize", "--p1", "3", "--p2", "3", "--tau1", tau, "--tau2", tau,
                "--weight", "0.3", "--verify", "--grid", "101"]
        rc, out, _ = run(argv, capsys)
        assert rc == 0
        assert json.loads(out)["verification"]["bracket_ok"] is True

    def test_verify_passes_for_true_solution(self, capsys):
        argv = ["minimize", *CASE_FLAGS["case_II"], "--weight", "0.2", "--verify",
                "--grid", "301"]
        rc, out, _ = run(argv, capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["verification"]["bracket_ok"] is True
        assert doc["verification"]["oracle_value"] >= doc["value"] - 1e-9


class TestScenarioHandling:
    def test_scenario_file_and_flag_override(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"p1": 3, "p2": 3, "tau1": 1, "tau2": 0.2}))
        rc, out, _ = run(["region", "--scenario", str(scenario)], capsys)
        assert rc == 0 and json.loads(out)["case"] == "I"
        rc, out, _ = run(
            ["region", "--scenario", str(scenario), "--tau2", "1"], capsys
        )
        assert rc == 0 and json.loads(out)["case"] == "II"

    def test_unknown_scenario_key_rejected(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"p1": 3, "p2": 3, "tau1": 1, "tau2": 1, "pow": 9}))
        rc, _, err = run(["region", "--scenario", str(scenario)], capsys)
        assert rc == 2 and "pow" in err

    def test_scenario_file_holding_a_list_exit_2(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps([3, 3, 1, 1]))
        rc, out, err = run(["region", "--scenario", str(scenario)], capsys)
        assert rc == 2 and out == ""
        assert err == f"error: scenario file {scenario}: expected a JSON object\n"

    def test_missing_scenario_file(self, capsys):
        rc, _, err = run(["region", "--scenario", "/nonexistent.json"], capsys)
        assert rc == 2

    def test_db_conversion(self, capsys):
        db = "4.771212547196624"  # 10*log10(3)
        rc, out, _ = run(
            ["region", "--p1", db, "--p2", db, "--db", "--tau1", "1", "--tau2", "1"],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["scenario"]["p1"] == pytest.approx(3.0, rel=1e-12)
        assert doc["case"] == "II"

    def test_db_power_overflow_exit_2(self, capsys):
        argv = ["check", "--db", "--p1", "4000", "--p2", "10", "--tau1", "1", "--tau2", "1", "3", "3"]
        rc, _, err = run(argv, capsys)
        assert rc == 2 and "channel powers" in err

    def test_db_string_power_exit_2(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"p1": "20", "p2": 10, "tau1": 1, "tau2": 1, "db": True}))
        rc, _, err = run(["check", "--scenario", str(scenario), "3", "3"], capsys)
        assert rc == 2 and "channel powers" in err

    def test_string_numbers_in_scenario_exit_2(self, tmp_path, capsys):
        # every number in a scenario file must be a JSON number
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"p1": "3", "p2": 3, "tau1": "1", "tau2": 1}))
        rc, out, err = run(["region", "--scenario", str(scenario)], capsys)
        assert rc == 2 and out == ""
        assert "p1 must be a real number, got '3'" in err

    def test_integer_beyond_float_range_in_scenario_exit_2(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"p1": 3, "p2": 3, "tau1": 10**400, "tau2": 1}))
        rc, out, err = run(["region", "--scenario", str(scenario)], capsys)
        assert rc == 2 and out == ""
        assert "tau1 must be finite, got int beyond the float range" in err
        assert "Traceback" not in err

    def test_non_boolean_db_rejected(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"p1": 20, "p2": 10, "tau1": 1, "tau2": 1, "db": "no"}))
        rc, out, err = run(["region", "--scenario", str(scenario)], capsys)
        assert rc == 2 and out == "" and "db" in err

    @pytest.mark.parametrize(
        "field, extra",
        [("p1", {}), ("p1", {"db": True}), ("tau1", {}), ("tol", {})],
    )
    def test_boolean_numbers_rejected(self, field, extra, tmp_path, capsys):
        values = {"p1": 3, "p2": 3, "tau1": 1, "tau2": 1, **extra}
        values[field] = field != "tol"  # true, or false for tol (a valid 0)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(values))
        rc, out, err = run(["check", "--scenario", str(scenario), "3", "3"], capsys)
        assert rc == 2 and out == ""
        assert err.startswith(f"error: {field}:")

    @pytest.mark.parametrize("setting, value, message", [
        *(("grid", v, f"grid resolution must be an int >= 16, got {v!r}")
          for v in ("abc", 8, True, 64.0)),
        *(("bbox_scale", v, f"bbox-scale: must be a finite number > 1, got {v!r}")
          for v in (0.5, "x", True)),
    ])
    @pytest.mark.parametrize("command", [
        ["region"], ["check", "1.6", "1"], ["schedule", "1.6", "1"],
        ["minimize", "--weight", "0.3"], ["minimize", "--minimax"],
    ], ids=["region", "check", "schedule", "weight", "minimax"])
    def test_every_setting_checked_by_every_subcommand(
        self, command, setting, value, message, tmp_path, capsys
    ):
        # A scenario file's setting is refused before any handler runs, whether or not the
        # subcommand reads it, with the message of the check that owns it.
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"p1": 3, "p2": 3, "tau1": 1, "tau2": 1, setting: value}))
        rc, out, err = run([*command, "--scenario", str(scenario)], capsys)
        assert (rc, out, err) == (2, "", f"error: {message}\n")


_PROBE = """
import contextlib, io, json, sys
import macct, macct.cli
rc = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = macct.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "numpy": "numpy" in sys.modules}))
"""


def probe(argv):
    """Run `cli.main(argv)` in a fresh interpreter; report its exit code and
    whether numpy got imported."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestLazyNumpy:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["region", *CASE_FLAGS["case_II"]],
            ["region", *CASE_FLAGS["case_II"], "--csv"],
            ["check", *CASE_FLAGS["case_II"], "1.5963225389711979", "1"],
            ["minimize", *CASE_FLAGS["case_II"], "--weight", "0.2"],
            ["minimize", *CASE_FLAGS["case_II"], "--minimax"],
            ["schedule", *CASE_FLAGS["case_II"], "1.5963225389711979", "1"],
        ],
        ids=["import", "region", "region_csv", "check", "weight", "minimax", "schedule"],
    )
    def test_scalar_paths_do_not_import_numpy(self, argv):
        assert probe(argv) == {"rc": None if not argv else 0, "numpy": False}

    def test_verify_imports_numpy(self):
        argv = ["minimize", *CASE_FLAGS["case_II"], "--weight", "0.3", "--verify", "--grid", "64"]
        assert probe(argv) == {"rc": 0, "numpy": True}

    @pytest.mark.parametrize("target", [["--weight", "0.3"], ["--minimax"]])
    def test_verify_without_numpy_exits_2_naming_it(self, target):
        argv = ["minimize", *CASE_FLAGS["case_II"], *target, "--verify", "--grid", "64"]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", _NO_NUMPY_PROBE, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: --verify needs numpy: "), done.stderr
        assert done.stderr.count("\n") == 1, done.stderr  # one line, no traceback

    def test_reference_check_does_not_import_numpy(self):
        # The benchmark's set-up loads tests/refvals.py by path and checks the library against
        # its frozen values; the sampling helpers import numpy only when they are called.
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", _REFVALS_PROBE, str(Path(__file__).parent)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout)
        cfg, load = refvals.random_instance(np.random.default_rng(5), "II")
        assert got == {"numpy": False, "instance": [cfg.p1, cfg.p2, load.tau1, load.tau2]}


_NO_NUMPY_PROBE = """
import sys
sys.modules["numpy"] = None  # as if numpy were not installed
import macct.cli
sys.exit(macct.cli.main(sys.argv[1:]))
"""

_REFVALS_PROBE = """
import importlib.util, json, sys
import macct as m
spec = importlib.util.spec_from_file_location("refvals", sys.argv[1] + "/refvals.py")
r = importlib.util.module_from_spec(spec)
spec.loader.exec_module(r)
m.corner_points(r.CFG33), m.gamma(6.0), m.thresholds(r.CFG33, r.LOAD_II)
m.minimize_weighted_sum(r.CFG33, r.LOAD_II, 0.2)
for _, cfg, load in r.REFERENCE_INSTANCES:
    m.build_region(cfg, load), m.minimax(cfg, load)
numpy = "numpy" in sys.modules
import numpy as np
cfg, load = r.random_instance(np.random.default_rng(5), "II")
print(json.dumps({"numpy": numpy, "instance": [cfg.p1, cfg.p2, load.tau1, load.tau2]}))
"""


_TYPING_PROBE = """
import contextlib, io, json, sys
import macct, macct.cli
rc = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = macct.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "typing": "typing" in sys.modules}))
"""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["region", *CASE_FLAGS["case_II"]],
        ["region", *CASE_FLAGS["case_II"], "--csv"],
        ["check", *CASE_FLAGS["case_II"], "1.5963225389711979", "1"],
        ["minimize", *CASE_FLAGS["case_II"], "--weight", "0.2"],
        ["minimize", *CASE_FLAGS["case_II"], "--minimax"],
        ["schedule", *CASE_FLAGS["case_II"], "1.5963225389711979", "1"],
    ],
    ids=["import", "region", "region_csv", "check", "weight", "minimax", "schedule"],
)
def test_scalar_paths_do_not_import_typing(argv):
    # -S: no `site`, which may import typing itself before any macct code runs.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", _TYPING_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"rc": None if not argv else 0, "typing": False}


@pytest.mark.parametrize("domain", refvals.DOMAINS)
def test_check_member_is_the_library_verdict(domain, capsys):
    # `check` answers every positive finite pair with exit 0 or 1, its `member` is
    # `ct_contains`'s, its `binding` the least `ct_slacks` slack, and its document is
    # strict JSON: a rate, ratio or slack beyond the float range prints as null.
    rng = np.random.default_rng(11)
    for cfg, load in refvals.log_uniform_instances(rng, domain, 30):
        floor1, floor2 = load.tau1 / gamma(cfg.p1), load.tau2 / gamma(cfg.p2)
        pairs = [(floor1 * a, floor2 * b) for a, b in np.exp(rng.uniform(-0.2, 1.5, (4, 2)))]
        pairs += [(1.0, 1e-14), (1e-14, 1.0), (floor1, floor1 * 1e-14), (floor2 * 1e14, floor2),
                  (5e-324, 1.0), (1e300, 1e-300)]
        flags = ["--p1", repr(cfg.p1), "--p2", repr(cfg.p2),
                 "--tau1", repr(load.tau1), "--tau2", repr(load.tau2)]
        for d1, d2 in pairs:
            d = CompletionTimePair(float(d1), float(d2))
            rc, out, err = run(["check", *flags, repr(d.d1), repr(d.d2)], capsys)
            member = ct_contains(cfg, load, d)
            assert (rc, err) == (0 if member else 1, ""), (cfg, load, d)
            doc = strict_json(out)
            assert doc["member"] is member, (cfg, load, d)
            slacks = ct_slacks(cfg, load, d)
            assert doc["binding"] == min(slacks, key=slacks.get), (cfg, load, d)


class TestRoundTrip:
    def test_region_json_membership_matches_library(self, capsys):
        rc, out, _ = run(["region", *CASE_FLAGS["case_II"]], capsys)
        assert rc == 0
        doc = json.loads(out)

        def union_member(x, y):
            return any(
                all(hp["a"] * x + hp["b"] * y >= hp["c"] - 1e-9 for hp in piece["halfplanes"])
                for piece in doc["pieces"]
            )

        import numpy as np

        rng = np.random.default_rng(55)
        for _ in range(400):
            x, y = rng.uniform(0.8, 4.0, size=2)
            expected = ct_contains(CFG33, LOAD_II, CompletionTimePair(x, y))
            # skip the thin band where 12-digit rounding can flip the verdict
            if min(
                abs(hp["a"] * x + hp["b"] * y - hp["c"])
                for piece in doc["pieces"]
                for hp in piece["halfplanes"]
            ) < 1e-6:
                continue
            assert union_member(x, y) == expected

    def test_numbers_have_at_most_12_significant_digits(self, capsys):
        rc, out, _ = run(["region", *CASE_FLAGS["case_II"]], capsys)
        for token in out.replace(",", " ").replace("[", " ").replace("]", " ").split():
            try:
                float(token)
            except ValueError:
                continue
            digits = token.lstrip("-").replace(".", "").lstrip("0")
            if "e" in digits:
                digits = digits.split("e")[0]
            assert len(digits) <= 12, token
