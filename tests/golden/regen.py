"""Regenerate the golden CLI outputs for the three reference scenarios.

The Case II scenario also pins `schedule` on both sides of d1 = d2 and on
the diagonal.

Run from the repository root:  python tests/golden/regen.py
Review diffs before committing; tests compare parsed JSON exactly.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from macct.cli import main

HERE = Path(__file__).parent

SCENARIOS = {
    "case_I": ["--p1", "3", "--p2", "3", "--tau1", "1", "--tau2", "0.2"],
    "case_II": ["--p1", "3", "--p2", "3", "--tau1", "1", "--tau2", "1"],
    "case_III": ["--p1", "3", "--p2", "3", "--tau1", "0.2", "--tau2", "1"],
}

# Completion-time pairs scheduled in Case II, named after (d1, d2).
SCHEDULE_PAIRS = {
    "1.596_1": ["1.59632253897", "1"],
    "1_1.596": ["1", "1.59632253897"],
    "1.5_1.5": ["1.5", "1.5"],
    "1.2_3": ["1.2", "3.0"],
    "3_1.2": ["3.0", "1.2"],
}


def capture(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, (argv, rc)
    return buf.getvalue()


def regen() -> None:
    for name, flags in SCENARIOS.items():
        (HERE / f"region_{name}.json").write_text(capture(["region", *flags]))
        (HERE / f"minimax_{name}.json").write_text(capture(["minimize", *flags, "--minimax"]))
    (HERE / "minimize_w02_case_II.json").write_text(
        capture(["minimize", *SCENARIOS["case_II"], "--weight", "0.2"])
    )
    (HERE / "region_case_II.csv").write_text(capture(["region", *SCENARIOS["case_II"], "--csv"]))
    for name, pair in SCHEDULE_PAIRS.items():
        (HERE / f"schedule_{name}_case_II.json").write_text(
            capture(["schedule", *SCENARIOS["case_II"], *pair])
        )


if __name__ == "__main__":
    regen()
