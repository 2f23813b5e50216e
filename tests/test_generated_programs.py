"""Seeded generated programs run as `tests/golden/generated_runs.txt` says.

The programs come from `program_generator.generate`, and the golden file
holds, for each of the first `GOLDEN_PROGRAMS` and each of its seeded shots,
the trace lines, messages, value or failure message and span that the
runtime gave when the file was recorded. See `tests/program_generator.py`
for a long run over more programs.
"""

from __future__ import annotations

import difflib

from program_generator import GOLDEN, GOLDEN_PROGRAMS, generate, record


def golden_records() -> dict[int, list[str]]:
    with open(GOLDEN, encoding="utf-8") as file:
        chunks = file.read().split("== program ")[1:]
    return {int(chunk.split("\n", 1)[0]): ("== program " + chunk).splitlines() for chunk in chunks}


def test_generated_programs_run_as_recorded():
    expected = golden_records()
    assert sorted(expected) == list(range(GOLDEN_PROGRAMS))
    for seed in range(GOLDEN_PROGRAMS):
        actual = record(seed)
        if actual != expected[seed]:
            diff = "\n".join(difflib.unified_diff(expected[seed], actual, "golden", "now", lineterm=""))
            raise AssertionError(f"program {seed} ran differently:\n{diff}\n\n{generate(seed)}")
