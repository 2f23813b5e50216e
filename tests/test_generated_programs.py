"""Seeded generated programs run as `tests/golden/generated_runs.txt` says.

The programs come from `program_generator.generate`, and the golden file
holds, for each of the first `GOLDEN_PROGRAMS` and each of its seeded shots,
the trace lines, messages, value or failure message and span that the
runtime gave when the file was recorded. Every failure of those shots
carries a span and the file of the body it left. See
`tests/program_generator.py` for a long run over more programs.
"""

from __future__ import annotations

import difflib

from program_generator import FILE, GOLDEN, GOLDEN_PROGRAMS, SHOTS, compile_entry, generate, record
from qdsl.prelude import intrinsic_handlers, prelude_units
from qdsl.runtime import QdslFailure, RunOptions, run_shots


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


def test_every_failure_carries_a_span_and_a_file():
    files = {FILE} | {label for label, _ in prelude_units()}
    failures = 0
    for seed in range(GOLDEN_PROGRAMS):
        entry = compile_entry(generate(seed))
        for shot in range(SHOTS):
            try:
                run_shots(intrinsic_handlers(), entry, 1, seed ^ shot, RunOptions())
            except QdslFailure as failure:
                failures += 1
                assert failure.span is not None and failure.file in files, (seed, shot)
    assert failures > 0
