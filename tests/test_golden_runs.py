"""Seeded `qdsl run --json` output, pinned to golden files.

Every program here that the CLI can run was run with
`qdsl run --json --shots 20 --seed S` for S = 1, 2, 3, once plain and once
with `--dump-state`, and the outputs are stored in `tests/golden/`. The
programs are the runnable files of `tests/corpus/accept/` (`// statements`
files wrapped into a `Main`, files without a `Main` run through `--entry`)
and `tests/golden/programs/`, which adds seed-dependent multi-qubit Pauli
measurements and a dirty permissive release.

Results, histogram, messages and the exit code must match exactly. Dumped
amplitudes must match within 1e-12: a kernel that adds in another order may
round differently in the last bit or turn 0.0 into -0.0.

The full text output of `qdsl trace --shots 3 --seed 1` for the programs in
`TRACE_CASES` is pinned byte for byte in `tests/golden/traces/`: every gate,
allocation, borrow, release, measurement and message line.

Regenerate the files only when an output change is intended:

    PYTHONPATH=src python tests/test_golden_runs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest

from qdsl import cli
from qdsl.compiler import wrap_statement_snippet

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
ACCEPT = os.path.join(HERE, "corpus", "accept")

SEEDS = (1, 2, 3)
SHOTS = 20
AMPLITUDE_TOLERANCE = 1e-12

# case name -> (source path, extra CLI arguments)
CASES = {
    "borrowing": (os.path.join(ACCEPT, "borrowing.qds"), []),
    "functors_everywhere": (os.path.join(ACCEPT, "functors_everywhere.qds"), []),
    "interp_message": (os.path.join(ACCEPT, "interp_message.qds"), []),
    "partial_application": (
        os.path.join(ACCEPT, "partial_application.qds"), ["--entry", "Demo"]
    ),
    "repeat_until": (
        os.path.join(ACCEPT, "repeat_until.qds"), ["--entry", "CoinUntilOne"]
    ),
    "assert_plus_state": (
        os.path.join(ACCEPT, "assert_plus_state.qds"), ["--permissive-release"]
    ),
    "deconstructing_let": (os.path.join(ACCEPT, "deconstructing_let.qds"), []),
    "pauli_mix": (
        os.path.join(GOLDEN, "programs", "pauli_mix.qds"), ["--permissive-release"]
    ),
}


# case name -> (source path, extra CLI arguments) for `qdsl trace`
TRACE_CASES = {
    "borrowing": CASES["borrowing"],
    "interp_message": CASES["interp_message"],
    "pauli_mix": CASES["pauli_mix"],
    "borrow_topup": (os.path.join(GOLDEN, "programs", "borrow_topup.qds"), []),
}
TRACE_ARGS = ["--shots", "3", "--seed", "1"]


def _variant(seed: int, dump: bool) -> str:
    return f"seed{seed}-dump" if dump else f"seed{seed}"


def run_case(name: str, seed: int, dump: bool) -> dict:
    """Run one case through the CLI in process: exit code and parsed stdout."""
    path, extra = CASES[name]
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    with tempfile.TemporaryDirectory() as tmp:
        if text.splitlines()[0].strip() == "// statements":
            path = os.path.join(tmp, os.path.basename(path))
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(wrap_statement_snippet(text))
        argv = ["run", path, "--json", "--shots", str(SHOTS), "--seed", str(seed)]
        argv += extra + (["--dump-state"] if dump else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    stdout = out.getvalue()
    return {"exit_code": code, "output": json.loads(stdout) if stdout else None}


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("dump", [False, True], ids=["plain", "dump"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_run_matches_golden(name, seed, dump):
    expected = load_golden(name)[_variant(seed, dump)]
    actual = run_case(name, seed, dump)
    assert actual["exit_code"] == expected["exit_code"]
    if expected["output"] is None:
        assert actual["output"] is None
        return
    for key in ("results", "histogram", "messages"):
        assert actual["output"][key] == expected["output"][key], key
    if not dump:
        return
    got_shots = actual["output"]["state_dumps"]
    want_shots = expected["output"]["state_dumps"]
    assert len(got_shots) == len(want_shots)
    for got_dumps, want_dumps in zip(got_shots, want_shots):
        assert [d["qubits"] for d in got_dumps] == [d["qubits"] for d in want_dumps]
        for got, want in zip(got_dumps, want_dumps):
            assert len(got["amplitudes"]) == len(want["amplitudes"])
            for (gr, gi), (wr, wi) in zip(got["amplitudes"], want["amplitudes"]):
                assert abs(complex(gr, gi) - complex(wr, wi)) <= AMPLITUDE_TOLERANCE


def run_trace(name: str) -> str:
    """`qdsl trace` of one case in process: its exit code line, then stdout."""
    path, extra = TRACE_CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["trace", path, *TRACE_ARGS, *extra])
    return f"exit {code}\n" + out.getvalue()


def _trace_path(name: str) -> str:
    return os.path.join(GOLDEN, "traces", f"{name}.txt")


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_seeded_trace_matches_golden(name):
    with open(_trace_path(name), encoding="utf-8") as handle:
        expected = handle.read()
    assert run_trace(name) == expected


def test_every_runnable_accept_file_is_pinned():
    """A new accept file with a `Main` must get a golden case too."""
    pinned = {os.path.basename(path) for path, _ in CASES.values()}
    for filename in sorted(os.listdir(ACCEPT)):
        with open(os.path.join(ACCEPT, filename), encoding="utf-8") as handle:
            text = handle.read()
        runnable = "operation Main ()" in text or text.startswith("// statements")
        assert not runnable or filename in pinned, filename


def write_golden(name: str, golden: dict) -> None:
    """One line per variant, so a changed run shows as a changed line."""
    lines = [
        f"{json.dumps(variant)}: {json.dumps(golden[variant], sort_keys=True)}"
        for variant in sorted(golden)
    ]
    with open(os.path.join(GOLDEN, f"{name}.json"), "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")


def regenerate() -> None:
    for name in sorted(CASES):
        write_golden(name, {
            _variant(seed, dump): run_case(name, seed, dump)
            for seed in SEEDS
            for dump in (False, True)
        })
    os.makedirs(os.path.join(GOLDEN, "traces"), exist_ok=True)
    for name in sorted(TRACE_CASES):
        with open(_trace_path(name), "w", encoding="utf-8") as handle:
            handle.write(run_trace(name))


if __name__ == "__main__":
    regenerate()
