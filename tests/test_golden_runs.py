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

`tests/golden/specializations.txt` pins the specialization generator and the
diagnostics byte for byte: every generated block (with its callable, kind and
control register name) of the prelude and of each accept-corpus file, then
the rendered diagnostics of each reject-corpus file.

`tests/golden/types.txt` pins the checker's output: the signature of every
callable, then the span, node class and checked type of every expression of
the source and of each generated block, of the prelude and of each accept
and reject file.

`tests/golden/tokens.txt` pins the lexer: the span, kind and lexeme of every
token, then the span, code and message of every lexer diagnostic, of each
`.qds` file of the corpus, of `tests/golden/programs/` and of the prelude.

`tests/golden/generated_runs.txt` pins the runtime on the seeded programs
of `tests/program_generator.py`: the trace lines and the value or failure
of each shot; `tests/test_generated_programs.py` checks it.

`tests/golden/measurements.txt` pins the simulator's measurement bit for bit:
on seeded states of 1 to 5 qubits, so in both storages, and for every shape
of Pauli product, the probability `probe_zero_probability` gives, then the
outcome and `drawn` of `measure`, each with a sha256 of the state after it.

Regenerate a golden file only when its output change is intended, and name
each file to rewrite by its path under `tests/golden/`; files not named are
left alone, and no name prints the list of known files:

    PYTHONPATH=src python tests/test_golden_runs.py traces/pauli_mix.txt
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import sys
import random
import tempfile

import numpy as np
import pytest

import qdsl
from qdsl import cli
from qdsl import types as ty
from qdsl.ast_nodes import Expr, walk
from qdsl.compiler import compile_units, wrap_statement_snippet
from qdsl.lexer import tokenize
from qdsl.pretty import pretty_print
from qdsl.simulator import StateVectorSimulator
from qdsl.source import SourceFile
from test_corpus import load_accept
import program_generator

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
ACCEPT = os.path.join(HERE, "corpus", "accept")
REJECT = os.path.join(HERE, "corpus", "reject")
PROGRAMS = os.path.join(GOLDEN, "programs")
PRELUDE = os.path.join(os.path.dirname(os.path.abspath(qdsl.__file__)), "prelude")
SPECIALIZATIONS = "specializations.txt"
TOKENS = "tokens.txt"
TYPES = "types.txt"
GENERATED = "generated_runs.txt"
MEASUREMENTS = "measurements.txt"

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


@pytest.mark.parametrize("name", sorted(TRACE_CASES))
def test_trace_json_holds_the_text_trace_by_shot(name):
    """`qdsl trace --json` prints one JSON document whose `trace` holds each
    shot's event lines as the text trace prints them, minus `[N] `."""
    path, extra = TRACE_CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["trace", "--json", path, *TRACE_ARGS, *extra]) == 0
    payload = json.loads(out.getvalue())
    # The text trace leads the output, in shot order; the per-shot messages
    # printed after the run start again at shot 0.
    grouped: list[list[str]] = [[] for _ in payload["results"]]
    shot = 0
    for line in run_trace(name).splitlines()[1:]:
        prefix, _, event = line.partition("] ")
        if not prefix.startswith("[") or int(prefix[1:]) < shot:
            break
        shot = int(prefix[1:])
        grouped[shot].append(event)
    assert payload["trace"] == grouped
    assert all(grouped)


def test_every_runnable_accept_file_is_pinned():
    """A new accept file with a `Main` must get a golden case too."""
    pinned = {os.path.basename(path) for path, _ in CASES.values()}
    for filename in sorted(os.listdir(ACCEPT)):
        with open(os.path.join(ACCEPT, filename), encoding="utf-8") as handle:
            text = handle.read()
        runnable = "operation Main ()" in text or text.startswith("// statements")
        assert not runnable or filename in pinned, filename


def specialization_text() -> str:
    """Generated blocks of the prelude and of each accept file, then the
    rendered diagnostics of each reject file."""
    lines: list[str] = []

    def generated(label: str, callables) -> None:
        lines.append(f"== {label}")
        for sym in callables:
            for kind, entry in sym.specializations.items():
                if entry.generated:
                    lines.append(f"-- {sym.qualified} {kind.value} {entry.ctl_param}")
                    lines.append(pretty_print(entry.block))

    generated("prelude", compile_units([]).table.all_callables())
    for name in sorted(os.listdir(ACCEPT)):
        text, exclude = load_accept(name)
        result = compile_units([(name, text)], prelude_exclude=exclude)
        generated(name, result.user_callables())
    for name in sorted(os.listdir(REJECT)):
        with open(os.path.join(REJECT, name), encoding="utf-8") as handle:
            text = handle.read()
        diagnostics = compile_units([(name, text)]).diagnostics
        lines.append(f"== {name}")
        lines.extend(d.render(SourceFile(name, text)) for d in diagnostics)
    return "\n".join(lines) + "\n"


def test_specializations_and_diagnostics_match_golden():
    with open(os.path.join(GOLDEN, SPECIALIZATIONS), encoding="utf-8") as handle:
        expected = handle.read()
    assert specialization_text() == expected


def types_text() -> str:
    """Every callable signature and every checked expression type of the
    prelude and of each accept and reject file, generated blocks included."""
    lines: list[str] = []

    def annotated(label: str, programs, callables) -> None:
        lines.append(f"== {label}")
        for sym in callables:
            signature = ty.Callable(sym.is_operation, sym.input, sym.output, sym.variants)
            name = " ".join([sym.qualified, *sym.type_params])
            lines.append(f"-- {name} : {ty.render(signature)}")
        generated = [
            entry.block
            for sym in callables
            for entry in sym.specializations.values()
            if entry.generated
        ]
        for node in walk([*programs, *generated]):
            if isinstance(node, Expr):
                span = f"{node.span.start}:{node.span.end}"
                lines.append(f"{span} {type(node).__name__} {ty.render(node.ty)}")

    result = compile_units([])
    annotated("prelude", [p for _, p in result.units], result.table.all_callables())
    for name in sorted(os.listdir(ACCEPT)):
        text, exclude = load_accept(name)
        result = compile_units([(name, text)], prelude_exclude=exclude)
        annotated(name, [result.units[-1][1]], result.user_callables())
    for name in sorted(os.listdir(REJECT)):
        with open(os.path.join(REJECT, name), encoding="utf-8") as handle:
            result = compile_units([(name, handle.read())])
        annotated(name, [result.units[-1][1]], result.user_callables())
    return "\n".join(lines) + "\n"


def test_checker_annotations_match_golden():
    with open(os.path.join(GOLDEN, TYPES), encoding="utf-8") as handle:
        expected = handle.read()
    assert types_text() == expected


def token_text() -> str:
    """Every token and lexer diagnostic of each source file, one a line."""
    lines: list[str] = []
    folders = {
        "corpus/accept": ACCEPT,
        "corpus/reject": REJECT,
        "golden/programs": PROGRAMS,
        "prelude": PRELUDE,
    }
    for label, folder in folders.items():
        for name in sorted(os.listdir(folder)):
            if not name.endswith(".qds"):
                continue
            with open(os.path.join(folder, name), encoding="utf-8") as handle:
                tokens, diagnostics = tokenize(handle.read(), name)
            lines.append(f"== {label}/{name}")
            for t in tokens:
                lines.append(f"{t.span.start}:{t.span.end} {t.kind.name} {t.lexeme!r}")
            for d in diagnostics:
                lines.append(f"{d.span.start}:{d.span.end} {d.code} {d.message!r}")
    return "\n".join(lines) + "\n"


def test_token_stream_matches_golden():
    with open(os.path.join(GOLDEN, TOKENS), encoding="utf-8") as handle:
        expected = handle.read()
    assert token_text() == expected


def _measurement_cases(rng: random.Random):
    """(qubit ids in allocation order, amplitudes, bases, measured ids), per
    qubit count: the identity on one qubit and on all, each single factor,
    then random products over I, X, Y and Z, where an I slot may repeat an id.
    Every fourth state is a basis state, whose Z outcomes are certain."""
    for n in range(1, 6):
        products = ["I", "I" * n, "X", "Y", "Z"]
        products += ["".join(rng.choice("IXYZ") for _ in range(rng.randint(1, n)))
                     for _ in range(25)]
        for index, bases in enumerate(products):
            ids = rng.sample(range(10), n)
            if index % 4 == 3:
                basis = rng.randrange(1 << n)
                amplitudes = [complex(k == basis) for k in range(1 << n)]
            else:
                amplitudes = [complex(rng.gauss(0, 1), rng.gauss(0, 1))
                              for _ in range(1 << n)]
                norm = math.sqrt(math.fsum(abs(a) ** 2 for a in amplitudes))
                amplitudes = [a / norm for a in amplitudes]
            measured = rng.sample(ids, len(bases))
            for slot, basis in enumerate(bases):
                if basis == "I" and rng.random() < 0.25:
                    measured[slot] = rng.choice(ids)
            yield ids, amplitudes, list(bases), measured


def measurement_text() -> str:
    """One line per measurement case: the state's qubits and the product,
    then what probing and measuring it give, with the state after each."""
    def digest(sim: StateVectorSimulator) -> str:
        return hashlib.sha256(np.asarray(sim.state, dtype=complex).tobytes()).hexdigest()

    rng, lines = random.Random(23), []
    for ids, amplitudes, bases, measured in _measurement_cases(rng):
        sim = StateVectorSimulator()
        for qid in ids:
            sim.allocate(qid)
        sim.load(amplitudes)
        probe = sim.probe_zero_probability(bases, measured)
        probed = digest(sim)
        outcome = sim.measure(bases, measured, random.Random(rng.getrandbits(32)))
        lines.append(
            f"ids={ids} bases={''.join(bases)} on={measured} "
            f"probe={probe!r} {probed} "
            f"measure={outcome} drawn={sim.drawn!r} {digest(sim)}"
        )
    return "\n".join(lines) + "\n"


def test_measurements_match_golden():
    with open(os.path.join(GOLDEN, MEASUREMENTS), encoding="utf-8") as handle:
        expected = handle.read()
    assert measurement_text() == expected


def run_golden_text(name: str) -> str:
    """Every variant of one run case, one line each, so a changed run shows
    as a changed line."""
    golden = {
        _variant(seed, dump): run_case(name, seed, dump)
        for seed in SEEDS
        for dump in (False, True)
    }
    lines = [
        f"{json.dumps(variant)}: {json.dumps(golden[variant], sort_keys=True)}"
        for variant in sorted(golden)
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def golden_files() -> dict:
    """Golden file, by its path under `tests/golden/` -> its text builder."""
    files = {f"{name}.json": functools.partial(run_golden_text, name) for name in CASES}
    for name in TRACE_CASES:
        files[f"traces/{name}.txt"] = functools.partial(run_trace, name)
    files[SPECIALIZATIONS] = specialization_text
    files[TOKENS] = token_text
    files[TYPES] = types_text
    files[GENERATED] = program_generator.golden_text
    files[MEASUREMENTS] = measurement_text
    return files


def test_every_golden_file_has_a_builder():
    on_disk = {
        os.path.relpath(os.path.join(root, filename), GOLDEN).replace(os.sep, "/")
        for root, _, filenames in os.walk(GOLDEN)
        if os.path.basename(root) != "programs"
        for filename in filenames
    }
    assert on_disk == set(golden_files())


def test_regenerate_writes_only_the_named_files(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", str(tmp_path))
    for names in ([], ["pauli_mix.json", "no_such_case.json"]):
        with pytest.raises(SystemExit):
            regenerate(names)
    assert os.listdir(tmp_path) == []
    regenerate([SPECIALIZATIONS])
    assert os.listdir(tmp_path) == [SPECIALIZATIONS]


def regenerate(names: list[str]) -> None:
    """Rewrite the named golden files, and only those."""
    files = golden_files()
    if not names or any(name not in files for name in names):
        raise SystemExit(
            "usage: test_golden_runs.py GOLDEN_FILE...\nknown golden files:\n  "
            + "\n  ".join(files)
        )
    for name in names:
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as handle:
            handle.write(files[name]())


if __name__ == "__main__":
    regenerate(sys.argv[1:])
