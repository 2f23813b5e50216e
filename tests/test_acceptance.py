"""End-to-end acceptance checks, one test per headline guarantee.

Every numeric comparison is against an oracle computed independently of
the code under test (defining formulas, truth tables, retyped constants,
or reference statistics). Each test prints a single PASS/FAIL line so a
verbose log reads as a checklist.
"""

import cmath
import contextlib
import functools
import io
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from qdsl.cli import main as cli_main
from qdsl.compiler import compile_units, resolve_entry
from qdsl.runtime import QdslFailure
from qdsl.simulator import GATE_MATRICES
from qdsl.values import Closure, Result, UNIT
from conftest import (
    allocate_register,
    assert_unitaries_close,
    bit_reversal_permutation,
    compile_errors,
    compile_ok,
    dft_matrix,
    fresh_interpreter,
    get_symbol,
    haar_random_state,
    operation_unitary,
    register_arg,
    run_main,
    run_statements,
    single_qubit_arg,
    tuple_arg,
)
from test_corpus import load_accept

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
ACCEPT = sorted(os.listdir(os.path.join(CORPUS, "accept")))
REJECT = sorted(os.listdir(os.path.join(CORPUS, "reject")))


def corpus_text(kind: str, name: str) -> str:
    with open(os.path.join(CORPUS, kind, name)) as handle:
        return handle.read()


def criterion(number: int, summary: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            label = f"criterion {number} ({summary})"
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
        return inner
    return wrap


def assert_close_up_to_phase(actual: np.ndarray, expected: np.ndarray, tol: float):
    anchor = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
    phase = actual[anchor] / expected[anchor]
    assert abs(abs(phase) - 1.0) <= tol, "global phase factor is not unimodular"
    assert_unitaries_close(actual, phase * expected, tol)


def prelude_symbol(qualified: str):
    probe = compile_ok("namespace Probe { function Nothing () : Int { return 0; } }")
    return get_symbol(probe, qualified)


# ── 1. The flagship listing compiles untouched and is the Fourier transform ──


@criterion(1, "flagship listing matches the Fourier oracle for n=1..5")
def test_criterion_1_flagship_listing_matches_fourier_oracle():
    started = time.monotonic()
    raw = corpus_text("accept", "approximate_qft.qds")
    assert raw.splitlines()[0].startswith("// prelude-exclude:")
    result = compile_units(
        [("listing.qds", raw)], prelude_exclude=("canon_aqft.qds",)
    )
    assert result.ok, "\n".join(d.render() for d in result.diagnostics)
    sym = get_symbol(result, "Microsoft.Quantum.Canon.ApproximateQFT")
    for n in range(1, 6):
        unitary = operation_unitary(
            sym, n, lambda refs, n=n: (n, list(refs))
        )
        reverse = bit_reversal_permutation(n)
        expected = reverse @ dft_matrix(1 << n) @ reverse
        assert_close_up_to_phase(unitary, expected, 1e-10)
    assert time.monotonic() - started < 5.0, "matrix extraction took too long"


# ── 2. Primitive gate matrices agree with the textbook constants ─────────────

_SQ2 = 1.0 / math.sqrt(2.0)

# Standard gate constants, retyped. The two-qubit one is written in |xy>
# column order with x the leftmost label, so it gets conjugated by bit
# reversal to reach the simulator's bit-0-is-first-argument indexing.
_TEXTBOOK_1Q = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "T": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
}
_TEXTBOOK_CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)


@criterion(2, "primitive gates match their textbook matrices")
def test_criterion_2_primitive_matrices_match_textbook_constants():
    for name, expected in _TEXTBOOK_1Q.items():
        sym = prelude_symbol(f"Microsoft.Quantum.Primitive.{name}")
        assert_unitaries_close(
            operation_unitary(sym, 1, single_qubit_arg), expected, 1e-12
        )

    reverse2 = bit_reversal_permutation(2)
    cnot = operation_unitary(
        prelude_symbol("Microsoft.Quantum.Primitive.CNOT"), 2, tuple_arg
    )
    assert_unitaries_close(cnot, reverse2 @ _TEXTBOOK_CNOT @ reverse2, 1e-12)

    # |x, y, z> -> |x, y, xy XOR z> with x the first argument (bit 0 here).
    ccnot = operation_unitary(
        prelude_symbol("Microsoft.Quantum.Primitive.CCNOT"), 3, tuple_arg
    )
    expected = np.zeros((8, 8), dtype=complex)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                source = x + 2 * y + 4 * z
                image = x + 2 * y + 4 * ((x & y) ^ z)
                expected[image, source] = 1.0
    assert_unitaries_close(ccnot, expected, 1e-12)


# ── 3. Generated adjoint/controlled variants are correct ────────────────────

_GATE_POOL = ["H", "X", "Y", "Z", "T"]


def _random_program(rng: random.Random, index: int) -> tuple[int, str]:
    """One register-in, unit-out operation using only auto-eligible forms."""
    width = rng.randint(2, 3) if index % 2 == 0 else rng.randint(4, 6)
    lines = [f"let k = {rng.randint(1, 3)};"]
    for _ in range(rng.randint(4, 9)):
        roll = rng.random()
        if roll < 0.45:
            lines.append(f"{rng.choice(_GATE_POOL)}(qs[{rng.randrange(width)}]);")
        elif roll < 0.60:
            numerator = rng.choice([1, -1, 3])
            lines.append(
                f"R1Frac({numerator}, {rng.randint(1, 3)}, qs[{rng.randrange(width)}]);"
            )
        elif roll < 0.75:
            control, target = rng.sample(range(width), 2)
            lines.append(f"CNOT(qs[{control}], qs[{target}]);")
        elif roll < 0.87:
            start = rng.randrange(width)
            gate = rng.choice(_GATE_POOL)
            lines.append(f"for (i in {start} .. {width - 1}) {{ {gate}(qs[i]); }}")
        else:
            gate = rng.choice(_GATE_POOL)
            guard = rng.choice(["k > 1", "k == 2", "true"])
            lines.append(f"if ({guard}) {{ {gate}(qs[{rng.randrange(width)}]); }}")
    body = "\n            ".join(lines)
    text = (
        "namespace Generated {\n"
        "    open Microsoft.Quantum.Primitive;\n"
        f"    operation Candidate{index} (qs : Qubit[]) : () {{\n"
        "        body {\n"
        f"            {body}\n"
        "        }\n"
        "        adjoint auto\n"
        "        controlled auto\n"
        "        controlled adjoint auto\n"
        "    }\n"
        "}\n"
    )
    return width, text


def _assert_adjoint_restores(sym, width, arg_builder, np_rng, states=50):
    interp = fresh_interpreter()
    refs = allocate_register(interp, width)
    arg = arg_builder(refs)
    forward = Closure(sym)
    backward = forward.adjoint()
    for _ in range(states):
        psi = haar_random_state(width, np_rng)
        interp.simulator.load(psi)
        interp.invoke(forward, arg)
        interp.invoke(backward, arg)
        error = np.max(np.abs(interp.simulator.state - psi))
        assert error <= 1e-10, f"adjoint failed to restore the state ({error:.3e})"


def _assert_controlled_is_block_diagonal(sym, width, arg_builder):
    unitary = operation_unitary(sym, width, arg_builder)
    controlled = operation_unitary(sym, width, arg_builder, n_controls=1)
    dim = 1 << width
    expected = np.eye(2 * dim, dtype=complex)
    expected[dim:, dim:] = unitary
    assert_unitaries_close(controlled, expected, 1e-10)


_PRELUDE_REVERSIBLE = [
    ("Microsoft.Quantum.Primitive.H", 1, single_qubit_arg),
    ("Microsoft.Quantum.Primitive.X", 1, single_qubit_arg),
    ("Microsoft.Quantum.Primitive.Y", 1, single_qubit_arg),
    ("Microsoft.Quantum.Primitive.Z", 1, single_qubit_arg),
    ("Microsoft.Quantum.Primitive.I", 1, single_qubit_arg),
    ("Microsoft.Quantum.Primitive.T", 1, single_qubit_arg),
    ("Microsoft.Quantum.Primitive.R1Frac", 1, lambda refs: (3, 2, refs[0])),
    ("Microsoft.Quantum.Primitive.CNOT", 2, tuple_arg),
    ("Microsoft.Quantum.Primitive.CCNOT", 3, tuple_arg),
    ("Microsoft.Quantum.Primitive.SWAP", 2, tuple_arg),
    ("Microsoft.Quantum.Canon.SwapReverseRegister", 3, register_arg),
    ("Microsoft.Quantum.Canon.QFT", 3, register_arg),
    ("Microsoft.Quantum.Canon.ApproximateQFT", 3, lambda refs: (2, list(refs))),
]


@criterion(3, "adjoint restores random states; controlled is block-diagonal")
def test_criterion_3_specializations_invert_and_control_correctly():
    np_rng = np.random.default_rng(99)

    for qualified, width, arg_builder in _PRELUDE_REVERSIBLE:
        sym = prelude_symbol(qualified)
        _assert_adjoint_restores(sym, width, arg_builder, np_rng)
        _assert_controlled_is_block_diagonal(sym, width, arg_builder)

    rng = random.Random(20260814)
    controlled_checked = 0
    for index in range(20):
        width, text = _random_program(rng, index)
        sym = get_symbol(compile_ok(text), f"Generated.Candidate{index}")
        _assert_adjoint_restores(sym, width, register_arg, np_rng)
        if width <= 3:
            _assert_controlled_is_block_diagonal(sym, width, register_arg)
            controlled_checked += 1
    assert controlled_checked >= 8


# ── 4. Non-destructive assertions ────────────────────────────────────────────


@criterion(4, "assertion snippet passes; impossible outcome reports probability 0")
def test_criterion_4_assertions_probe_without_collapsing():
    snippet = corpus_text("accept", "assert_plus_state.qds")
    assert snippet.splitlines()[0].strip() == "// statements"

    # Verbatim: the |+> state satisfies an X-basis Zero assertion.
    run_statements(snippet, strict_release=False)

    flipped = snippet.replace("Zero", "One")
    with pytest.raises(QdslFailure) as caught:
        run_statements(flipped, strict_release=False)
    assert "probability 0" in str(caught.value)

    run_statements(
        """
        using (register = Qubit[1]) {
            H(register[0]);
            AssertProb([PauliZ], register, Zero, 0.5, 0.01);
            H(register[0]);
        }
        """
    )


# ── 5. Sampling statistics ───────────────────────────────────────────────────

_COIN = """
namespace Coin {
    open Microsoft.Quantum.Primitive;

    operation Main () : Result {
        body {
            mutable outcome = Zero;
            using (q = Qubit()) {
                H(q);
                set outcome = Measure([PauliZ], [q]);
                if (outcome == One) {
                    X(q);
                }
            }
            return outcome;
        }
    }
}
"""


@criterion(5, "measurement frequencies and repeat-until statistics are sound")
def test_criterion_5_sampling_statistics():
    started = time.monotonic()

    shots = run_main(_COIN, shots=10_000, seed=42)
    zeros = sum(1 for s in shots if s.value is Result.Zero)
    frequency = zeros / 10_000
    assert 0.485 <= frequency <= 0.515, f"Zero frequency {frequency}"

    text, _ = load_accept("repeat_until.qds")
    tries = run_main(text, shots=1_000, seed=11, entry="Corpus.CoinUntilOne")
    mean = sum(s.value for s in tries) / 1_000
    # Geometric with p = 1/2: mean 2, variance 2.
    bound = 3.0 * math.sqrt(2.0 / 1_000)
    assert abs(mean - 2.0) <= bound, f"mean {mean} outside 2 +/- {bound:.4f}"

    assert time.monotonic() - started < 10.0, "sampling took too long"


# ── 6. Diagnostic corpus ─────────────────────────────────────────────────────

_NAMED_REJECTS = [
    "function_calls_operation.qds",
    "set_type_change.qds",
    "return_in_allocation.qds",
    "udt_cross_assignment.qds",
    "missing_variant.qds",
    "partial_shape_mismatch.qds",
]


@criterion(6, "reject corpus pins exact codes; accept corpus compiles clean")
def test_criterion_6_diagnostic_corpus():
    assert len(REJECT) >= 15
    for name in _NAMED_REJECTS:
        assert name in REJECT, f"{name} missing from the reject corpus"
    for name in REJECT:
        text = corpus_text("reject", name)
        expected = text.splitlines()[0].split("// expect:")[1].strip()
        result = compile_units([(name, text)])
        codes = [d.code for d in result.errors]
        assert codes, f"{name} compiled cleanly, expected {expected}"
        assert codes[0] == expected, f"{name}: expected {expected}, got {codes}"

    for name in ACCEPT:
        text, exclude = load_accept(name)
        result = compile_units([(name, text)], prelude_exclude=exclude)
        assert result.ok, name + "\n" + "\n".join(
            d.render() for d in result.diagnostics
        )


# ── 7. Partial application over nested tuples ────────────────────────────────

_PARTIAL = """
namespace PartialDemo {
    open Microsoft.Quantum.Primitive;

    operation Op (a : Int, pair : (Double, Qubit), b : Int) : () {
        body {
            let (scale, q) = pair;
            R1Frac(b, 2, q);
        }
    }

    operation Use (apply : ((Qubit, Int) => ()), q : Qubit) : () {
        body {
            apply((q), 2);
            apply(q, 2);
        }
    }

    operation Main () : () {
        body {
            using (qs = Qubit[1]) {
                H(qs[0]);
                let partial = Op(1, (1.0, _), _);
                Use(partial, qs[0]);
                Assert([PauliX], qs, One);
                Z(qs[0]);
                H(qs[0]);
            }
        }
    }
}
"""


@criterion(7, "nested-tuple partial application accepts (Qubit, Int)")
def test_criterion_7_partial_application_shape():
    # Use's parameter type pins the partial's type; both invocation shapes
    # must run, and each applies phase i, so the pair turns |+> into |->.
    run_main(_PARTIAL)

    mismatched = _PARTIAL.replace(
        "operation Use (apply : ((Qubit, Int) => ()), q : Qubit)",
        "operation Use (apply : ((Double, Int) => ()), q : Qubit)",
    ).replace("apply((q), 2);\n            apply(q, 2);", "apply(1.0, 2);")
    assert "type-mismatch" in compile_errors(mismatched)


# ── 8. Qubit hygiene and borrowing ───────────────────────────────────────────

_BORROWER = """
namespace Scratch {
    open Microsoft.Quantum.Primitive;

    operation Borrower () : () {
        body {
            borrowing (pair = Qubit[2]) {
                CNOT(pair[0], pair[1]);
                CNOT(pair[0], pair[1]);
            }
        }
    }
}
"""


@criterion(8, "no leaked qubits; borrowing reuses in-use qubits untouched")
def test_criterion_8_qubit_hygiene_and_borrowing():
    executed = 0
    for name in ACCEPT:
        text, exclude = load_accept(name)
        result = compile_units([(name, text)], prelude_exclude=exclude)
        assert result.ok
        entry, err = resolve_entry(result, None)
        if err is not None:
            continue
        interp = fresh_interpreter(seed=3, strict_release=False)
        interp.run(entry)
        assert interp.ledger.live == {}, f"{name} leaked qubits"
        assert interp.stats.allocations == interp.stats.releases, name
        executed += 1
    assert executed >= 4

    # Two in-use qubits sit outside any environment, so a borrowing block
    # that needs two must take them and allocate nothing fresh.
    interp = fresh_interpreter(seed=5)
    hidden = allocate_register(interp, 2)
    interp.simulator.apply(GATE_MATRICES["H"], hidden[0].id, ())
    interp.simulator.apply(GATE_MATRICES["X"], hidden[1].id, (hidden[0].id,))
    ids_before, before = interp.simulator.amplitudes()

    sym = get_symbol(compile_ok(_BORROWER), "Scratch.Borrower")
    interp.invoke(Closure(sym), UNIT)

    assert interp.stats.borrowed_existing == 2
    assert interp.stats.borrowed_fresh == 0
    assert interp.stats.allocations == 0
    ids_after, after = interp.simulator.amplitudes()
    assert ids_after == ids_before
    assert np.max(np.abs(after - before)) <= 1e-10


# ── 9. Deterministic output ──────────────────────────────────────────────────


def _cli_capture(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def _cli_source(name: str) -> str:
    """Corpus text rewritten so the CLI can compile it standalone."""
    text, exclude = load_accept(name)
    if exclude:
        # The CLI always loads the full prelude, so give the redefined
        # operation a fresh name instead of excluding the prelude file.
        text = corpus_text("accept", name)
        text = text.split("\n", 1)[1]
        text = text.replace("operation ApproximateQFT", "operation RelistedQFT")
    return text


@criterion(9, "same seed, same bytes, across the whole corpus")
def test_criterion_9_deterministic_output(tmp_path):
    for name in ACCEPT:
        text = _cli_source(name)
        path = tmp_path / name
        path.write_text(text)

        first = _cli_capture(["check", str(path), "--json"])
        second = _cli_capture(["check", str(path), "--json"])
        assert first == second, f"check output diverged for {name}"
        assert first[0] == 0

        if "operation Main" not in text:
            continue
        run_argv = [
            "run", str(path), "--json",
            "--seed", "17", "--shots", "5", "--permissive-release",
        ]
        first = _cli_capture(run_argv)
        second = _cli_capture(run_argv)
        assert first == second, f"run output diverged for {name}"
        assert first[0] == 0

    env = {k: v for k, v in os.environ.items() if not k.startswith("QDSL_")}
    argv = [
        sys.executable, "-m", "qdsl", "run",
        os.path.join(CORPUS, "accept", "borrowing.qds"),
        "--json", "--seed", "17", "--shots", "5",
    ]
    runs = [
        subprocess.run(argv, capture_output=True, env=env, check=True)
        for _ in range(2)
    ]
    assert runs[0].stdout == runs[1].stdout
