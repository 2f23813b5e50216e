"""Bundled library operations checked against independent numerics.

The Fourier-transform tests are the heart of this module. The oracle is the
textbook DFT formula; the library operation acts on a register whose first
element is the most significant bit of the encoded value, while extracted
matrices index basis states with bit j tracking register element j. Those
two conventions are bit-reversed images of each other, so the expected
matrix is P @ DFT @ P with P the bit-reversal permutation.

The truncated transform is additionally checked against a gate-by-gate
numpy replay of the same circuit, built from retyped matrices and explicit
Kronecker products rather than the simulator's stride arithmetic.
"""

import math
import random

import numpy as np
import pytest

from qdsl.compiler import resolve_entry
from qdsl.prelude import intrinsic_handlers
from qdsl.runtime import RunOptions, run_shots
from qdsl.values import Closure, Result
from conftest import (
    assert_unitaries_close,
    bit_reversal_permutation,
    compile_ok,
    dft_matrix,
    get_symbol,
    kron_all,
    operation_unitary,
    register_arg,
    run_main,
    run_statements,
    single_qubit_arg,
    tuple_arg,
)

SQ2 = 1.0 / math.sqrt(2.0)
H_FROZEN = np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)

PRELUDE_ONLY = """
namespace T {
    open Microsoft.Quantum.Primitive;
    open Microsoft.Quantum.Canon;
    operation Placeholder (q : Qubit) : () { body { } }
}"""


@pytest.fixture(scope="module")
def prelude():
    return compile_ok(PRELUDE_ONLY)


# ── Independent circuit replay for the truncated transform ───────────────────


def gate_at(n: int, bit: int, gate: np.ndarray) -> np.ndarray:
    return kron_all([EYE2] * (n - 1 - bit) + [gate] + [EYE2] * bit)


def phase_on_pair(n: int, bit_a: int, bit_b: int, angle: float) -> np.ndarray:
    """Diagonal gate adding `angle` of phase when both bits are 1."""
    diag = np.ones(1 << n, dtype=complex)
    for v in range(1 << n):
        if (v >> bit_a) & 1 and (v >> bit_b) & 1:
            diag[v] = np.exp(1j * angle)
    return np.diag(diag)


def truncated_fourier_oracle(n: int, a: int) -> np.ndarray:
    """Replay of the truncated-rotation Fourier circuit in plain numpy."""
    u = np.eye(1 << n, dtype=complex)
    for i in range(n):
        for j in range(i):
            if i - j < a:
                u = phase_on_pair(n, i, j, math.pi / 2 ** (i - j)) @ u
        u = gate_at(n, i, H_FROZEN) @ u
    return bit_reversal_permutation(n) @ u


# ── Fourier transform ────────────────────────────────────────────────────────


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_full_precision_transform_matches_dft(prelude, n):
    sym = get_symbol(prelude, "Microsoft.Quantum.Canon.QFT")
    actual = operation_unitary(sym, n, register_arg)
    p = bit_reversal_permutation(n)
    assert_unitaries_close(actual, p @ dft_matrix(1 << n) @ p, 1e-10)


@pytest.mark.parametrize("n,a", [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 3)])
def test_truncated_transform_matches_circuit_replay(prelude, n, a):
    sym = get_symbol(prelude, "Microsoft.Quantum.Canon.ApproximateQFT")
    actual = operation_unitary(sym, n, lambda refs: (a, list(refs)))
    assert_unitaries_close(actual, truncated_fourier_oracle(n, a), 1e-10)


def test_truncation_at_register_size_is_exact(prelude):
    aqft = get_symbol(prelude, "Microsoft.Quantum.Canon.ApproximateQFT")
    qft = get_symbol(prelude, "Microsoft.Quantum.Canon.QFT")
    full = operation_unitary(qft, 3, register_arg)
    truncated = operation_unitary(aqft, 3, lambda refs: (3, list(refs)))
    assert_unitaries_close(truncated, full, 1e-12)


def test_truncation_error_shrinks_as_cutoff_grows(prelude):
    sym = get_symbol(prelude, "Microsoft.Quantum.Canon.ApproximateQFT")
    n = 4
    p = bit_reversal_permutation(n)
    exact = p @ dft_matrix(1 << n) @ p
    errors = []
    for a in range(1, n + 1):
        approx = operation_unitary(sym, n, lambda refs: (a, list(refs)))
        errors.append(np.max(np.abs(approx - exact)))
    assert errors[-1] <= 1e-10
    assert all(errors[k + 1] < errors[k] + 1e-12 for k in range(n - 1))
    assert errors[0] > 1e-3  # dropping rotations genuinely changes the map


# Prelude operations with generated variants, each with a register size and
# an argument builder.
GENERATED_VARIANTS = [
    ("Microsoft.Quantum.Primitive.CNOT", 2, tuple_arg),
    ("Microsoft.Quantum.Primitive.CCNOT", 3, tuple_arg),
    ("Microsoft.Quantum.Primitive.SWAP", 2, tuple_arg),
    ("Microsoft.Quantum.Canon.SwapReverseRegister", 3, register_arg),
    ("Microsoft.Quantum.Canon.QFT", 3, register_arg),
    ("Microsoft.Quantum.Canon.ApproximateQFT", 3, lambda refs: (2, list(refs))),
]
GENERATED_IDS = [name.rsplit(".", 1)[1] for name, _, _ in GENERATED_VARIANTS]


@pytest.mark.parametrize("name, n, arg", GENERATED_VARIANTS, ids=GENERATED_IDS)
def test_adjoint_transform_inverts(prelude, name, n, arg):
    sym = get_symbol(prelude, name)
    forward = operation_unitary(sym, n, arg)
    backward = operation_unitary(sym, n, arg, adjoint=True)
    assert_unitaries_close(backward @ forward, np.eye(1 << n), 1e-10)


@pytest.mark.parametrize("name, n, arg", GENERATED_VARIANTS, ids=GENERATED_IDS)
def test_controlled_transform_is_block_diagonal(prelude, name, n, arg):
    sym = get_symbol(prelude, name)
    base = operation_unitary(sym, n, arg)
    off, on = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    identity = np.eye(1 << n)
    controlled = operation_unitary(sym, n, arg, n_controls=1)
    assert_unitaries_close(controlled, np.kron(off, identity) + np.kron(on, base), 1e-10)
    # Controlled Adjoint U = diag(I, U†).
    both = operation_unitary(sym, n, arg, adjoint=True, n_controls=1)
    assert_unitaries_close(both, np.kron(off, identity) + np.kron(on, base.conj().T), 1e-10)


# ── Elementary composites ────────────────────────────────────────────────────


def test_cnot_is_controlled_x(prelude):
    cnot = get_symbol(prelude, "Microsoft.Quantum.Primitive.CNOT")
    x = get_symbol(prelude, "Microsoft.Quantum.Primitive.X")
    via_source = operation_unitary(cnot, 2, tuple_arg)
    via_functor = operation_unitary(x, 1, single_qubit_arg, n_controls=1)
    # control is id 0 for the source form, id 1 for the functor form; the
    # matrices coincide after swapping the two index bits
    swap = np.zeros((4, 4))
    for b0 in range(2):
        for b1 in range(2):
            swap[b1 | (b0 << 1), b0 | (b1 << 1)] = 1.0
    assert_unitaries_close(via_source, swap @ via_functor @ swap, 1e-12)
    # control = index bit 0, target = bit 1: inputs 1 and 3 trade places
    expected = np.eye(4)[:, [0, 3, 2, 1]]
    assert_unitaries_close(via_source, expected, 1e-12)


def test_ccnot_truth_table(prelude):
    sym = get_symbol(prelude, "Microsoft.Quantum.Primitive.CCNOT")
    actual = operation_unitary(sym, 3, tuple_arg)
    expected = np.zeros((8, 8))
    for v in range(8):
        out = v ^ (1 << 2) if (v & 1) and (v & 2) else v
        expected[out, v] = 1.0
    assert_unitaries_close(actual, expected, 1e-12)


def test_swap_matrix(prelude):
    sym = get_symbol(prelude, "Microsoft.Quantum.Primitive.SWAP")
    actual = operation_unitary(sym, 2, tuple_arg)
    expected = np.eye(4)[:, [0, 2, 1, 3]]
    assert_unitaries_close(actual, expected, 1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_swap_reverse_register_is_bit_reversal(prelude, n):
    sym = get_symbol(prelude, "Microsoft.Quantum.Canon.SwapReverseRegister")
    actual = operation_unitary(sym, n, register_arg)
    assert_unitaries_close(actual, bit_reversal_permutation(n), 1e-12)


def test_reset_returns_qubit_to_zero():
    # |1> is flipped back; |+> collapses but always ends in |0>, so the
    # strict release succeeds on every seed
    for seed in range(6):
        [shot] = run_statements("""
            using (q = Qubit()) {
                X(q);
                Reset(q);
                H(q);
                Reset(q);
            }
        """, seed=seed)
        assert shot.stats.resets_on_release == 0


def test_reset_all_handles_mixed_register():
    [shot] = run_statements("""
            using (qs = Qubit[3]) {
                X(qs[0]);
                H(qs[1]);
                ResetAll(qs);
                Assert([PauliZ; PauliZ; PauliZ], qs, Zero);
            }
    """, seed=11)
    assert shot.stats.resets_on_release == 0


# ── Combinators ──────────────────────────────────────────────────────────────


def test_apply_to_each_matrix_is_tensor_power(prelude):
    sym = get_symbol(prelude, "Microsoft.Quantum.Canon.ApplyToEach")
    h = get_symbol(prelude, "Microsoft.Quantum.Primitive.H")
    actual = operation_unitary(sym, 2, lambda refs: (Closure(h), list(refs)))
    assert_unitaries_close(actual, np.kron(H_FROZEN, H_FROZEN), 1e-12)


def test_apply_to_each_runs_in_order():
    [shot] = run_statements("""
            using (qs = Qubit[3]) {
                ApplyToEach(X, qs);
                Assert([PauliZ; PauliZ; PauliZ], qs, One);
                ApplyToEach(X, qs);
            }
    """)
    assert shot.stats.gates == 6


def test_map_transforms_each_element():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    open Microsoft.Quantum.Canon;
    function Double (n : Int) : Int {
        return n * 2;
    }
    operation Main () : Int[] {
        body { return Map(Double, [1; 2; 3]); }
    }
}"""
    [shot] = run_main(text)
    assert shot.value == [2, 4, 6]


def test_map_with_partially_applied_add():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    open Microsoft.Quantum.Canon;
    function Add (a : Int, b : Int) : Int {
        return a + b;
    }
    operation Main () : Int[] {
        body { return Map(Add(1, _), [1; 2; 3]); }
    }
}"""
    [shot] = run_main(text)
    assert shot.value == [2, 3, 4]


def test_map_usable_inside_functions():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    open Microsoft.Quantum.Canon;
    function Negate (n : Int) : Int {
        return 0 - n;
    }
    function NegateAll (ns : Int[]) : Int[] {
        return Map(Negate, ns);
    }
    operation Main () : Int[] {
        body { return NegateAll([4; 5]); }
    }
}"""
    [shot] = run_main(text)
    assert shot.value == [-4, -5]


def test_map_of_runtime_empty_array():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    open Microsoft.Quantum.Canon;
    function Double (n : Int) : Int {
        return n * 2;
    }
    operation Main () : Int {
        body {
            let none = [1; 2][1 .. 0];
            return Length(Map(Double, none));
        }
    }
}"""
    [shot] = run_main(text)
    assert shot.value == 0


def test_fold_accumulates_left_to_right():
    text = """
namespace T {
    open Microsoft.Quantum.Canon;
    function Step (acc : String, n : Int) : String {
        return $"{acc}({n}";
    }
    operation Main () : String {
        body { return Fold(Step, "", [1; 2; 3]); }
    }
}"""
    [shot] = run_main(text)
    assert shot.value == "(1(2(3"  # left fold: earlier elements applied first


def test_fold_sums():
    text = """
namespace T {
    open Microsoft.Quantum.Canon;
    function Add (a : Int, b : Int) : Int { return a + b; }
    operation Main () : Int {
        body { return Fold(Add, 0, [1; 2; 3; 4]); }
    }
}"""
    [shot] = run_main(text)
    assert shot.value == 10


@pytest.mark.parametrize("power,expected_phase", [(0, 0), (1, 1), (3, 3), (8, 0)])
def test_operation_pow_matrix(prelude, power, expected_phase):
    # T^8 = identity; T^k rotates |1> by k eighth-turns
    sym = get_symbol(prelude, "Microsoft.Quantum.Canon.OperationPowImpl")
    t = get_symbol(prelude, "Microsoft.Quantum.Primitive.T")
    actual = operation_unitary(sym, 1, lambda refs: (Closure(t), power, refs[0]))
    expected = np.diag([1.0, np.exp(1j * math.pi * expected_phase / 4)])
    assert_unitaries_close(actual, expected, 1e-12)


def test_operation_pow_returns_reusable_closure():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    open Microsoft.Quantum.Canon;
    operation Main () : Result {
        body {
            mutable r = Zero;
            let thrice = OperationPow(X, 3);
            using (q = Qubit()) {
                thrice(q);
                set r = Measure([PauliZ], [q]);
                thrice(q);
            }
            return r;
        }
    }
}"""
    [shot] = run_main(text)
    assert shot.value is Result.One  # X^3 = X


def test_operation_pow_zero_is_identity():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    open Microsoft.Quantum.Canon;
    operation Main () : Result {
        body {
            mutable r = One;
            let nothing = OperationPow(X, 0);
            using (q = Qubit()) {
                nothing(q);
                set r = Measure([PauliZ], [q]);
            }
            return r;
        }
    }
}"""
    [shot] = run_main(text)
    assert shot.value is Result.Zero


# ── Primitive utilities ──────────────────────────────────────────────────────


def test_length_counts_elements():
    [shot] = run_statements('Message($"{Length([4; 5; 6])}");')
    assert shot.messages == ["3"]


def test_reversed_range_intrinsic():
    [shot] = run_statements("""
            Message($"{ReversedRange(1 .. 4)}");
            Message($"{ReversedRange(0 .. 2 .. 5)}");
            Message($"{ReversedRange(5 .. -2 .. 0)}");
    """)
    assert shot.messages == ["4..-1..1", "4..-2..0", "1..2..5"]


def test_identity_measurement_returns_zero_on_any_state():
    [shot] = run_statements("""
            using (q = Qubit()) {
                X(q);
                let r = Measure([PauliI], [q]);
                Message($"{r}");
                X(q);
            }
    """)
    assert shot.messages == ["Zero"]


def test_identity_measurement_consumes_no_randomness():
    """Outcome streams with and without an identity measure are identical."""

    def outcomes(text: str) -> list:
        result = compile_ok(text)
        sym, err = resolve_entry(result, None)
        assert err is None
        shots = run_shots(intrinsic_handlers(), sym, 40, 99, RunOptions())
        return [s.value for s in shots]

    plain = """
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Main () : Result {
        body {
            mutable r = Zero;
            using (q = Qubit()) {
                H(q);
                set r = Measure([PauliZ], [q]);
                if (r == One) { X(q); }
            }
            return r;
        }
    }
}"""
    probed = plain.replace(
        "H(q);", "let ignored = Measure([PauliI], [q]); H(q);"
    )
    assert outcomes(plain) == outcomes(probed)


def test_assert_is_non_destructive():
    # asserting twice in a row must not disturb the state
    [shot] = run_statements("""
            using (q = Qubit()) {
                H(q);
                Assert([PauliX], [q], Zero);
                Assert([PauliX], [q], Zero);
                H(q);
            }
    """)
    assert shot.stats.measurements == 0
