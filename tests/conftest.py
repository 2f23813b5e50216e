"""Shared test harness.

The heart of this file is `operation_unitary`, which extracts the matrix an
operation (or a functor applied to it) implements by running the real
interpreter on every basis state and reading back the amplitudes. All
equivalence tests (adjoint inverses, controlled block structure, QFT vs the
dense transform) compare pipeline-extracted matrices against independently
constructed numpy oracles.

Index convention used throughout: bit j (weight 2**j) of a state index
tracks the j-th smallest live qubit id. Registers allocated in order get
ids 0..n-1, so register element k corresponds to index bit k.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

import numpy as np
import pytest

from qdsl.compiler import (
    CompileResult,
    compile_snippet,
    compile_units,
    resolve_entry,
    wrap_statement_snippet,
)
from qdsl.prelude import intrinsic_handlers
from qdsl.runtime import Interpreter, QdslFailure, RunOptions, run_shots
import qdsl.simulator
from qdsl.simulator import StateVectorSimulator
from qdsl.values import Closure, QubitRef

_X = np.array([[0, 1], [1, 0]], dtype=complex)


# ── Compilation helpers ──────────────────────────────────────────────────────


def compile_ok(text: str, file: str = "<test>", **kwargs) -> CompileResult:
    result = compile_snippet(text, file=file, **kwargs)
    assert result.ok, "unexpected diagnostics:\n" + "\n".join(
        d.render() for d in result.diagnostics
    )
    return result


def compile_errors(text: str, file: str = "<test>", **kwargs) -> list[str]:
    """Compile and return the list of error codes."""
    result = compile_snippet(text, file=file, **kwargs)
    return [d.code for d in result.errors]


def get_symbol(result: CompileResult, qualified: str):
    sym = result.table.lookup_qualified(qualified)
    assert sym is not None, f"no symbol {qualified}"
    return sym


# ── Execution helpers ────────────────────────────────────────────────────────


def run_main(text: str, shots: int = 1, seed: int = 1, entry: Optional[str] = None,
             **options):
    """Compile `text`, run its entry point, return the list of ShotResults."""
    result = compile_ok(text)
    sym, err = resolve_entry(result, entry)
    assert err is None, err
    return run_shots(intrinsic_handlers(), sym, shots, seed, RunOptions(**options))


def run_statements(stmts: str, **kwargs):
    """Run a bare statement block as the body of a unit entry point."""
    return run_main(wrap_statement_snippet(stmts), **kwargs)


def fresh_interpreter(seed: int = 0, **options) -> Interpreter:
    return Interpreter(intrinsic_handlers(), RunOptions(**options), random.Random(seed))


def allocate_register(interp: Interpreter, n: int) -> list[QubitRef]:
    refs = []
    for _ in range(n):
        qid = interp.ledger.allocate()
        interp.simulator.allocate(qid)
        refs.append(interp.ledger.live[qid])
    return refs


def release_register(interp: Interpreter, refs: list[QubitRef]) -> None:
    for ref in refs:
        interp.simulator.release(ref.id, strict=False, rng=interp.rng)
        interp.ledger.release(ref.id)


# ── Matrix extraction oracle ─────────────────────────────────────────────────


def operation_unitary(
    sym,
    n: int,
    arg_builder: Callable[[list[QubitRef]], object],
    *,
    adjoint: bool = False,
    n_controls: int = 0,
) -> np.ndarray:
    """Matrix of `sym` on n qubits, extracted by executing basis columns.

    With n_controls > 0 the control qubits get the ids *above* the targets,
    so the returned matrix indexes as (controls high bits, targets low bits)
    and a correctly controlled operation is block-diagonal in control value.
    """
    total = n + n_controls
    dim = 1 << total
    matrix = np.zeros((dim, dim), dtype=complex)
    for column in range(dim):
        interp = fresh_interpreter()
        refs = allocate_register(interp, total)
        for j in range(total):
            if (column >> j) & 1:
                interp.simulator.apply(_X, refs[j].id, ())
        closure = Closure(sym)
        if adjoint:
            closure = closure.adjoint()
        if n_controls:
            closure = closure.controlled()
            arg = (
                [refs[n + c] for c in range(n_controls)],
                arg_builder(refs[:n]),
            )
        else:
            arg = arg_builder(refs[:n])
        interp.invoke(closure, arg)
        ids, amplitudes = interp.simulator.amplitudes()
        assert ids == [r.id for r in refs]
        matrix[:, column] = amplitudes
    return matrix


def register_arg(refs: list[QubitRef]) -> list[QubitRef]:
    return list(refs)


def single_qubit_arg(refs: list[QubitRef]) -> QubitRef:
    return refs[0]


def tuple_arg(refs: list[QubitRef]) -> tuple:
    return tuple(refs)


# ── Independent numeric oracles ──────────────────────────────────────────────


def dft_matrix(dim: int) -> np.ndarray:
    """Discrete Fourier transform, built from the defining formula."""
    omega = np.exp(2j * np.pi / dim)
    k, l = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return omega ** (k * l) / np.sqrt(dim)


def bit_reversal_permutation(n: int) -> np.ndarray:
    """Permutation matrix P with P|k> = |reverse of k's low n bits>."""
    dim = 1 << n
    perm = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        r = int(format(k, f"0{n}b")[::-1], 2)
        perm[r, k] = 1.0
    return perm


def haar_random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return vec / np.linalg.norm(vec)


def assert_storage(sim: StateVectorSimulator) -> None:
    """The state is in the storage its live-qubit count selects: a list of
    2^n complex up to SMALL_QUBITS qubits, a contiguous complex128 vector
    of 2^n amplitudes above."""
    size = 1 << sim.num_qubits
    if sim.num_qubits <= qdsl.simulator.SMALL_QUBITS:
        assert type(sim.state) is list and len(sim.state) == size
        assert all(type(x) is complex for x in sim.state)
    else:
        assert type(sim.state) is np.ndarray
        assert sim.state.shape == (size,) and sim.state.dtype == np.complex128
        assert sim.state.flags.c_contiguous


def kron_all(factors: list[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def assert_unitaries_close(actual: np.ndarray, expected: np.ndarray, tol: float):
    err = np.max(np.abs(actual - expected))
    assert err <= tol, f"max |difference| {err:.3e} exceeds {tol:.0e}"
