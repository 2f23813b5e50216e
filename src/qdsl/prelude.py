"""Intrinsic registry and prelude source loading.

The primitive namespace is half intrinsic, half source: the elementary
single-qubit gates, Measure, the assertion/message functions and a few
array/range utilities are implemented here as Python handlers, while CNOT,
CCNOT, SWAP and the reset helpers are ordinary source operations shipped as
package data (``prelude/*.qds``) along with the canon namespace.
"""

from __future__ import annotations

import functools
from importlib import resources
from typing import Any

from . import types as ty
from .checker import CallableSymbol, SymbolTable
from .values import Pauli, QubitRef, RangeValue, Result, UNIT

PRIMITIVE_NAMESPACE = "Microsoft.Quantum.Primitive"

_T = ty.Param("`T", None)

_PAULIS = ty.Array(ty.PAULI)
_QUBITS = ty.Array(ty.QUBIT)


def _sym(
    name: str,
    is_operation: bool,
    input_t: ty.Type,
    output_t: ty.Type,
    variants: frozenset[str] = frozenset(),
    type_params: tuple[str, ...] = (),
) -> CallableSymbol:
    return CallableSymbol(
        PRIMITIVE_NAMESPACE,
        name,
        is_operation,
        list(type_params),
        input_t,
        output_t,
        variants,
        decl=None,
        intrinsic=name,
    )


def intrinsic_symbols() -> list[CallableSymbol]:
    gates = [
        _sym(name, True, ty.QUBIT, ty.UNIT, ty.BOTH_VARIANTS)
        for name in ("H", "X", "Y", "Z", "I", "T")
    ]
    return gates + [
        _sym(
            "R1Frac",
            True,
            ty.Tuple((ty.INT, ty.INT, ty.QUBIT)),
            ty.UNIT,
            ty.BOTH_VARIANTS,
        ),
        _sym("Measure", True, ty.Tuple((_PAULIS, _QUBITS)), ty.RESULT),
        _sym(
            "Assert",
            False,
            ty.Tuple((_PAULIS, _QUBITS, ty.RESULT)),
            ty.UNIT,
        ),
        _sym(
            "AssertProb",
            False,
            ty.Tuple((_PAULIS, _QUBITS, ty.RESULT, ty.DOUBLE, ty.DOUBLE)),
            ty.UNIT,
        ),
        _sym("Message", False, ty.STRING, ty.UNIT),
        _sym("Length", False, ty.Array(_T), ty.INT, type_params=("`T",)),
        _sym("ReversedRange", False, ty.RANGE, ty.RANGE),
        _sym(
            "Updated",
            False,
            ty.Tuple((ty.Array(_T), ty.INT, _T)),
            ty.Array(_T),
            type_params=("`T",),
        ),
    ]


def seed_table(table: SymbolTable) -> None:
    for sym in intrinsic_symbols():
        table.define(sym)


# ── Handlers ─────────────────────────────────────────────────────────────────


def _gate_handler(name: str, matrix, adjoint_matrix):
    def handler(interp, arg, adjoint, controls):
        interp.apply_gate(
            name, adjoint_matrix if adjoint else matrix, arg, adjoint, controls
        )
        return UNIT

    return handler


def _r1frac_handler(r1frac_matrix):
    def r1frac(interp, arg, adjoint, controls):
        numerator, power, target = arg
        if adjoint:
            numerator = -numerator
        matrix = r1frac_matrix(numerator, power)
        # The display text goes only into a trace line.
        display = "R1Frac" if interp.trace is None else f"R1Frac({numerator},{power})"
        interp.apply_gate(display, matrix, target, False, controls)
        return UNIT

    return r1frac


def _measure(interp, arg, adjoint, controls):
    bases, qubits = arg
    letters, ids = [p.name for p in bases], interp.ledger.ids(qubits)
    one = interp.simulator.measure(letters, ids, interp.rng)
    outcome = Result.One if one else Result.Zero
    interp.stats.measurements += 1
    if interp.trace is not None:
        basis_text = " ".join(letters) or "-"
        target_text = " ".join(f"q{q}" for q in ids) or "-"
        interp.trace(f"measure [{basis_text}] [{target_text}] -> {outcome.name}")
    return outcome


def _probe(interp, bases, qubits) -> float:
    letters, ids = [p.name for p in bases], interp.ledger.ids(qubits)
    return interp.simulator.probe_zero_probability(letters, ids)


def _snap(probability: float) -> float:
    """Clamp float noise at the endpoints so reports read 0 and 1 exactly."""
    if probability < 1e-12:
        return 0.0
    if probability > 1.0 - 1e-12:
        return 1.0
    return probability


def _assert(interp, arg, adjoint, controls):
    bases, qubits, expected = arg
    p_zero = _probe(interp, bases, qubits)
    p_expected = _snap(p_zero if expected is Result.Zero else 1.0 - p_zero)
    if p_expected < 1.0 - 1e-9:
        interp.fail(
            f"assertion failed: the measurement would give {expected.name} "
            f"with probability {p_expected:.6g}, not with certainty"
        )
    return UNIT


def _assert_prob(interp, arg, adjoint, controls):
    bases, qubits, expected, probability, tolerance = arg
    p_zero = _probe(interp, bases, qubits)
    p_expected = _snap(p_zero if expected is Result.Zero else 1.0 - p_zero)
    if abs(p_expected - probability) > tolerance:
        interp.fail(
            f"assertion failed: the measurement would give {expected.name} "
            f"with probability {p_expected:.6g}, expected {probability:.6g} "
            f"within {tolerance:.6g}"
        )
    return UNIT


def _message(interp, arg, adjoint, controls):
    interp.messages.append(arg)
    if interp.trace is not None:
        interp.trace(f"message {arg}")
    return UNIT


def _length(interp, arg, adjoint, controls):
    return len(arg)


def _reversed_range(interp, arg, adjoint, controls):
    return arg.reversed()


def _updated(interp, arg, adjoint, controls):
    source, index, value = arg
    if not 0 <= index < len(source):
        interp.fail(
            f"index {index} is out of range for an array of length {len(source)}"
        )
    copy = list(source)
    copy[index] = value
    return copy


def intrinsic_handlers() -> dict[str, Any]:
    # The simulator, and numpy with it, loads here and not with this module,
    # so compiling a program never loads it.
    from .simulator import GATE_ADJOINTS, GATE_MATRICES, r1frac_matrix

    handlers: dict[str, Any] = {
        name: _gate_handler(name, GATE_MATRICES[name], GATE_ADJOINTS[name])
        for name in ("H", "X", "Y", "Z", "I", "T")
    }
    handlers.update(
        {
            "R1Frac": _r1frac_handler(r1frac_matrix),
            "Measure": _measure,
            "Assert": _assert,
            "AssertProb": _assert_prob,
            "Message": _message,
            "Length": _length,
            "ReversedRange": _reversed_range,
            "Updated": _updated,
        }
    )
    return handlers


# ── Prelude sources ──────────────────────────────────────────────────────────


@functools.cache
def prelude_files() -> tuple[str, ...]:
    """Names of the bundled prelude files, sorted."""
    root = resources.files("qdsl").joinpath("prelude")
    return tuple(sorted(e.name for e in root.iterdir() if e.name.endswith(".qds")))


def prelude_units(exclude: tuple[str, ...] = ()) -> list[tuple[str, str]]:
    """(file label, source text) pairs for the bundled prelude files."""
    root = resources.files("qdsl").joinpath("prelude")
    return [
        (f"prelude/{name}", root.joinpath(name).read_text(encoding="utf-8"))
        for name in prelude_files()
        if name not in exclude
    ]
