"""Intrinsic registry and prelude source loading.

The primitive namespace is half intrinsic, half source: the elementary
single-qubit gates, Measure, the assertion/message functions and a few
array/range utilities are Python handlers here, which unpack their arguments
and call the interpreter for quantum work and output, while CNOT, CCNOT,
SWAP and the reset helpers are ordinary source operations shipped as package
data (``prelude/*.qds``) along with the canon namespace.
"""

from __future__ import annotations

import functools
import os
from typing import Any

from . import types as ty
from .checker import CallableSymbol, SymbolTable
from .values import QdslFailure, UNIT

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
    forms = ((name, matrix), (f"Adjoint {name}", adjoint_matrix))

    def handler(interp, arg, adjoint, controls):
        label, gate = forms[adjoint]
        interp.apply_gate(label, gate, arg, controls)
        return UNIT

    return handler


def _r1frac_handler(r1frac_matrix):
    def r1frac(interp, arg, adjoint, controls):
        numerator, power, target = arg
        if adjoint:
            numerator = -numerator
        matrix = r1frac_matrix(numerator, power)
        # The label goes only into a trace line.
        label = "R1Frac" if interp.trace is None else f"R1Frac({numerator},{power})"
        interp.apply_gate(label, matrix, target, controls)
        return UNIT

    return r1frac


def _measure(interp, arg, adjoint, controls):
    bases, qubits = arg
    return interp.measure(bases, qubits)


def _assert(interp, arg, adjoint, controls):
    bases, qubits, expected = arg
    p_expected = interp.probe(bases, qubits, expected)
    if p_expected < 1.0 - 1e-9:
        raise QdslFailure(
            f"assertion failed: the measurement would give {expected.name} "
            f"with probability {p_expected:.6g}, not with certainty"
        )
    return UNIT


def _assert_prob(interp, arg, adjoint, controls):
    bases, qubits, expected, probability, tolerance = arg
    p_expected = interp.probe(bases, qubits, expected)
    if abs(p_expected - probability) > tolerance:
        raise QdslFailure(
            f"assertion failed: the measurement would give {expected.name} "
            f"with probability {p_expected:.6g}, expected {probability:.6g} "
            f"within {tolerance:.6g}"
        )
    return UNIT


def _message(interp, arg, adjoint, controls):
    interp.message(arg)
    return UNIT


def _length(interp, arg, adjoint, controls):
    return len(arg)


def _reversed_range(interp, arg, adjoint, controls):
    return arg.reversed()


def _updated(interp, arg, adjoint, controls):
    source, index, value = arg
    if not 0 <= index < len(source):
        raise QdslFailure(
            f"index {index} is out of range for an array of length {len(source)}"
        )
    copy = list(source)
    copy[index] = value
    return copy


def intrinsic_handlers() -> dict[str, Any]:
    # The simulator loads here and not with this module, so compiling a
    # program never loads it. Its gate tables need no numpy.
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


# The bundled sources are read as plain files, so start-up does not import
# `importlib.resources`, which takes a large share of it.
_PRELUDE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "prelude")


@functools.cache
def prelude_files() -> tuple[str, ...]:
    """Names of the bundled prelude files, sorted."""
    return tuple(sorted(n for n in os.listdir(_PRELUDE_DIR) if n.endswith(".qds")))


def prelude_units(exclude: tuple[str, ...] = ()) -> list[tuple[str, str]]:
    """(file label, source text) pairs for the bundled prelude files."""
    units = []
    for name in prelude_files():
        if name not in exclude:
            with open(os.path.join(_PRELUDE_DIR, name), encoding="utf-8") as handle:
                units.append((f"prelude/{name}", handle.read()))
    return units
