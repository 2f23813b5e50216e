"""Specialization generation: structure of the rewritten blocks, and
machine-checked equivalence of the generated variants.

Structural expectations render generated blocks back to source text.
Equivalence uses the matrix-extraction oracle: the generated adjoint must
invert the body on every basis state, and the generated controlled variant
must act as identity when controls are |0> while reproducing the body in
the |1> control block.
"""

import numpy as np
import pytest

from qdsl.ast_nodes import SpecKind
from qdsl.compiler import compile_snippet
from qdsl.pretty import pretty_print
from conftest import (
    assert_unitaries_close,
    compile_errors,
    compile_ok,
    get_symbol,
    operation_unitary,
    register_arg,
    single_qubit_arg,
    tuple_arg,
)


def generated_block_text(result, qualified, kind):
    sym = get_symbol(result, qualified)
    entry = sym.specializations[kind]
    assert entry.generated
    return pretty_print(entry.block)


# ── Structure of generated adjoints ──────────────────────────────────────────


def test_adjoint_reverses_and_inverts_calls():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Two (a : Qubit, b : Qubit) : () {
        body {
            H(a);
            CNOT(a, b);
        }
        adjoint auto
    }
}""")
    text = generated_block_text(result, "T.Two", SpecKind.ADJOINT)
    assert text.index("(Adjoint CNOT)(a, b);") < text.index("(Adjoint H)(a);")


def test_adjoint_hoists_classical_lets_in_order():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Op (q : Qubit) : () {
        body {
            let n = 2;
            let m = n + 1;
            R1Frac(n, m, q);
            H(q);
        }
        adjoint auto
    }
}""")
    text = generated_block_text(result, "T.Op", SpecKind.ADJOINT)
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    assert lines[0].startswith("let n")
    assert lines[1].startswith("let m")
    assert lines.index("(Adjoint H)(q);") < lines.index("(Adjoint R1Frac)(n, m, q);")


def test_adjoint_reverses_loops_with_reversed_range():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Op (qs : Qubit[]) : () {
        body {
            for (i in 0 .. Length(qs) - 1) {
                H(qs[i]);
            }
        }
        adjoint auto
    }
}""")
    text = generated_block_text(result, "T.Op", SpecKind.ADJOINT)
    assert "ReversedRange(0 .. Length(qs) - 1)" in text
    assert "(Adjoint H)(qs[i]);" in text


def test_adjoint_of_explicit_adjoint_call_unwraps():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Op (q : Qubit) : () {
        body {
            (Adjoint T)(q);
        }
        adjoint auto
    }
}""")
    text = generated_block_text(result, "T.Op", SpecKind.ADJOINT)
    assert "T(q);" in text
    assert "Adjoint Adjoint" not in text


def test_adjoint_keeps_diagnostics_unwrapped():
    # Assert and Message are functions: inverse execution passes through the
    # same intermediate states, so mirror-position diagnostics stay valid.
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Op (q : Qubit) : () {
        body {
            H(q);
            Assert([PauliX], [q], Zero);
            Message("checked");
            H(q);
        }
        adjoint auto
    }
}""")
    text = generated_block_text(result, "T.Op", SpecKind.ADJOINT)
    assert 'Assert([PauliX], [q], Zero);' in text
    assert 'Message("checked");' in text
    assert "Adjoint Assert" not in text
    assert "Adjoint Message" not in text


def test_adjoint_recurses_into_if_branches():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Op (flag : Bool, a : Qubit, b : Qubit) : () {
        body {
            if (flag) {
                H(a);
                CNOT(a, b);
            } else {
                X(a);
            }
        }
        adjoint auto
    }
}""")
    text = generated_block_text(result, "T.Op", SpecKind.ADJOINT)
    assert text.index("(Adjoint CNOT)(a, b);") < text.index("(Adjoint H)(a);")
    assert "(Adjoint X)(a);" in text


# ── Structure of generated controlled variants ───────────────────────────────


def test_controlled_wraps_calls_and_packs_arguments():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Op (a : Qubit, b : Qubit) : () {
        body {
            H(a);
            CNOT(a, b);
        }
        controlled auto
    }
}""")
    text = generated_block_text(result, "T.Op", SpecKind.CONTROLLED)
    assert "(Controlled H)(ctls, a);" in text
    assert "(Controlled CNOT)(ctls, (a, b));" in text


def test_controlled_leaves_classical_statements_alone():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Op (q : Qubit) : () {
        body {
            mutable n = 1;
            set n = n + 2;
            for (i in 1 .. n) {
                R1Frac(1, i, q);
            }
        }
        controlled auto
    }
}""")
    text = generated_block_text(result, "T.Op", SpecKind.CONTROLLED)
    assert "mutable n = 1;" in text
    assert "set n = n + 2;" in text
    assert "(Controlled R1Frac)(ctls, (1, i, q));" in text


def test_control_register_name_avoids_collisions():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Op (ctls : Qubit[], q : Qubit) : () {
        body {
            let ctls1 = 0;
            X(q);
        }
        controlled auto
    }
}""")
    text = generated_block_text(result, "T.Op", SpecKind.CONTROLLED)
    assert "(Controlled X)(ctls2, q);" in text


# Each case takes `ctls` (and the last also `ctls1`) in a different way:
# (parameters before `q`, statements before `X(q);` in the body, the
# specializations after the body, the generated register name).
_AUTO = "controlled auto"
_ADJOINT_USING = (
    "adjoint {{ {} (ctls = Qubit()) {{ }} X(q); }} controlled auto "
    "controlled adjoint (cs) {{ (Controlled X)(cs, q); }}"
)


@pytest.mark.parametrize(
    "params, stmts, specs, name",
    [
        ("(a : Int, (b : Int, ctls : Int)), ", "", _AUTO, "ctls1"),
        ("", "let (a, ctls) = (1, 2);", _AUTO, "ctls1"),
        ("", "mutable ctls = 0;", _AUTO, "ctls1"),
        ("", "for (ctls in 0 .. 1) { }", _AUTO, "ctls1"),
        ("", "", _ADJOINT_USING.format("using"), "ctls1"),
        ("", "", _ADJOINT_USING.format("borrowing"), "ctls1"),
        (
            "",
            "",
            "adjoint auto controlled (ctls) { X(q); } "
            "controlled adjoint auto",
            "ctls1",
        ),
        ("", "let a = ctls();", _AUTO, "ctls1"),
        ("", "mutable ctls = 0; for (ctls1 in 0 .. 1) { }", _AUTO, "ctls2"),
    ],
)
def test_control_register_name_skips_every_name_the_callable_uses(
    params, stmts, specs, name
):
    result = compile_ok(f"""
namespace T {{
    open Microsoft.Quantum.Primitive;
    function ctls () : Int {{ return 0; }}
    operation Op ({params}q : Qubit) : () {{
        body {{
            {stmts}
            X(q);
        }}
        {specs}
    }}
}}""")
    sym = get_symbol(result, "T.Op")
    [entry] = [e for e in sym.specializations.values() if e.generated and e.ctl_param]
    assert entry.ctl_param == name
    assert f"X)({name}, q);" in pretty_print(entry.block)


def test_controlled_adjoint_controls_the_reversed_body():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Op (a : Qubit, b : Qubit) : () {
        body {
            H(a);
            CNOT(a, b);
        }
        adjoint auto
        controlled auto
        controlled adjoint auto
    }
}""")
    text = generated_block_text(result, "T.Op", SpecKind.CONTROLLED_ADJOINT)
    assert text.index("(Controlled Adjoint CNOT)(ctls, (a, b));") < text.index(
        "(Controlled Adjoint H)(ctls, a);"
    )


# ── Eligibility limits ───────────────────────────────────────────────────────

INELIGIBLE_ADJOINT = [
    "repeat { H(q); } until true fixup { }",
    "return ();",
    "mutable n = 1; H(q);",
    "using (a = Qubit[1]) { }",
    "let r = Measure([PauliZ], [q]);",
    "if (Measure([PauliZ], [q]) == One) { }",
]


@pytest.mark.parametrize("body", INELIGIBLE_ADJOINT)
def test_adjoint_auto_rejects_irreversible_shapes(body):
    codes = compile_errors(f"""
namespace T {{
    open Microsoft.Quantum.Primitive;
    operation Op (q : Qubit) : () {{
        body {{ {body} }}
        adjoint auto
    }}
}}""")
    assert "adjoint-ineligible" in codes


# The adjoint moves every `let` to the front of its block, where it would
# capture the uses of the name it shadows that came before it.
SHADOWING_LETS = {  # the body, and the `let` that shadows an earlier use
    "parameter": ("R1Frac(x, 3, q); let x = 1; R1Frac(x, 3, q);", "let x"),
    "tuple pattern": ("R1Frac(x, 3, q); let (y, x) = (1, 2); R1Frac(y, x, q);", "let (y"),
    "nested use": ("if (x > 0) { for (i in 1 .. x) { R1Frac(i, 3, q); } } let x = 1;", "let x"),
    "enclosing let": (
        "let y = x; if (y > 0) { R1Frac(y, 3, q); let y = 1; R1Frac(y, 3, q); }",
        "let y = 1",
    ),
}


@pytest.mark.parametrize("case", sorted(SHADOWING_LETS))
def test_adjoint_auto_rejects_a_let_that_shadows_an_earlier_use(case):
    body, shadowing = SHADOWING_LETS[case]
    text = f"""
namespace T {{
    open Microsoft.Quantum.Primitive;
    operation Rot (x : Int, q : Qubit) : () {{
        body {{ {body} }}
        adjoint auto
    }}
}}"""
    [error] = compile_snippet(text).errors
    assert error.code == "adjoint-ineligible"
    assert error.message.endswith("a let binding here must not shadow a name used before it")
    assert error.span.start == text.index(shadowing)


def test_adjoint_auto_keeps_a_let_that_shadows_only_later_uses():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Rot (x : Int, q : Qubit) : () {
        body { let y = x; let x = 1; R1Frac(x, y, q); }
        adjoint auto
    }
}""")
    text = generated_block_text(result, "T.Rot", SpecKind.ADJOINT)
    assert text.index("let y = x;") < text.index("let x = 1;") < text.index("R1Frac")


INELIGIBLE_CONTROLLED = [
    "repeat { H(q); } until true fixup { }",
    "return ();",
    "using (a = Qubit[1]) { }",
    # measurement results cannot flow into a controlled body: a control in
    # superposition would make the classical branch ill-defined
    "let r = Measure([PauliZ], [q]); if (r == One) { X(q); }",
]


@pytest.mark.parametrize("body", INELIGIBLE_CONTROLLED)
def test_controlled_auto_rejects_uncontrollable_shapes(body):
    codes = compile_errors(f"""
namespace T {{
    open Microsoft.Quantum.Primitive;
    operation Op (q : Qubit) : () {{
        body {{ {body} }}
        controlled auto
    }}
}}""")
    assert "controlled-ineligible" in codes


def test_controlled_auto_allows_classical_only_guards():
    compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Op (flag : Bool, q : Qubit) : () {
        body {
            if (flag) { X(q); }
        }
        controlled auto
    }
}""")


# ── Machine-checked equivalence ──────────────────────────────────────────────

PREP_TWO = """
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Prep (a : Qubit, b : Qubit) : () {
        body {
            H(a);
            T(a);
            CNOT(a, b);
            R1Frac(1, 3, b);
        }
        adjoint auto
        controlled auto
        controlled adjoint auto
    }
}"""


def test_generated_adjoint_inverts_the_body():
    result = compile_ok(PREP_TWO)
    sym = get_symbol(result, "T.Prep")
    forward = operation_unitary(sym, 2, tuple_arg)
    backward = operation_unitary(sym, 2, tuple_arg, adjoint=True)
    assert_unitaries_close(backward @ forward, np.eye(4), 1e-10)
    assert_unitaries_close(backward, forward.conj().T, 1e-10)


def test_generated_controlled_is_block_diagonal():
    result = compile_ok(PREP_TWO)
    sym = get_symbol(result, "T.Prep")
    base = operation_unitary(sym, 2, tuple_arg)
    controlled = operation_unitary(sym, 2, tuple_arg, n_controls=1)
    expected = np.kron(np.diag([1.0, 0.0]), np.eye(4)) + np.kron(
        np.diag([0.0, 1.0]), base
    )
    assert_unitaries_close(controlled, expected, 1e-10)


def test_generated_controlled_adjoint_matches_both_paths():
    result = compile_ok(PREP_TWO)
    sym = get_symbol(result, "T.Prep")
    base = operation_unitary(sym, 2, tuple_arg)
    ca = operation_unitary(sym, 2, tuple_arg, adjoint=True, n_controls=1)
    expected = np.kron(np.diag([1.0, 0.0]), np.eye(4)) + np.kron(
        np.diag([0.0, 1.0]), base.conj().T
    )
    assert_unitaries_close(ca, expected, 1e-10)


def test_adjoint_self_runs_the_body():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Mirror (a : Qubit, b : Qubit) : () {
        body {
            CNOT(a, b);
        }
        adjoint self
    }
}""")
    sym = get_symbol(result, "T.Mirror")
    forward = operation_unitary(sym, 2, tuple_arg)
    backward = operation_unitary(sym, 2, tuple_arg, adjoint=True)
    assert_unitaries_close(backward, forward, 1e-12)


@pytest.mark.parametrize("ca_impl", ["auto", "self"])
def test_controlled_adjoint_of_a_self_adjoint_operation(ca_impl):
    # Either way the controlled adjoint runs the controlled body.
    result = compile_ok(f"""
namespace T {{
    open Microsoft.Quantum.Primitive;
    operation Mirror (a : Qubit, b : Qubit) : () {{
        body {{
            H(a);
            CNOT(a, b);
            H(a);
        }}
        adjoint self
        controlled auto
        controlled adjoint {ca_impl}
    }}
}}""")
    sym = get_symbol(result, "T.Mirror")
    base = operation_unitary(sym, 2, tuple_arg)
    controlled = operation_unitary(sym, 2, tuple_arg, n_controls=1)
    ca = operation_unitary(sym, 2, tuple_arg, adjoint=True, n_controls=1)
    expected = np.kron(np.diag([1.0, 0.0]), np.eye(4)) + np.kron(
        np.diag([0.0, 1.0]), base
    )
    assert_unitaries_close(controlled, expected, 1e-12)
    assert_unitaries_close(ca, controlled, 1e-12)


def test_loop_adjoint_handles_strided_ranges():
    # 0..2..5 visits 0, 2, 4; its reverse must visit 4, 2, 0 even though
    # the naive swapped range 5..-2..0 would visit 5, 3, 1.
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Strided (qs : Qubit[]) : () {
        body {
            for (i in 0 .. 2 .. 5) {
                T(qs[i]);
                H(qs[i]);
            }
        }
        adjoint auto
    }
}""")
    sym = get_symbol(result, "T.Strided")
    forward = operation_unitary(sym, 6, register_arg)
    backward = operation_unitary(sym, 6, register_arg, adjoint=True)
    assert_unitaries_close(backward @ forward, np.eye(64), 1e-10)


def test_nested_operation_adjoint_recurses_through_calls():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Inner (q : Qubit) : () {
        body {
            H(q);
            T(q);
        }
        adjoint auto
    }
    operation Outer (q : Qubit) : () {
        body {
            Inner(q);
            X(q);
        }
        adjoint auto
    }
}""")
    sym = get_symbol(result, "T.Outer")
    forward = operation_unitary(sym, 1, single_qubit_arg)
    backward = operation_unitary(sym, 1, single_qubit_arg, adjoint=True)
    assert_unitaries_close(backward @ forward, np.eye(2), 1e-10)
