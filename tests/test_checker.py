"""Type and effect checking, rule by rule.

The reject corpus locks one program per error code; these tests pin the
finer behaviors around each rule: where a construct is still legal, what
type an expression is given, and how scopes interact.
"""

import pytest

from qdsl import types as ty
from qdsl.ast_nodes import FunctorExpr, IntLit, walk
from qdsl.compiler import compile_snippet, compile_units
from conftest import compile_errors, compile_ok, get_symbol


def body_exprs(result, qualified):
    sym = get_symbol(result, qualified)
    return list(walk(sym.decl))


# ── Operations vs functions ──────────────────────────────────────────────────


def test_operation_may_call_functions_and_operations():
    compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    function Half (x : Int) : Int { return x / 2; }
    operation Both (q : Qubit) : () {
        body {
            let h = Half(4);
            X(q);
        }
    }
}""")


def test_function_may_pass_operations_without_calling():
    compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    function Choose (flip : Bool) : (Qubit => () : Adjoint, Controlled) {
        if (flip) { return X; }
        return Z;
    }
}""")


def test_function_calling_operation_via_local_is_rejected():
    codes = compile_errors("""
namespace T {
    open Microsoft.Quantum.Primitive;
    function Sneak (q : Qubit) : () {
        let op = X;
        op(q);
    }
}""")
    assert "function-calls-operation" in codes


def test_borrowing_in_function_is_rejected():
    codes = compile_errors("""
namespace T {
    function F () : Int {
        borrowing (qs = Qubit[1]) { }
        return 1;
    }
}""")
    assert codes == ["function-allocates"]


# ── Functors ─────────────────────────────────────────────────────────────────


def test_controlled_type_prepends_control_register():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Use (cs : Qubit[], q : Qubit) : () {
        body {
            (Controlled X)(cs, q);
        }
    }
}""")
    exprs = [
        n for n in body_exprs(result, "T.Use")
        if isinstance(n, FunctorExpr) and n.functor == "Controlled"
    ]
    t = exprs[0].ty
    assert isinstance(t, ty.Callable)
    assert t.input == ty.Tuple((ty.Array(ty.QUBIT), ty.QUBIT))


def test_adjoint_preserves_callable_type():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Use (q : Qubit) : () {
        body {
            (Adjoint H)(q);
        }
    }
}""")
    exprs = [
        n for n in body_exprs(result, "T.Use")
        if isinstance(n, FunctorExpr)
    ]
    t = exprs[0].ty
    assert isinstance(t, ty.Callable) and t.input == ty.QUBIT


def test_functor_on_function_is_rejected():
    codes = compile_errors("""
namespace T {
    function Id (x : Int) : Int { return x; }
    function F (x : Int) : Int {
        let g = Adjoint Id;
        return x;
    }
}""")
    assert "missing-variant" in codes


def test_controlled_requires_controlled_variant():
    codes = compile_errors("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation NoCtl (q : Qubit) : () {
        body { let r = Measure([PauliZ], [q]); }
    }
    operation Use (c : Qubit, q : Qubit) : () {
        body { (Controlled NoCtl)([c], q); }
    }
}""")
    assert "missing-variant" in codes


@pytest.mark.parametrize(
    "specs, message",
    [
        (
            "adjoint auto controlled auto",
            "an operation with both adjoint and controlled specializations "
            "must also declare controlled adjoint",
        ),
        (
            "adjoint auto controlled adjoint auto",
            "a controlled adjoint specialization requires both adjoint and "
            "controlled specializations",
        ),
        (
            "controlled auto controlled adjoint auto",
            "a controlled adjoint specialization requires both adjoint and "
            "controlled specializations",
        ),
    ],
)
def test_specialization_combination_is_reported_at_the_name(specs, message):
    text = (
        "namespace T { open Microsoft.Quantum.Primitive;\n"
        "operation Op (q : Qubit) : () { body { X(q); } " + specs + " } }"
    )
    result = compile_snippet(text)
    assert [
        (d.code, d.message, text[d.span.start : d.span.end]) for d in result.errors
    ] == [("specialization-mismatch", message, "Op")]


# ── Partial application ──────────────────────────────────────────────────────


def test_partial_application_result_type_keeps_variants():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Use (q : Qubit) : () {
        body {
            let f = R1Frac(1, 2, _);
            (Adjoint f)(q);
        }
    }
}""")


def test_partial_application_in_function_does_not_count_as_call():
    compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    function Build () : (Qubit => () : Adjoint, Controlled) {
        return R1Frac(3, 4, _);
    }
}""")


def test_partial_with_wrong_given_type_is_rejected():
    codes = compile_errors("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Use (q : Qubit) : () {
        body {
            let f = R1Frac(1.5, _, _);
        }
    }
}""")
    assert "type-mismatch" in codes


def test_a_hole_cannot_split_a_newtype_argument():
    # First(7, 2) is rejected, so First(_, 2) must be too: a Pair is one value
    codes = compile_errors("""
newtype Pair = (Int, Int);
function First (p : Pair) : Int { return 0; }
function Main () : Int { let g = First(_, 2); return g(7); }""")
    assert codes == ["partial-shape-mismatch"]


def test_a_failed_partial_application_still_checks_its_given_arguments():
    codes = compile_errors("""
function F (a : Int) : Int { return a; }
function Main () : Int { let g = F(nope, _); return 0; }""")
    assert codes == ["partial-shape-mismatch", "name-not-found"]


def test_an_unknown_callee_still_types_the_items_of_a_hole_bearing_tuple():
    result = compile_snippet(
        "function Main () : Int { let g = G(nope, (1, _)); return 0; }"
    )
    assert [d.code for d in result.errors] == ["name-not-found", "name-not-found"]
    program = result.units[-1][1]
    assert [n.ty for n in walk(program) if isinstance(n, IntLit)] == [ty.INT, ty.INT]


def test_wrong_arity_given_tuple_has_one_code_in_calls_and_partials():
    program = """
function F (a : (Int, Int), b : Int) : Int {{ return b; }}
function Main () : Int {{ let x = {call}; return 0; }}"""
    for call in ("F((1, 2, 3), 4)", "F((1, 2, 3), _)"):
        assert compile_errors(program.format(call=call)) == ["call-shape-mismatch"]


_SIGNATURES = [
    "(p : Pair)",
    "(a : Pair, b : Int)",
    "(a : Double, (b : Int, c : Bool))",
    "(a : Int)",
    "(a : Int, b : Int)",
    "(a : (Int, Int), b : Int)",
    "(a : Bool, b : Double)",
]
_ATOMS = ["7", "2.5", "true", "(1, 2)", "Pair(3, 4)", "(5, false)", "(1, 2, 3)"]


@pytest.mark.parametrize("signature", _SIGNATURES)
def test_a_partial_application_accepts_exactly_what_the_call_accepts(signature):
    # For every argument list and every non-empty choice of holes in it,
    # `F(<args with holes>)` applied to the held-out values compiles clean
    # exactly when `F(<args>)` does.
    program = f"""
newtype Pair = (Int, Int);
function F {signature} : Int {{{{ return 0; }}}}
function Main () : Int {{{{ {{body}} }}}}"""

    def clean(body):
        return compile_errors(program.format(body=body)) == []

    lists = [[a] for a in _ATOMS] + [[a, b] for a in _ATOMS for b in _ATOMS]
    for args in lists:
        full = clean(f"return F({', '.join(args)});")
        for mask in range(1, 2 ** len(args)):
            holes = [i for i in range(len(args)) if mask >> i & 1]
            given = ["_" if i in holes else a for i, a in enumerate(args)]
            held = ", ".join(args[i] for i in holes)
            partial = clean(f"let g = F({', '.join(given)}); return g({held});")
            assert partial == full, (given, held)


# ── Scoping ──────────────────────────────────────────────────────────────────


def test_nested_scopes_may_shadow_outer_bindings():
    compile_ok("""
namespace T {
    function F (x : Int) : Int {
        let y = 1;
        if (true) { let y = 2; }
        let x = x + y;
        return x;
    }
}""")


def test_same_scope_duplicate_let_is_rejected():
    assert compile_errors("""
namespace T {
    function F () : Int { let x = 1; let x = 2; return x; }
}""") == ["duplicate-binding"]


def test_repeat_body_bindings_reach_condition_and_fixup():
    compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Loop (q : Qubit) : () {
        body {
            repeat {
                H(q);
                let r = Measure([PauliZ], [q]);
            } until r == One
            fixup {
                let echo = r;
            }
        }
    }
}""")


def test_repeat_bindings_do_not_escape_the_loop():
    codes = compile_errors("""
namespace T {
    function F () : Int {
        repeat { let v = 1; } until v == 1 fixup { }
        return v;
    }
}""")
    assert "name-not-found" in codes


def test_for_variable_scoped_to_body():
    codes = compile_errors("""
namespace T {
    function F () : Int {
        for (i in 1 .. 3) { }
        return i;
    }
}""")
    assert "name-not-found" in codes


def test_allocation_binding_scoped_to_block():
    codes = compile_errors("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation O () : () {
        body {
            using (qs = Qubit[1]) { }
            X(qs[0]);
        }
    }
}""")
    assert "name-not-found" in codes


# ── Statement typing ─────────────────────────────────────────────────────────


def test_if_condition_must_be_bool():
    assert "type-mismatch" in compile_errors("""
namespace T { function F () : Int { if (1) { } return 0; } }""")


def test_for_iterable_must_be_range():
    assert "type-mismatch" in compile_errors("""
namespace T { function F (xs : Int[]) : Int { for (x in xs) { } return 0; } }""")


def test_fail_requires_string():
    assert "type-mismatch" in compile_errors("""
namespace T { function F () : Int { fail 42; } }""")


def test_fail_counts_as_returning():
    compile_ok("""
namespace T {
    function F (b : Bool) : Int {
        if (b) { return 1; }
        fail "unreachable";
    }
}""")


def test_allocation_count_must_be_int():
    assert "type-mismatch" in compile_errors("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation O () : () { body { using (qs = Qubit[true]) { } } }
}""")


def test_statement_expression_must_be_unit():
    assert "type-mismatch" in compile_errors("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation O (q : Qubit) : () { body { Measure([PauliZ], [q]); } }
}""")


def test_set_accepts_same_type_array():
    compile_ok("""
namespace T {
    function F () : Int[] {
        mutable xs = [1; 2];
        set xs = xs + [3];
        return xs;
    }
}""")


def test_return_accepts_subtype_of_output():
    compile_ok("""
namespace T {
    open Microsoft.Quantum.Canon;
    function AsArray (qs : Qubit[]) : Qubit[] {
        return BigEndian(qs);
    }
}""")


# ── Expression typing ────────────────────────────────────────────────────────


def test_equality_allowed_on_results_and_paulis():
    compile_ok("""
namespace T {
    function F (r : Result, p : Pauli) : Bool {
        return r == One && p != PauliX;
    }
}""")


def test_equality_rejected_on_qubits():
    assert "type-mismatch" in compile_errors("""
namespace T {
    operation O (a : Qubit, b : Qubit) : Bool {
        body { return a == b; }
    }
}""")


def test_arithmetic_rejects_mixed_int_double():
    assert "type-mismatch" in compile_errors("""
namespace T { function F () : Double { return 1 + 2.0; } }""")


def test_array_concat_joins_named_types_with_base():
    compile_ok("""
namespace T {
    open Microsoft.Quantum.Canon;
    function Cat (qs : Qubit[]) : Qubit[][] {
        return [BigEndian(qs)] + [qs];
    }
}""")


def test_indexing_with_range_yields_slice():
    compile_ok("""
namespace T {
    function F (xs : Int[]) : Int[] {
        return xs[0 .. 2 .. 4];
    }
}""")


def test_singleton_tuple_argument_matches_single_parameter():
    compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation O (q : Qubit) : () {
        body {
            H((q));
        }
    }
}""")


def test_udt_constructor_produces_named_type_not_base():
    codes = compile_errors("""
namespace T {
    open Microsoft.Quantum.Canon;
    operation O (qs : Qubit[]) : () {
        body {
            QFT(qs);
        }
    }
}""")
    # QFT wants a BigEndian; a bare Qubit[] must not silently downcast
    assert "type-mismatch" in codes


@pytest.mark.parametrize("name", ["Sign", "Parity"])
def test_argument_type_mismatch_code_does_not_depend_on_type_names(name):
    # "Parity" contains "arity": the code must not depend on the message text
    codes = compile_errors(f"""
newtype {name} = Bool;
function Flip (p : {name}) : Bool {{ return true; }}
function Main () : Bool {{ return Flip(3); }}""")
    assert codes == ["type-mismatch"]


def test_boolean_alias_accepted_in_signatures():
    compile_ok("""
namespace T { function F (b : Boolean) : Bool { return b; } }""")


def test_message_arguments_are_type_checked():
    assert "type-mismatch" in compile_errors("""
namespace T {
    open Microsoft.Quantum.Primitive;
    function F () : () { Message(42); }
}""")


def test_interpolated_string_embeds_any_renderable_expression():
    compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    function F (xs : Int[], r : Range) : () {
        Message($"xs: {xs} slice: {xs[r]} flag: {Length(xs) > 1}");
    }
}""")


# ── Declarations resolve in their own namespace block ────────────────────────


def test_a_newtype_base_resolves_in_its_own_block_whatever_comes_first():
    # A's base B is reached first from N1, which does not open N3.
    compile_ok("""
namespace N1 { open N2; newtype A = B; }
namespace N2 { open N3; newtype B = C; }
namespace N3 { newtype C = Int; }""")


@pytest.mark.parametrize("order", [("a.qds", "b.qds"), ("b.qds", "a.qds")])
def test_a_newtype_base_does_not_see_the_type_parameters_of_its_user(order):
    files = {
        "a.qds": "namespace N1 { open N2; function F<`T> (x : B) : Int { return 0; } }",
        "b.qds": "namespace N2 { newtype B = `T; }",
    }
    result = compile_units([(name, files[name]) for name in order])
    assert [(d.code, d.file) for d in result.errors] == [("undefined-type", "b.qds")]


@pytest.mark.parametrize("order", [("a.qds", "b.qds"), ("b.qds", "a.qds")])
def test_a_newtype_base_is_the_type_its_own_opens_name(order):
    files = {
        "a.qds": "namespace N1 { open N2; open N3; function F (x : B) : Int { return 0; } }",
        "b.qds": "namespace N2 { open N4; newtype B = C; }\n"
        "namespace N3 { newtype C = Int; }\n"
        "namespace N4 { newtype C = Double; }",
    }
    result = compile_units([(name, files[name]) for name in order])
    assert result.ok, [d.render() for d in result.diagnostics]
    assert get_symbol(result, "N2.B").base.name == "N4.C"
