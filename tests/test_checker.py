"""Type and effect checking, rule by rule.

The reject corpus locks one program per error code; these tests pin the
finer behaviors around each rule: where a construct is still legal, what
type an expression is given, and how scopes interact.
"""

import pytest

from qdsl import types as ty
from qdsl.ast_nodes import FunctorExpr, walk
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
