"""Parser structure: precedence, spans, statement forms, error recovery.

Expected trees were derived by hand from the grammar's precedence table
(functor application binds looser than call and indexing; ranges bind
loosest; `&&`/`||` sit below comparisons, which sit below arithmetic).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdsl import diagnostics as diag
from qdsl.ast_nodes import (
    AllocateStmt,
    BinaryExpr,
    CallExpr,
    FunctorExpr,
    IfStmt,
    IndexExpr,
    InterpString,
    LetStmt,
    Name,
    RangeExpr,
    RepeatStmt,
    StringLit,
    TupleExpr,
    UnaryExpr,
    structurally_equal,
    walk,
)
from qdsl.lexer import scan_interp_string, tokenize
from qdsl.parser import parse_expression, parse_program
from qdsl.pretty import pretty_print
import parser_sweep


def expr(text):
    node, diags = parse_expression(text)
    assert diags == [], [d.render() for d in diags]
    return node


def in_body(text):
    """``text`` as the statements of an operation body."""
    return "namespace T { operation Op () : () { body { " + text + " } } }"


def stmts(text):
    [spec] = program(in_body(text)).namespaces[0].decls[0].specs
    return spec.block.stmts


def program(text):
    prog, diags = parse_program(text)
    assert diags == [], [d.render() for d in diags]
    return prog


# ── Expression precedence ────────────────────────────────────────────────────


def test_arithmetic_precedence():
    e = expr("a + b * c")
    assert isinstance(e, BinaryExpr) and e.op == "+"
    assert isinstance(e.right, BinaryExpr) and e.right.op == "*"


def test_comparison_below_arithmetic():
    e = expr("a + 1 < b * 2")
    assert isinstance(e, BinaryExpr) and e.op == "<"


def test_logical_below_comparison():
    e = expr("a < b && c == d")
    assert isinstance(e, BinaryExpr) and e.op == "&&"


def test_unary_minus_binds_tighter_than_multiplication():
    e = expr("-a * b")
    assert isinstance(e, BinaryExpr) and e.op == "*"
    assert isinstance(e.left, UnaryExpr) and e.left.op == "-"


def test_indexing_binds_tighter_than_unary():
    e = expr("-a[0]")
    assert isinstance(e, UnaryExpr)
    assert isinstance(e.operand, IndexExpr)


def test_range_binds_loosest():
    e = expr("0 .. n - 1")
    assert isinstance(e, RangeExpr)
    assert e.step is None
    assert isinstance(e.end, BinaryExpr) and e.end.op == "-"


def test_three_part_range():
    e = expr("4 .. -1 .. 1")
    assert isinstance(e, RangeExpr)
    assert e.step is not None
    assert isinstance(e.step, UnaryExpr)


def test_functor_binds_looser_than_call():
    # `Adjoint f(x)` is Adjoint applied to the *result* of f(x); the
    # invocable form is `(Adjoint f)(x)`.
    e = expr("Adjoint f(x)")
    assert isinstance(e, FunctorExpr) and e.functor == "Adjoint"
    assert isinstance(e.operand, CallExpr)

    e2 = expr("(Adjoint f)(x)")
    assert isinstance(e2, CallExpr)
    assert isinstance(e2.callee, FunctorExpr)


def test_stacked_functors():
    e = expr("(Controlled Adjoint op)(cs, q)")
    assert isinstance(e, CallExpr)
    outer = e.callee
    assert isinstance(outer, FunctorExpr) and outer.functor == "Controlled"
    inner = outer.operand
    assert isinstance(inner, FunctorExpr) and inner.functor == "Adjoint"


def test_call_chaining_and_indexing():
    e = expr("f(x)[1](y)")
    assert isinstance(e, CallExpr)
    assert isinstance(e.callee, IndexExpr)
    assert isinstance(e.callee.base, CallExpr)


def test_array_literal_uses_semicolons():
    e = expr("[1; 5; 3]")
    assert len(e.items) == 3


def test_parenthesized_single_expression_is_not_a_tuple():
    e = expr("(x)")
    assert isinstance(e, Name)


def test_unit_literal_is_empty_tuple():
    e = expr("()")
    assert isinstance(e, TupleExpr) and e.items == []


def test_interpolated_string_holds_parsed_expressions():
    e = expr('$"sum: {a + b} end"')
    inner = [n for n in walk(e) if isinstance(n, BinaryExpr)]
    assert len(inner) == 1 and inner[0].op == "+"


# ── Statements ───────────────────────────────────────────────────────────────


def test_deconstructing_let():
    [s] = stmts(
        'let (a, b, (c, d), e) = (1, One, (1..3, PauliX), ("hello", [1; 5; 3]));'
    )
    assert isinstance(s, LetStmt)
    printed = pretty_print(s)
    assert "let (a, b, (c, d), e)" in printed


def test_if_elif_else_collects_branches():
    [s] = stmts("if (a) { } elif (b) { } elif (c) { } else { }")
    assert isinstance(s, IfStmt)
    assert len(s.branches) == 3
    assert s.else_block is not None


def test_repeat_requires_fixup():
    [s] = stmts("repeat { let x = 1; } until x == 1 fixup { }")
    assert isinstance(s, RepeatStmt)
    _, diags = parse_program(in_body("repeat { } until true"))
    assert any(d.code == diag.UNEXPECTED_TOKEN for d in diags)


def test_until_condition_accepts_parentheses():
    [s] = stmts("repeat { } until (1 == 1) fixup { }")
    assert isinstance(s, RepeatStmt)


def test_using_forms():
    [single, register] = stmts(
        "using (q = Qubit()) { } using (qs = Qubit[n]) { }"
    )
    assert isinstance(single, AllocateStmt) and single.count is None
    assert isinstance(register, AllocateStmt) and register.count is not None
    assert not single.borrowing


def test_borrowing_flag():
    [s] = stmts("borrowing (qs = Qubit[2]) { }")
    assert isinstance(s, AllocateStmt) and s.borrowing


# ── Declarations ─────────────────────────────────────────────────────────────


def test_function_body_has_no_body_keyword():
    prog = program("namespace N { function F (x : Int) : Int { return x; } }")
    decl = prog.namespaces[0].decls[0]
    assert not decl.is_operation
    _, diags = parse_program(
        "namespace N { function F () : Int { body { return 1; } } }"
    )
    assert diags


def test_operation_requires_specialization_blocks():
    _, diags = parse_program(
        "namespace N { operation O (q : Qubit) : () { let x = 1; } }"
    )
    assert any(d.code == diag.UNEXPECTED_TOKEN for d in diags)


def test_dotted_namespace_and_open():
    prog = program(
        "namespace A.B.C { open D.E; function F () : Int { return 1; } }"
    )
    ns = prog.namespaces[0]
    assert ns.name == "A.B.C"
    assert ns.opens[0].name == "D.E"


def test_generic_parameter_list():
    prog = program(
        "namespace N { function F<`T, `U> (x : `T, y : `U) : `T { return x; } }"
    )
    decl = prog.namespaces[0].decls[0]
    assert decl.type_params == ["`T", "`U"]


def test_bare_declarations_go_into_snippet_namespace():
    prog = program("operation O (q : Qubit) : () { body { } }")
    assert len(prog.namespaces) == 1
    assert prog.namespaces[0].implicit


def test_top_level_statement_rejected():
    _, diags = parse_program("let x = 1;")
    assert [d.code for d in diags] == [diag.STRAY_STATEMENT]


def test_error_recovery_continues_to_later_declarations():
    text = """
namespace N {
    function Broken ( : Int { return 1; }
    function Fine () : Int { return 2; }
}
"""
    prog, diags = parse_program(text)
    assert diags
    names = [d.name for d in prog.namespaces[0].decls]
    assert "Fine" in names


# ── Spans ────────────────────────────────────────────────────────────────────


def test_every_span_is_well_formed_and_in_bounds():
    path = __file__.replace("test_parser.py", "corpus/accept/functors_everywhere.qds")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    prog = program(text)
    for node in walk(prog):
        span = node.span
        assert 0 <= span.start <= span.end <= len(text)


def test_statement_spans_ascend_within_a_block():
    body = stmts("let a = 1; let b = 2; let c = 3;")
    starts = [s.span.start for s in body]
    assert starts == sorted(starts)


def test_interpolation_hole_diagnostics_carry_file_spans():
    text = 'namespace N { function F () : () { Message($"a {x # y} b {"z}"); } }'
    _, diags = parse_program(text)
    assert [(d.code, text[d.span.start : d.span.end]) for d in diags] == [
        (diag.ILLEGAL_CHARACTER, "#"),
        (diag.UNEXPECTED_TOKEN, "y"),
        (diag.UNTERMINATED_STRING, '"z'),
    ]


def test_parser_cuts_an_interpolation_hole_where_the_lexer_closes_it():
    # The backslash escapes the `}` after it, so the hole ends at the next one.
    text = r'namespace N { function F () : () { Message($"<{ "\}" }>"); } }'
    [tok] = [t for t in tokenize(text)[0] if t.lexeme.startswith('$"')]
    end, closed, [(open_, close)] = scan_interp_string(tok.lexeme, 2)
    assert closed and end == len(tok.lexeme)
    assert tok.lexeme[open_:close + 1] == r'{ "\}" }'
    prog, diags = parse_program(text)
    assert diags == [], [d.render() for d in diags]
    [interp] = [n for n in walk(prog) if isinstance(n, InterpString)]
    before, hole, after = interp.parts
    assert (before, after) == ("<", ">")
    assert isinstance(hole, StringLit) and hole.value == "}"
    assert text[hole.span.start : hole.span.end] == r'"\}"'
    # A bare backslash in a hole is an illegal character, and the `}` it
    # escapes is a token of the hole, which ends at the last `}`.
    text = r'namespace N { function F () : () { Message($"{ \} }"); } }'
    _, diags = parse_program(text)
    assert [(d.code, d.message, text[d.span.start : d.span.end]) for d in diags] == [
        (diag.ILLEGAL_CHARACTER, "illegal character '\\\\'", "\\"),
        (diag.UNEXPECTED_TOKEN, "expected an expression, found '}'", "}"),
    ]


def test_name_spans_slice_to_their_text():
    text = "namespace N { function Foo (bar : Int) : Int { return bar; } }"
    prog = program(text)
    for node in walk(prog):
        if isinstance(node, Name):
            assert text[node.span.start : node.span.end] == node.name


# ── Round-trip property ──────────────────────────────────────────────────────

EXPRESSION_ATOMS = ["a", "b", "1", "2.5", "true", "Zero", "[1; 2]", "(x, y)"]
BINARY_OPS = ["+", "-", "*", "/", "%", "==", "!=", "<", "&&", "||", "^", "&"]


@given(
    st.recursive(
        st.sampled_from(EXPRESSION_ATOMS),
        lambda inner: st.builds(
            lambda l, op, r: f"({l} {op} {r})",
            inner,
            st.sampled_from(BINARY_OPS),
            inner,
        ),
        max_leaves=8,
    )
)
def test_expression_round_trip(text):
    node = expr(text)
    printed = pretty_print(node)
    reparsed = expr(printed)
    assert structurally_equal(node, reparsed), printed


# ── Specializations ──────────────────────────────────────────────────────────


@pytest.mark.parametrize(
    "spec, expected",
    [
        (
            "controlled self",
            ("a controlled specialization cannot be 'self'", "self"),
        ),
        (
            "controlled { X(q); }",
            (
                "expected 'auto', 'self', or a specialization body after 'controlled'",
                "{",
            ),
        ),
        (
            "adjoint (c) { X(q); }",
            (
                "expected 'auto', 'self', or a specialization body after 'adjoint'",
                "(",
            ),
        ),
    ],
)
def test_malformed_specialization_is_reported_at_its_token(spec, expected):
    text = (
        "namespace N { operation O (q : Qubit) : () { body { X(q); } "
        + spec
        + " } }"
    )
    _, diags = parse_program(text)
    message, at = expected
    first = diags[0]  # recovery may report more after it
    assert (first.code, first.message, text[first.span.start : first.span.end]) == (
        diag.MISSING_SPECIALIZATION_BODY,
        message,
        at,
    )


# ── Token-mutation sample ────────────────────────────────────────────────────


def test_token_mutation_sample_terminates_cleanly():
    # A sample of `tests/parser_sweep.py`, each parse under a 1 s timer: every
    # input that adds a `namespace` keyword or mutates the file with two
    # namespaces (the declaration loop used to hang on those), and every 10th
    # of the rest.
    found = [
        problem
        for i, (label, text) in enumerate(parser_sweep.inputs())
        if "'namespace'" in label or "ambiguous_name" in label or i % 10 == 0
        for problem in parser_sweep.problems(label, text)
    ]
    assert found == []
