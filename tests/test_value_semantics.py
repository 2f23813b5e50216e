"""The equality, hashing and construction that callers rely on in the
front end's objects and the public run options.

The checker compares types by value and hashes them; tests and tools
compare spans, tokens and diagnostics by value; the parse/pretty-print
round trip compares trees with ``structurally_equal``; the parser, the
specialization generator and tools build syntax-tree nodes by position and
by keyword; and ``RunOptions`` is part of the public API.
"""

import inspect

import pytest

from qdsl import ast_nodes
from qdsl import types as ty
from qdsl.ast_nodes import CallExpr, ForStmt, Name, Node, SpecImpl, structurally_equal, walk
from qdsl.diagnostics import Diagnostic, Severity, error
from qdsl.parser import parse_program
from qdsl.runtime import RunOptions, RunStats
from qdsl.simulator import DEFAULT_CAPACITY
from qdsl.source import Span
from qdsl.tokens import Token, TokenKind


def test_spans_are_equal_and_hashed_by_their_offsets():
    span = Span(1, 4)
    same = Span(1, 4)
    assert span is not same and span == same and hash(span) == hash(same)
    assert {span: "key"}[same] == "key"
    assert span != Span(1, 5) and span != Span(0, 4) and span != (1, 4)
    assert span.union(Span(6, 9)) == Span(1, 9)


def test_tokens_are_equal_and_hashed_by_kind_lexeme_and_span():
    token = Token(TokenKind.IDENT, "q", Span(3, 4))
    same = Token(TokenKind.IDENT, "q", Span(3, 4))
    assert token is not same and token == same and hash(token) == hash(same)
    assert {token: "key"}[same] == "key"
    for other in (
        Token(TokenKind.KEYWORD, "q", Span(3, 4)),
        Token(TokenKind.IDENT, "r", Span(3, 4)),
        Token(TokenKind.IDENT, "q", Span(3, 5)),
    ):
        assert token != other


def test_a_token_repr_is_compact():
    assert repr(Token(TokenKind.SYMBOL, "=>", Span(17, 19))) == "SYMBOL('=>'@17)"


def test_a_named_type_is_equal_and_hashed_by_its_name_alone():
    big = ty.Udt("NS.Register", ty.Array(ty.QUBIT))
    same_name = ty.Udt("NS.Register", ty.INT)
    assert big == same_name and hash(big) == hash(same_name)
    assert {big: "key"}[same_name] == "key"
    assert big != ty.Udt("NS.Other", ty.Array(ty.QUBIT))
    assert big != ty.Array(ty.QUBIT)


def test_a_type_parameter_is_equal_by_name_and_uid():
    assert ty.Param("`T", 3) == ty.Param("`T", 3)
    assert hash(ty.Param("`T", 3)) == hash(ty.Param("`T", 3))
    assert ty.Param("`T") == ty.Param("`T", None)
    assert ty.Param("`T", 3) != ty.Param("`T", 4)
    assert ty.Param("`T", 3) != ty.Param("`U", 3)
    assert ty.Param("`T") != ty.Param("`T", 1)


def test_types_are_equal_and_hashed_by_structure():
    def op(variants):
        return ty.Callable(True, ty.tuple_of([ty.QUBIT, ty.INT]), ty.UNIT, variants)

    assert op(frozenset({ty.ADJOINT})) == op(frozenset({ty.ADJOINT}))
    assert {op(frozenset()): "key"}[op(frozenset())] == "key"
    assert op(frozenset()) != op(frozenset({ty.ADJOINT}))
    assert ty.Array(ty.INT) == ty.Array(ty.INT) != ty.Array(ty.DOUBLE)
    assert ty.Prim("Int") == ty.INT and ty.Prim("Int") != ty.Udt("Int", ty.INT)
    assert ty.Tuple((ty.INT, ty.BOOL)) != ty.Tuple((ty.BOOL, ty.INT))


def test_diagnostics_are_equal_by_every_field():
    span = Span(2, 5)
    made = error("type-mismatch", "bad", span, "a.qds")
    assert made == Diagnostic(Severity.ERROR, "type-mismatch", "bad", Span(2, 5), "a.qds")
    assert made != error("type-mismatch", "bad", span, "b.qds")
    assert made != error("type-mismatch", "worse", span, "a.qds")
    assert made != error("not-callable", "bad", span, "a.qds")
    assert made != error("type-mismatch", "bad", Span(2, 6), "a.qds")
    assert made != Diagnostic(Severity.WARNING, "type-mismatch", "bad", span, "a.qds")
    assert Diagnostic(Severity.NOTE, "x-y", "m", span).file == "<input>"


SOURCE = """
namespace N {
    operation Op (q : Qubit) : Unit {
        body {
            for (i in 0 .. 2) { H(q); }
            using (r = Qubit[2]) { H(r[0]); }
        }
    }
}
"""


def parse(text):
    program, diags = parse_program(text)
    assert diags == []
    return program


def nodes(program, kind):
    return [node for node in walk(program) if isinstance(node, kind)]


def test_structural_equality_ignores_spans_and_annotations():
    shifted = parse("\n\n  " + SOURCE.replace("(i in", "(i  in").replace("r = ", "r  =  "))
    program = parse(SOURCE)
    assert structurally_equal(program, shifted)
    for node in nodes(shifted, Name):
        node.ty, node.binding = ty.INT, ("local", 0)
    for node in nodes(shifted, CallExpr):
        node.is_partial = True
    [loop] = nodes(shifted, ForStmt)
    loop.var_span = Span(0, 0)
    assert structurally_equal(program, shifted)


def test_structural_equality_sees_a_changed_name():
    program = parse(SOURCE)
    for old, new in (("(i in", "(j in"), ("H(q)", "X(q)"), ("r = ", "s = "), ("Op", "Oq")):
        assert not structurally_equal(program, parse(SOURCE.replace(old, new, 1))), new


# Each node class's constructor parameters, in order; a pair is a parameter
# and its default. The three category bases that add no slot to `span` are
# never built, and take no argument.
CONSTRUCTORS = {
    "AllocateStmt": ("span", "name", "name_span", "count", "body", ("borrowing", False)),
    "ArrayExpr": ("span", "items"),
    "ArrayTypeNode": ("span", "element"),
    "BinaryExpr": ("span", "op", "left", "right"),
    "Block": ("span", "stmts"),
    "BoolLit": ("span", "value"),
    "CallExpr": ("span", "callee", "args"),
    "CallableDecl": (
        "span", "is_operation", "name", "name_span", "type_params", "params", "output", "specs"
    ),
    "CallableTypeNode": ("span", "is_operation", "input", "output", "functors"),
    "DoubleLit": ("span", "value"),
    "Expr": ("span",),
    "ExprStmt": ("span", "expr"),
    "FailStmt": ("span", "message"),
    "ForStmt": ("span", "var", "var_span", "iterable", "body"),
    "FunctorExpr": ("span", "functor", "operand"),
    "Hole": ("span",),
    "IfStmt": ("span", "branches", "else_block"),
    "IndexExpr": ("span", "base", "index"),
    "IntLit": ("span", "value"),
    "InterpString": ("span", "parts"),
    "LetStmt": ("span", "pattern", "value"),
    "MutableStmt": ("span", "name", "value"),
    "Name": ("span", "name"),
    "NamePattern": ("span", "name"),
    "NamedTypeNode": ("span", "name"),
    "Namespace": ("span", "name", "opens", "decls", ("implicit", False)),
    "NewtypeDecl": ("span", "name", "name_span", "base"),
    "OpenDirective": ("span", "name"),
    "ParamLeaf": ("span", "name", "type"),
    "ParamTuple": ("span", "items"),
    "Pattern": (),
    "PauliLit": ("span", "kind"),
    "Program": ("span", "namespaces"),
    "RangeExpr": ("span", "start", "step", "end"),
    "RepeatStmt": ("span", "body", "condition", "fixup"),
    "ResultLit": ("span", "one"),
    "ReturnStmt": ("span", "value"),
    "SetStmt": ("span", "name", "value"),
    "SpecDecl": ("span", "kind", ("impl", SpecImpl.PROVIDED), ("block", None), ("ctl_param", None)),
    "Stmt": (),
    "StringLit": ("span", "value"),
    "TupleExpr": ("span", "items"),
    "TuplePattern": ("span", "items"),
    "TupleTypeNode": ("span", "items"),
    "TypeNode": (),
    "TypeParamNode": ("span", "name"),
    "UnaryExpr": ("span", "op", "operand"),
}

# The slots the checker fills in, and the value each holds on a fresh node.
ANNOTATIONS = {"ty": None, "binding": None, "is_partial": False}

NODE_CLASSES = sorted(
    (
        value
        for value in vars(ast_nodes).values()
        if isinstance(value, type) and issubclass(value, Node) and value is not Node
    ),
    key=lambda cls: cls.__name__,
)


def parameters(cls):
    return inspect.signature(cls).parameters.values()


def all_slots(cls):
    return [name for base in reversed(cls.__mro__) for name in base.__dict__.get("__slots__", ())]


def test_node_constructors_keep_their_parameters_and_defaults():
    found = {
        cls.__name__: tuple(
            param.name if param.default is param.empty else (param.name, param.default)
            for param in parameters(cls)
        )
        for cls in NODE_CLASSES
    }
    assert found == CONSTRUCTORS


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_a_node_constructor_takes_its_span_and_slots_in_slot_order(cls):
    """So reordering `__slots__` reorders the parameters, and the table above
    catches it before a positional call such as
    `ForStmt(span, var, var_span, iterable, body)` swaps two fields."""
    slots = all_slots(cls)
    expected = [name for name in slots if name not in ANNOTATIONS] if slots != ["span"] else []
    assert [param.name for param in parameters(cls)] == expected


@pytest.mark.parametrize(
    "cls", [cls for cls in NODE_CLASSES if CONSTRUCTORS[cls.__name__]], ids=lambda cls: cls.__name__
)
def test_a_fresh_node_has_no_annotations_and_no_constructor_takes_them(cls):
    args = [object() for _ in parameters(cls)]
    node = cls(*args)
    assert [getattr(node, param.name) for param in parameters(cls)] == args
    for name, value in ANNOTATIONS.items():
        if name in all_slots(cls):
            assert getattr(node, name) is value
        with pytest.raises(TypeError):
            cls(*args, **{name: value})


def test_run_options_keep_their_keyword_constructor_and_defaults():
    options = RunOptions()
    assert (
        options.strict_release,
        options.elide_diagnostics,
        options.max_qubits,
        options.max_iterations,
        options.recursion_limit,
        options.dump_state,
    ) == (True, False, DEFAULT_CAPACITY, 1_000_000, 1000, False)
    options = RunOptions(
        strict_release=False,
        elide_diagnostics=True,
        max_qubits=3,
        max_iterations=7,
        recursion_limit=9,
        dump_state=True,
    )
    assert (
        options.strict_release,
        options.elide_diagnostics,
        options.max_qubits,
        options.max_iterations,
        options.recursion_limit,
        options.dump_state,
    ) == (False, True, 3, 7, 9, True)


def test_run_stats_are_equal_by_their_counts():
    # The cached-shot tests compare each shot's stats with the reference's.
    stats = RunStats()
    assert stats == RunStats()
    stats.gates += 1
    assert stats != RunStats()
