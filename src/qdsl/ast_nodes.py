"""AST node definitions.

Every node carries a span. Expression nodes also carry ``ty``, filled in by
the checker, a ``Name`` its ``binding`` and a ``CallExpr`` its
``is_partial``. Nodes are ``Slotted`` classes that compare by identity: a
constructor takes ``span`` and the other slots by the rule in
``qdsl.slots``, except the checker's annotations, which a new node holds at
``Node._initial``'s values. ``structurally_equal`` compares trees ignoring
every span and those annotations, which is what the parse/pretty-print
round-trip tests compare. Each class's ``_fields`` names, in declaration
order, the fields ``walk`` visits and ``structurally_equal`` compares.
"""

from __future__ import annotations

from enum import Enum
from typing import Any

from .slots import Slotted, all_slots


class Node(Slotted):
    __slots__ = ("span",)
    __init__ = object.__init__  # only the classes that add a slot take a span
    # The checker's annotations, and the value each holds on a new node.
    _initial = {"ty": "None", "binding": "None", "is_partial": "False"}
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if cls.__dict__.get("__slots__"):
            cls._fields = tuple(n for n in all_slots(cls) if n not in _NOT_COMPARED)


# Fields that hold a span or a checker annotation, not a part of the tree.
_NOT_COMPARED = frozenset({"span", "name_span", "var_span", *Node._initial})


# ── Type syntax ──────────────────────────────────────────────────────────────


class TypeNode(Node):
    __slots__ = ()


class NamedTypeNode(TypeNode):
    """A primitive or user-defined type name, possibly dotted."""

    __slots__ = ("name",)


class TypeParamNode(TypeNode):
    __slots__ = ("name",)  # includes the leading backtick


class TupleTypeNode(TypeNode):
    __slots__ = ("items",)


class ArrayTypeNode(TypeNode):
    __slots__ = ("element",)


class CallableTypeNode(TypeNode):
    # functors: a list of "Adjoint" / "Controlled"
    __slots__ = ("is_operation", "input", "output", "functors")


# ── Expressions ──────────────────────────────────────────────────────────────


class Expr(Node):
    __slots__ = ("ty",)


class IntLit(Expr):
    __slots__ = ("value",)


class DoubleLit(Expr):
    __slots__ = ("value",)


class BoolLit(Expr):
    __slots__ = ("value",)


class StringLit(Expr):
    __slots__ = ("value",)


class InterpString(Expr):
    """Alternating literal text and embedded expressions."""

    __slots__ = ("parts",)


class PauliLit(Expr):
    __slots__ = ("kind",)  # a values.Pauli


class ResultLit(Expr):
    __slots__ = ("one",)  # False = Zero, True = One


class Name(Expr):
    """A possibly-dotted reference; resolution happens in the checker."""

    __slots__ = ("name", "binding")


class Hole(Expr):
    """The `_` placeholder inside a partial application."""

    __slots__ = ()


class TupleExpr(Expr):
    __slots__ = ("items",)  # never exactly one item


class ArrayExpr(Expr):
    __slots__ = ("items",)


class RangeExpr(Expr):
    __slots__ = ("start", "step", "end")  # step None means implicit step 1


class IndexExpr(Expr):
    __slots__ = ("base", "index")


class CallExpr(Expr):
    __slots__ = ("callee", "args", "is_partial")  # is_partial: set by the checker


class FunctorExpr(Expr):
    __slots__ = ("functor", "operand")  # functor: "Adjoint" | "Controlled"


class UnaryExpr(Expr):
    __slots__ = ("op", "operand")


class BinaryExpr(Expr):
    __slots__ = ("op", "left", "right")


# ── Patterns ─────────────────────────────────────────────────────────────────


class Pattern(Node):
    __slots__ = ()


class NamePattern(Pattern):
    __slots__ = ("name",)


class TuplePattern(Pattern):
    __slots__ = ("items",)


# ── Statements ───────────────────────────────────────────────────────────────


class Stmt(Node):
    __slots__ = ()


class Block(Node):
    __slots__ = ("stmts",)


class LetStmt(Stmt):
    __slots__ = ("pattern", "value")


class MutableStmt(Stmt):
    __slots__ = ("name", "value")


class SetStmt(Stmt):
    __slots__ = ("name", "value")


class IfStmt(Stmt):
    __slots__ = ("branches", "else_block")  # branches: if + elifs, in order


class ForStmt(Stmt):
    __slots__ = ("var", "var_span", "iterable", "body")


class RepeatStmt(Stmt):
    __slots__ = ("body", "condition", "fixup")


class ReturnStmt(Stmt):
    __slots__ = ("value",)


class FailStmt(Stmt):
    __slots__ = ("message",)


class AllocateStmt(Stmt):
    """``using`` / ``borrowing`` blocks; ``count`` is None for the
    single-qubit form Qubit()."""

    __slots__ = ("name", "name_span", "count", "body", "borrowing")
    _defaults = {"borrowing": False}


class ExprStmt(Stmt):
    __slots__ = ("expr",)


# ── Declarations ─────────────────────────────────────────────────────────────


class ParamLeaf(Node):
    __slots__ = ("name", "type")


class ParamTuple(Node):
    __slots__ = ("items",)


class SpecKind(Enum):
    BODY = "body"
    ADJOINT = "adjoint"
    CONTROLLED = "controlled"
    CONTROLLED_ADJOINT = "controlled adjoint"

    @property
    def adjoint(self) -> bool:
        return self.value.endswith("adjoint")

    @property
    def controlled(self) -> bool:
        return self.value.startswith("controlled")


class SpecImpl(Enum):
    PROVIDED = "provided"
    SELF = "self"
    AUTO = "auto"


class SpecDecl(Node):
    """``block`` is the body of a PROVIDED one; ``ctl_param`` names the
    control register of a provided controlled variant."""

    __slots__ = ("kind", "impl", "block", "ctl_param")
    _defaults = {"impl": SpecImpl.PROVIDED, "block": None, "ctl_param": None}


class CallableDecl(Node):
    """``specs`` of a function is a single synthesized BODY spec."""

    __slots__ = ("is_operation", "name", "name_span", "type_params", "params", "output", "specs")


class NewtypeDecl(Node):
    __slots__ = ("name", "name_span", "base")


class OpenDirective(Node):
    __slots__ = ("name",)


class Namespace(Node):
    """``implicit`` when it wraps bare top-level declarations."""

    __slots__ = ("name", "opens", "decls", "implicit")
    _defaults = {"implicit": False}


class Program(Node):
    __slots__ = ("namespaces",)


# ── Structural helpers ───────────────────────────────────────────────────────


def walk(node: Any):
    """Yield every Node reachable from ``node``, including itself."""
    if isinstance(node, Node):
        yield node
        for name in node._fields:
            yield from walk(getattr(node, name))
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from walk(item)


def structurally_equal(a: Any, b: Any) -> bool:
    """Compare trees ignoring spans and checker annotations."""
    if isinstance(a, Node) or isinstance(b, Node):
        if type(a) is not type(b):
            return False
        for name in a._fields:
            if not structurally_equal(getattr(a, name), getattr(b, name)):
                return False
        return True
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            structurally_equal(x, y) for x, y in zip(a, b)
        )
    return a == b
