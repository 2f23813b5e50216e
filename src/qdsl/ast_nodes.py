"""AST node definitions.

Every node carries a span. Expression nodes also carry ``ty``, filled in by
the checker, and a ``Name`` its ``binding``. Nodes are plain classes with
``__slots__`` that compare by identity. ``structurally_equal`` compares trees
ignoring every span and those annotations, which is what the
parse/pretty-print round-trip tests compare. Each class's ``_fields`` names,
in declaration order, the fields ``walk`` visits and ``structurally_equal``
compares.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Optional, Union

from .source import Span
from .values import Pauli

# Fields that hold a span or a checker annotation, not a part of the tree.
_NOT_COMPARED = frozenset({"span", "name_span", "var_span", "ty", "binding", "is_partial"})


class Node:
    __slots__ = ("span",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(n for n in own if n not in _NOT_COMPARED)


# ── Type syntax ──────────────────────────────────────────────────────────────


class TypeNode(Node):
    __slots__ = ()


class NamedTypeNode(TypeNode):
    """A primitive or user-defined type name, possibly dotted."""

    __slots__ = ("name",)

    def __init__(self, span: Span, name: str) -> None:
        self.span, self.name = span, name


class TypeParamNode(TypeNode):
    __slots__ = ("name",)  # includes the leading backtick

    def __init__(self, span: Span, name: str) -> None:
        self.span, self.name = span, name


class TupleTypeNode(TypeNode):
    __slots__ = ("items",)

    def __init__(self, span: Span, items: list[TypeNode]) -> None:
        self.span, self.items = span, items


class ArrayTypeNode(TypeNode):
    __slots__ = ("element",)

    def __init__(self, span: Span, element: TypeNode) -> None:
        self.span, self.element = span, element


class CallableTypeNode(TypeNode):
    __slots__ = ("is_operation", "input", "output", "functors")

    def __init__(
        self,
        span: Span,
        is_operation: bool,
        input: TypeNode,
        output: TypeNode,
        functors: list[str],  # "Adjoint" / "Controlled"
    ) -> None:
        self.span, self.is_operation, self.input = span, is_operation, input
        self.output, self.functors = output, functors


# ── Expressions ──────────────────────────────────────────────────────────────


class Expr(Node):
    __slots__ = ("ty",)

    def __init__(self, span: Span) -> None:
        self.span, self.ty = span, None


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, span: Span, value: int) -> None:
        self.span, self.ty, self.value = span, None, value


class DoubleLit(Expr):
    __slots__ = ("value",)

    def __init__(self, span: Span, value: float) -> None:
        self.span, self.ty, self.value = span, None, value


class BoolLit(Expr):
    __slots__ = ("value",)

    def __init__(self, span: Span, value: bool) -> None:
        self.span, self.ty, self.value = span, None, value


class StringLit(Expr):
    __slots__ = ("value",)

    def __init__(self, span: Span, value: str) -> None:
        self.span, self.ty, self.value = span, None, value


class InterpString(Expr):
    """Alternating literal text and embedded expressions."""

    __slots__ = ("parts",)

    def __init__(self, span: Span, parts: list[Union[str, Expr]]) -> None:
        self.span, self.ty, self.parts = span, None, parts


class PauliLit(Expr):
    __slots__ = ("kind",)

    def __init__(self, span: Span, kind: Pauli) -> None:
        self.span, self.ty, self.kind = span, None, kind


class ResultLit(Expr):
    __slots__ = ("one",)  # False = Zero, True = One

    def __init__(self, span: Span, one: bool) -> None:
        self.span, self.ty, self.one = span, None, one


class Name(Expr):
    """A possibly-dotted reference; resolution happens in the checker."""

    __slots__ = ("name", "binding")

    def __init__(self, span: Span, name: str) -> None:
        self.span, self.ty, self.name, self.binding = span, None, name, None


class Hole(Expr):
    """The `_` placeholder inside a partial application."""

    __slots__ = ()


class TupleExpr(Expr):
    __slots__ = ("items",)  # never exactly one item

    def __init__(self, span: Span, items: list[Expr]) -> None:
        self.span, self.ty, self.items = span, None, items


class ArrayExpr(Expr):
    __slots__ = ("items",)

    def __init__(self, span: Span, items: list[Expr]) -> None:
        self.span, self.ty, self.items = span, None, items


class RangeExpr(Expr):
    __slots__ = ("start", "step", "end")  # step None means implicit step 1

    def __init__(self, span: Span, start: Expr, step: Optional[Expr], end: Expr) -> None:
        self.span, self.ty = span, None
        self.start, self.step, self.end = start, step, end


class IndexExpr(Expr):
    __slots__ = ("base", "index")

    def __init__(self, span: Span, base: Expr, index: Expr) -> None:
        self.span, self.ty, self.base, self.index = span, None, base, index


class CallExpr(Expr):
    __slots__ = ("callee", "args", "is_partial")  # is_partial: set by the checker

    def __init__(self, span: Span, callee: Expr, args: list[Expr]) -> None:
        self.span, self.ty, self.callee, self.args = span, None, callee, args
        self.is_partial = False


class FunctorExpr(Expr):
    __slots__ = ("functor", "operand")  # functor: "Adjoint" | "Controlled"

    def __init__(self, span: Span, functor: str, operand: Expr) -> None:
        self.span, self.ty, self.functor, self.operand = span, None, functor, operand


class UnaryExpr(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, span: Span, op: str, operand: Expr) -> None:
        self.span, self.ty, self.op, self.operand = span, None, op, operand


class BinaryExpr(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, span: Span, op: str, left: Expr, right: Expr) -> None:
        self.span, self.ty = span, None
        self.op, self.left, self.right = op, left, right


# ── Patterns ─────────────────────────────────────────────────────────────────


class Pattern(Node):
    __slots__ = ()


class NamePattern(Pattern):
    __slots__ = ("name",)

    def __init__(self, span: Span, name: str) -> None:
        self.span, self.name = span, name


class TuplePattern(Pattern):
    __slots__ = ("items",)

    def __init__(self, span: Span, items: list[Pattern]) -> None:
        self.span, self.items = span, items


# ── Statements ───────────────────────────────────────────────────────────────


class Stmt(Node):
    __slots__ = ()


class Block(Node):
    __slots__ = ("stmts",)

    def __init__(self, span: Span, stmts: list[Stmt]) -> None:
        self.span, self.stmts = span, stmts


class LetStmt(Stmt):
    __slots__ = ("pattern", "value")

    def __init__(self, span: Span, pattern: Pattern, value: Expr) -> None:
        self.span, self.pattern, self.value = span, pattern, value


class MutableStmt(Stmt):
    __slots__ = ("name", "value")

    def __init__(self, span: Span, name: str, value: Expr) -> None:
        self.span, self.name, self.value = span, name, value


class SetStmt(Stmt):
    __slots__ = ("name", "value")

    def __init__(self, span: Span, name: str, value: Expr) -> None:
        self.span, self.name, self.value = span, name, value


class IfStmt(Stmt):
    __slots__ = ("branches", "else_block")  # branches: if + elifs, in order

    def __init__(
        self, span: Span, branches: list[tuple[Expr, Block]], else_block: Optional[Block]
    ) -> None:
        self.span, self.branches, self.else_block = span, branches, else_block


class ForStmt(Stmt):
    __slots__ = ("var", "var_span", "iterable", "body")

    def __init__(self, span: Span, var: str, var_span: Span, iterable: Expr, body: Block) -> None:
        self.span, self.var, self.var_span = span, var, var_span
        self.iterable, self.body = iterable, body


class RepeatStmt(Stmt):
    __slots__ = ("body", "condition", "fixup")

    def __init__(self, span: Span, body: Block, condition: Expr, fixup: Block) -> None:
        self.span, self.body = span, body
        self.condition, self.fixup = condition, fixup


class ReturnStmt(Stmt):
    __slots__ = ("value",)

    def __init__(self, span: Span, value: Expr) -> None:
        self.span, self.value = span, value


class FailStmt(Stmt):
    __slots__ = ("message",)

    def __init__(self, span: Span, message: Expr) -> None:
        self.span, self.message = span, message


class AllocateStmt(Stmt):
    """``using`` / ``borrowing`` blocks; ``count`` is None for the
    single-qubit form Qubit()."""

    __slots__ = ("name", "name_span", "count", "body", "borrowing")

    def __init__(
        self,
        span: Span,
        name: str,
        name_span: Span,
        count: Optional[Expr],
        body: Block,
        borrowing: bool = False,
    ) -> None:
        self.span, self.name, self.name_span = span, name, name_span
        self.count, self.body, self.borrowing = count, body, borrowing


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, span: Span, expr: Expr) -> None:
        self.span, self.expr = span, expr


# ── Declarations ─────────────────────────────────────────────────────────────


class ParamLeaf(Node):
    __slots__ = ("name", "type")

    def __init__(self, span: Span, name: str, type: TypeNode) -> None:
        self.span, self.name, self.type = span, name, type


class ParamTuple(Node):
    __slots__ = ("items",)

    def __init__(self, span: Span, items: list[Union[ParamLeaf, ParamTuple]]) -> None:
        self.span, self.items = span, items


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

    def __init__(
        self,
        span: Span,
        kind: SpecKind,
        impl: SpecImpl = SpecImpl.PROVIDED,
        block: Optional[Block] = None,
        ctl_param: Optional[str] = None,
    ) -> None:
        self.span, self.kind, self.impl = span, kind, impl
        self.block, self.ctl_param = block, ctl_param


class CallableDecl(Node):
    """``specs`` of a function is a single synthesized BODY spec."""

    __slots__ = ("is_operation", "name", "name_span", "type_params", "params", "output", "specs")

    def __init__(
        self,
        span: Span,
        is_operation: bool,
        name: str,
        name_span: Span,
        type_params: list[str],
        params: ParamTuple,
        output: TypeNode,
        specs: list[SpecDecl],
    ) -> None:
        self.span, self.is_operation, self.name = span, is_operation, name
        self.name_span, self.type_params, self.params = name_span, type_params, params
        self.output, self.specs = output, specs


class NewtypeDecl(Node):
    __slots__ = ("name", "name_span", "base")

    def __init__(self, span: Span, name: str, name_span: Span, base: TypeNode) -> None:
        self.span, self.name, self.name_span, self.base = span, name, name_span, base


class OpenDirective(Node):
    __slots__ = ("name",)

    def __init__(self, span: Span, name: str) -> None:
        self.span, self.name = span, name


class Namespace(Node):
    """``implicit`` when it wraps bare top-level declarations."""

    __slots__ = ("name", "opens", "decls", "implicit")

    def __init__(
        self,
        span: Span,
        name: str,
        opens: list[OpenDirective],
        decls: list[Union[CallableDecl, NewtypeDecl]],
        implicit: bool = False,
    ) -> None:
        self.span, self.name, self.opens = span, name, opens
        self.decls, self.implicit = decls, implicit


class Program(Node):
    __slots__ = ("namespaces",)

    def __init__(self, span: Span, namespaces: list[Namespace]) -> None:
        self.span, self.namespaces = span, namespaces


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
