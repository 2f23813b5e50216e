"""AST node definitions.

Every node carries a span. Expression nodes additionally carry a ``ty`` slot
filled in by the checker; it is excluded from structural equality, which is
what the parse/pretty-print round-trip tests compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional, Union

from .source import Span
from .values import Pauli


@dataclass
class Node:
    span: Span


# ── Type syntax ──────────────────────────────────────────────────────────────


@dataclass
class TypeNode(Node):
    pass


@dataclass
class NamedTypeNode(TypeNode):
    """A primitive or user-defined type name, possibly dotted."""

    name: str


@dataclass
class TypeParamNode(TypeNode):
    name: str  # includes the leading backtick


@dataclass
class TupleTypeNode(TypeNode):
    items: list[TypeNode]


@dataclass
class ArrayTypeNode(TypeNode):
    element: TypeNode


@dataclass
class CallableTypeNode(TypeNode):
    is_operation: bool
    input: TypeNode
    output: TypeNode
    functors: list[str] = field(default_factory=list)  # "Adjoint" / "Controlled"


# ── Expressions ──────────────────────────────────────────────────────────────


@dataclass
class Expr(Node):
    ty: Any = field(default=None, compare=False, repr=False)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class DoubleLit(Expr):
    value: float = 0.0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class InterpString(Expr):
    """Alternating literal text and embedded expressions."""

    parts: list[Union[str, "Expr"]] = field(default_factory=list)


@dataclass
class PauliLit(Expr):
    kind: Pauli = Pauli.I


@dataclass
class ResultLit(Expr):
    one: bool = False  # False = Zero, True = One


@dataclass
class Name(Expr):
    """A possibly-dotted reference; resolution happens in the checker."""

    name: str = ""
    binding: Any = field(default=None, compare=False, repr=False)


@dataclass
class Hole(Expr):
    """The `_` placeholder inside a partial application."""


@dataclass
class TupleExpr(Expr):
    items: list[Expr] = field(default_factory=list)  # never exactly one item


@dataclass
class ArrayExpr(Expr):
    items: list[Expr] = field(default_factory=list)


@dataclass
class RangeExpr(Expr):
    start: Optional[Expr] = None
    step: Optional[Expr] = None  # None means implicit step 1
    end: Optional[Expr] = None


@dataclass
class IndexExpr(Expr):
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class CallExpr(Expr):
    callee: Expr = None  # type: ignore[assignment]
    args: list[Expr] = field(default_factory=list)
    # Checker annotations:
    is_partial: bool = field(default=False, compare=False)


@dataclass
class FunctorExpr(Expr):
    functor: str = ""  # "Adjoint" | "Controlled"
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class UnaryExpr(Expr):
    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class BinaryExpr(Expr):
    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


# ── Patterns ─────────────────────────────────────────────────────────────────


@dataclass
class Pattern(Node):
    pass


@dataclass
class NamePattern(Pattern):
    name: str


@dataclass
class TuplePattern(Pattern):
    items: list[Pattern]


# ── Statements ───────────────────────────────────────────────────────────────


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Node):
    stmts: list[Stmt]


@dataclass
class LetStmt(Stmt):
    pattern: Pattern
    value: Expr


@dataclass
class MutableStmt(Stmt):
    name: str
    value: Expr


@dataclass
class SetStmt(Stmt):
    name: str
    value: Expr


@dataclass
class IfStmt(Stmt):
    branches: list[tuple[Expr, Block]]  # if + elifs, in order
    else_block: Optional[Block]


@dataclass
class ForStmt(Stmt):
    var: str
    var_span: Span
    iterable: Expr
    body: Block


@dataclass
class RepeatStmt(Stmt):
    body: Block
    condition: Expr
    fixup: Block


@dataclass
class ReturnStmt(Stmt):
    value: Expr


@dataclass
class FailStmt(Stmt):
    message: Expr


@dataclass
class AllocateStmt(Stmt):
    """``using`` / ``borrowing`` blocks."""

    name: str
    name_span: Span
    count: Optional[Expr]  # None for the single-qubit form Qubit()
    body: Block
    borrowing: bool = False


@dataclass
class ExprStmt(Stmt):
    expr: Expr


# ── Declarations ─────────────────────────────────────────────────────────────


@dataclass
class ParamLeaf(Node):
    name: str
    type: TypeNode


@dataclass
class ParamTuple(Node):
    items: list[Union[ParamLeaf, "ParamTuple"]]


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


@dataclass
class SpecDecl(Node):
    kind: SpecKind
    impl: SpecImpl = SpecImpl.PROVIDED
    block: Optional[Block] = None  # for PROVIDED
    ctl_param: Optional[str] = None  # for provided controlled variants


@dataclass
class CallableDecl(Node):
    is_operation: bool
    name: str
    name_span: Span
    type_params: list[str]
    params: ParamTuple
    output: TypeNode
    specs: list[SpecDecl]  # functions carry a single synthesized BODY spec
    doc: str = ""


@dataclass
class NewtypeDecl(Node):
    name: str
    name_span: Span
    base: TypeNode


@dataclass
class OpenDirective(Node):
    name: str


@dataclass
class Namespace(Node):
    name: str
    opens: list[OpenDirective]
    decls: list[Union[CallableDecl, NewtypeDecl]]
    implicit: bool = False  # wraps bare top-level declarations


@dataclass
class Program(Node):
    namespaces: list[Namespace]


# ── Structural helpers ───────────────────────────────────────────────────────


def walk(node: Any):
    """Yield every Node reachable from ``node``, including itself."""
    if isinstance(node, Node):
        yield node
        for f in node.__dataclass_fields__.values():
            if f.name in ("span", "ty", "binding"):
                continue
            yield from walk(getattr(node, f.name))
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from walk(item)


def structurally_equal(a: Any, b: Any) -> bool:
    """Compare trees ignoring spans and checker annotations."""
    if isinstance(a, Node) or isinstance(b, Node):
        if type(a) is not type(b):
            return False
        for f in a.__dataclass_fields__.values():
            if f.name in ("span", "name_span", "var_span", "ty", "binding", "doc"):
                continue
            if not f.compare:
                continue
            if not structurally_equal(getattr(a, f.name), getattr(b, f.name)):
                return False
        return True
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            structurally_equal(x, y) for x, y in zip(a, b)
        )
    return a == b
