"""Automatic generation of adjoint and controlled specialization bodies.

The generator is purely syntactic and deliberately conservative: a body is
eligible for an auto-generated adjoint when it is a straight-line sequence of
operation calls, classical bindings, classical `if` branching and `for` loops
(recursively), and eligible for an auto-generated controlled version under a
slightly wider set of statement forms. Anything else must provide the
specialization explicitly.

Adjoint bodies are built by keeping classical `let` bindings first (their
values cannot depend on quantum effects, so evaluation order relative to the
gates does not matter) and reversing the remaining statements with every
operation call wrapped in `Adjoint`. Loops reverse their iteration order via
the `ReversedRange` prelude function rather than by swapping the range bounds,
which would visit the wrong elements for strides with a remainder. Classical
diagnostics such as `Assert` calls are kept at their mirror position
unwrapped: the inverse execution passes through exactly the states of the
forward execution, so the original assertion is the correct one.

Controlled bodies keep the classical skeleton and rewrite each operation call
`f(a, b)` into `(Controlled f)(ctls, (a, b))` for a fresh control register
name. The controlled-adjoint body is the controlled rewrite of the adjoint
body. Every generated block is type-checked again, so a body that calls an
operation lacking the required variant is reported rather than silently
miscompiled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import diagnostics as diag
from . import types as ty
from .ast_nodes import (
    AllocateStmt,
    Block,
    CallableDecl,
    CallExpr,
    Expr,
    ExprStmt,
    FailStmt,
    ForStmt,
    FunctorExpr,
    IfStmt,
    LetStmt,
    MutableStmt,
    Name,
    NamePattern,
    RepeatStmt,
    ReturnStmt,
    SetStmt,
    SpecImpl,
    SpecKind,
    Stmt,
    TupleExpr,
    TuplePattern,
    walk,
)
from .checker import Checker, CallableSymbol
from .diagnostics import Diagnostic
from .source import Span

REVERSED_RANGE = "Microsoft.Quantum.Primitive.ReversedRange"


@dataclass
class SpecEntry:
    kind: SpecKind
    impl: SpecImpl
    block: Optional[Block]  # None for self/intrinsic entries
    ctl_param: Optional[str] = None
    generated: bool = False
    # The runtime's closure-compiled body, built on the first invocation.
    compiled: Optional[Callable] = field(default=None, repr=False, compare=False)


class TransformError(Exception):
    def __init__(self, code: str, message: str, span: Span):
        super().__init__(message)
        self.code = code
        self.message = message
        self.span = span


# ── Classification helpers ───────────────────────────────────────────────────


def _is_operation_type(t) -> bool:
    return isinstance(t, ty.Callable) and t.operation


def contains_operation_call(expr: Expr) -> bool:
    """True when evaluating the expression can invoke an operation.

    Partial applications evaluate their given arguments but do not invoke
    the callee, so only non-partial calls count; their subexpressions are
    still inspected because they are evaluated eagerly.
    """
    for node in walk(expr):
        if (
            isinstance(node, CallExpr)
            and not node.is_partial
            and _is_operation_type(node.callee.ty)
        ):
            return True
    return False


def _require_classical(expr: Expr, code: str, what: str) -> None:
    if contains_operation_call(expr):
        raise TransformError(
            code, f"{what} must not invoke an operation", expr.span
        )


# ── Adjoint generation ───────────────────────────────────────────────────────


def adjoint_block(block: Block) -> Block:
    """Inverse of a block; raises TransformError when ineligible."""
    lets: list[Stmt] = []
    tail: list[Stmt] = []
    for stmt in block.stmts:
        if isinstance(stmt, LetStmt):
            _require_classical(
                stmt.value, diag.ADJOINT_INELIGIBLE, "a let binding here"
            )
            lets.append(stmt)
        else:
            tail.append(_adjoint_stmt(stmt))
    return Block(block.span, lets + list(reversed(tail)))


def _adjoint_stmt(stmt: Stmt) -> Stmt:
    if isinstance(stmt, ExprStmt):
        expr = stmt.expr
        if not isinstance(expr, CallExpr):
            raise TransformError(
                diag.ADJOINT_INELIGIBLE,
                "only call statements can be inverted",
                stmt.span,
            )
        for arg in expr.args:
            _require_classical(arg, diag.ADJOINT_INELIGIBLE, "a call argument here")
        _require_classical(expr.callee, diag.ADJOINT_INELIGIBLE, "a callee here")
        if not _is_operation_type(expr.callee.ty):
            # Classical diagnostic or bookkeeping call: the mirror position
            # sees the same state as the forward execution, keep it as-is.
            return stmt
        inverted = CallExpr(expr.span, callee=_invert(expr.callee), args=list(expr.args))
        return ExprStmt(stmt.span, inverted)
    if isinstance(stmt, IfStmt):
        for cond, _ in stmt.branches:
            _require_classical(cond, diag.ADJOINT_INELIGIBLE, "an if condition here")
        branches = [(cond, adjoint_block(b)) for cond, b in stmt.branches]
        else_block = (
            adjoint_block(stmt.else_block) if stmt.else_block is not None else None
        )
        return IfStmt(stmt.span, branches, else_block)
    if isinstance(stmt, ForStmt):
        _require_classical(
            stmt.iterable, diag.ADJOINT_INELIGIBLE, "a loop range here"
        )
        reversed_range = CallExpr(
            stmt.iterable.span,
            callee=Name(stmt.iterable.span, name=REVERSED_RANGE),
            args=[stmt.iterable],
        )
        return ForStmt(
            stmt.span, stmt.var, stmt.var_span, reversed_range, adjoint_block(stmt.body)
        )
    kind = {
        MutableStmt: "mutable bindings",
        SetStmt: "set statements",
        RepeatStmt: "repeat blocks",
        AllocateStmt: "qubit allocations",
        ReturnStmt: "return statements",
        FailStmt: "fail statements",
    }.get(type(stmt), "this statement")
    raise TransformError(
        diag.ADJOINT_INELIGIBLE,
        f"{kind} cannot appear in a body with an auto-generated adjoint",
        stmt.span,
    )


def _invert(callee: Expr) -> Expr:
    if isinstance(callee, FunctorExpr) and callee.functor == "Adjoint":
        return callee.operand
    return FunctorExpr(callee.span, functor="Adjoint", operand=callee)


# ── Controlled generation ────────────────────────────────────────────────────


def controlled_block(block: Block, ctl_name: str) -> Block:
    return Block(block.span, [_controlled_stmt(s, ctl_name) for s in block.stmts])


def _controlled_stmt(stmt: Stmt, ctl: str) -> Stmt:
    if isinstance(stmt, ExprStmt):
        expr = stmt.expr
        if not isinstance(expr, CallExpr):
            raise TransformError(
                diag.CONTROLLED_INELIGIBLE,
                "only call statements can be controlled",
                stmt.span,
            )
        for arg in expr.args:
            _require_classical(
                arg, diag.CONTROLLED_INELIGIBLE, "a call argument here"
            )
        _require_classical(expr.callee, diag.CONTROLLED_INELIGIBLE, "a callee here")
        if not _is_operation_type(expr.callee.ty):
            return stmt
        span = expr.span
        if len(expr.args) == 1:
            packed = expr.args[0]
        else:
            packed = TupleExpr(span, items=list(expr.args))
        call = CallExpr(
            span,
            callee=FunctorExpr(
                expr.callee.span, functor="Controlled", operand=expr.callee
            ),
            args=[Name(span, name=ctl), packed],
        )
        return ExprStmt(stmt.span, call)
    if isinstance(stmt, (LetStmt, MutableStmt, SetStmt)):
        _require_classical(
            stmt.value, diag.CONTROLLED_INELIGIBLE, "a classical binding here"
        )
        return stmt
    if isinstance(stmt, IfStmt):
        for cond, _ in stmt.branches:
            _require_classical(
                cond, diag.CONTROLLED_INELIGIBLE, "an if condition here"
            )
        branches = [(cond, controlled_block(b, ctl)) for cond, b in stmt.branches]
        else_block = (
            controlled_block(stmt.else_block, ctl)
            if stmt.else_block is not None
            else None
        )
        return IfStmt(stmt.span, branches, else_block)
    if isinstance(stmt, ForStmt):
        _require_classical(
            stmt.iterable, diag.CONTROLLED_INELIGIBLE, "a loop range here"
        )
        return ForStmt(
            stmt.span,
            stmt.var,
            stmt.var_span,
            stmt.iterable,
            controlled_block(stmt.body, ctl),
        )
    if isinstance(stmt, FailStmt):
        _require_classical(
            stmt.message, diag.CONTROLLED_INELIGIBLE, "a fail message here"
        )
        return stmt
    kind = {
        RepeatStmt: "repeat blocks",
        AllocateStmt: "qubit allocations",
        ReturnStmt: "return statements",
    }.get(type(stmt), "this statement")
    raise TransformError(
        diag.CONTROLLED_INELIGIBLE,
        f"{kind} cannot appear in a body with an auto-generated controlled "
        "specialization",
        stmt.span,
    )


def fresh_control_name(decl: CallableDecl) -> str:
    taken: set[str] = set()

    def collect_params(item) -> None:
        if hasattr(item, "name"):
            taken.add(item.name)
        if hasattr(item, "items"):
            for sub in item.items:
                collect_params(sub)

    collect_params(decl.params)
    for spec in decl.specs:
        if spec.ctl_param:
            taken.add(spec.ctl_param)
        if spec.block is not None:
            for node in walk(spec.block):
                if isinstance(node, Name):
                    taken.add(node.name)
                elif isinstance(node, (NamePattern, ForStmt, MutableStmt)):
                    taken.add(node.var if isinstance(node, ForStmt) else node.name)
                elif isinstance(node, AllocateStmt):
                    taken.add(node.name)
    name = "ctls"
    counter = 1
    while name in taken:
        name = f"ctls{counter}"
        counter += 1
    return name


# ── Table construction ───────────────────────────────────────────────────────


def build_specializations(
    sym: CallableSymbol, checker: Checker, file: str
) -> list[Diagnostic]:
    """Fill sym.specializations from its declaration; returns diagnostics."""
    decl = sym.decl
    problems: list[Diagnostic] = []
    if decl is None:
        return problems
    table: dict[SpecKind, SpecEntry] = {}
    by_kind = {s.kind: s for s in decl.specs}
    body_spec = by_kind.get(SpecKind.BODY)
    if body_spec is None or body_spec.block is None:
        return problems
    table[SpecKind.BODY] = SpecEntry(SpecKind.BODY, SpecImpl.PROVIDED, body_spec.block)

    def report(err: TransformError, what: str) -> None:
        problems.append(
            diag.error(
                err.code,
                f"cannot generate the {what} specialization of "
                f"'{sym.name}': {err.message}",
                err.span,
                file,
            )
        )

    ctl_name = fresh_control_name(decl)

    adj = by_kind.get(SpecKind.ADJOINT)
    if adj is not None:
        if adj.impl is SpecImpl.PROVIDED:
            table[SpecKind.ADJOINT] = SpecEntry(
                SpecKind.ADJOINT, SpecImpl.PROVIDED, adj.block
            )
        elif adj.impl is SpecImpl.SELF:
            table[SpecKind.ADJOINT] = SpecEntry(SpecKind.ADJOINT, SpecImpl.SELF, None)
        else:
            try:
                block = adjoint_block(body_spec.block)
            except TransformError as err:
                report(err, "adjoint")
                block = None
            if block is not None:
                problems.extend(
                    checker.check_specialization_block(sym, block, None, file)
                )
                table[SpecKind.ADJOINT] = SpecEntry(
                    SpecKind.ADJOINT, SpecImpl.AUTO, block, generated=True
                )

    ctl = by_kind.get(SpecKind.CONTROLLED)
    if ctl is not None:
        if ctl.impl is SpecImpl.PROVIDED:
            table[SpecKind.CONTROLLED] = SpecEntry(
                SpecKind.CONTROLLED, SpecImpl.PROVIDED, ctl.block, ctl.ctl_param
            )
        else:
            try:
                block = controlled_block(body_spec.block, ctl_name)
            except TransformError as err:
                report(err, "controlled")
                block = None
            if block is not None:
                problems.extend(
                    checker.check_specialization_block(sym, block, ctl_name, file)
                )
                table[SpecKind.CONTROLLED] = SpecEntry(
                    SpecKind.CONTROLLED,
                    SpecImpl.AUTO,
                    block,
                    ctl_name,
                    generated=True,
                )

    ca = by_kind.get(SpecKind.CONTROLLED_ADJOINT)
    if ca is not None:
        if ca.impl is SpecImpl.PROVIDED:
            table[SpecKind.CONTROLLED_ADJOINT] = SpecEntry(
                SpecKind.CONTROLLED_ADJOINT, SpecImpl.PROVIDED, ca.block, ca.ctl_param
            )
        elif ca.impl is SpecImpl.SELF:
            table[SpecKind.CONTROLLED_ADJOINT] = SpecEntry(
                SpecKind.CONTROLLED_ADJOINT, SpecImpl.SELF, None
            )
        else:
            # Controlled rewrite of the adjoint body (or of the body itself
            # when the operation is self-adjoint).
            adj_entry = table.get(SpecKind.ADJOINT)
            source_block: Block | None
            if adj_entry is None:
                source_block = None
            elif adj_entry.impl is SpecImpl.SELF:
                source_block = body_spec.block
            else:
                source_block = adj_entry.block
            if source_block is not None:
                try:
                    block = controlled_block(source_block, ctl_name)
                except TransformError as err:
                    report(err, "controlled adjoint")
                    block = None
                if block is not None:
                    problems.extend(
                        checker.check_specialization_block(sym, block, ctl_name, file)
                    )
                    table[SpecKind.CONTROLLED_ADJOINT] = SpecEntry(
                        SpecKind.CONTROLLED_ADJOINT,
                        SpecImpl.AUTO,
                        block,
                        ctl_name,
                        generated=True,
                    )

    sym.specializations = table
    return problems


def generate_all(
    symbols: list[CallableSymbol], checker: Checker
) -> list[Diagnostic]:
    problems: list[Diagnostic] = []
    for sym in symbols:
        if sym.decl is not None:
            problems.extend(build_specializations(sym, checker, sym.file))
    return problems
