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

The specialization table is final: each declared variant maps to the entry
that runs it. `self` is resolved here, to the entry it stands for (the body
for `adjoint self`, the controlled entry for `controlled adjoint self`), so
the runtime and the CLI look a variant up and never see `self` or `auto`.
"""

from __future__ import annotations

from itertools import count
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
    ParamLeaf,
    RepeatStmt,
    ReturnStmt,
    SetStmt,
    SpecDecl,
    SpecImpl,
    SpecKind,
    Stmt,
    TupleExpr,
    walk,
)
from .checker import Checker, CallableSymbol
from .diagnostics import Diagnostic
from .slots import Slotted
from .source import Span

REVERSED_RANGE = "Microsoft.Quantum.Primitive.ReversedRange"


class SpecEntry(Slotted):
    """The block that runs one variant of a callable."""

    __slots__ = ("block", "ctl_param", "generated", "compiled")
    _defaults = {"ctl_param": None, "generated": False}
    # compiled: the runtime's compiled body, `(interp, arg, controls) -> value`:
    # Python source emitted and run on the first invocation.
    _initial = {"compiled": "None"}


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


# ── Steps shared by both rewriters ───────────────────────────────────────────

# Statement names for the ineligibility messages.
_STMT_NAMES = {
    MutableStmt: "mutable bindings",
    SetStmt: "set statements",
    RepeatStmt: "repeat blocks",
    AllocateStmt: "qubit allocations",
    ReturnStmt: "return statements",
    FailStmt: "fail statements",
}


def _ineligible(stmt: Stmt, code: str, variant: str) -> TransformError:
    kind = _STMT_NAMES.get(type(stmt), "this statement")
    return TransformError(
        code,
        f"{kind} cannot appear in a body with an auto-generated {variant}",
        stmt.span,
    )


def _call_stmt(
    stmt: ExprStmt, code: str, verb: str, rewrite: Callable[[CallExpr], Expr]
) -> Stmt:
    """Rewrite an operation call statement; a classical call stays as it is.

    A classical diagnostic or bookkeeping call sees the same state in the
    rewritten body as in the forward execution, so it needs no rewrite.
    """
    expr = stmt.expr
    if not isinstance(expr, CallExpr):
        raise TransformError(code, f"only call statements can be {verb}", stmt.span)
    for arg in expr.args:
        _require_classical(arg, code, "a call argument here")
    _require_classical(expr.callee, code, "a callee here")
    if not _is_operation_type(expr.callee.ty):
        return stmt
    return ExprStmt(stmt.span, rewrite(expr))


def _if_stmt(stmt: IfStmt, code: str, rewrite: Callable[[Block], Block]) -> IfStmt:
    for cond, _ in stmt.branches:
        _require_classical(cond, code, "an if condition here")
    branches = [(cond, rewrite(block)) for cond, block in stmt.branches]
    else_block = rewrite(stmt.else_block) if stmt.else_block is not None else None
    return IfStmt(stmt.span, branches, else_block)


def _for_stmt(
    stmt: ForStmt, code: str, rewrite: Callable[[Block], Block], reverse: bool = False
) -> ForStmt:
    """Rewrite a loop's body; the inverse also walks its range backwards."""
    _require_classical(stmt.iterable, code, "a loop range here")
    iterable = stmt.iterable
    if reverse:
        callee = Name(iterable.span, name=REVERSED_RANGE)
        iterable = CallExpr(iterable.span, callee=callee, args=[iterable])
    return ForStmt(stmt.span, stmt.var, stmt.var_span, iterable, rewrite(stmt.body))


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
            # It moves in front of `tail`, so it must not capture a use there.
            bound = {p.name for p in walk(stmt.pattern) if isinstance(p, NamePattern)}
            if any(isinstance(n, Name) and n.name in bound for n in walk(tail)):
                raise TransformError(
                    diag.ADJOINT_INELIGIBLE,
                    "a let binding here must not shadow a name used before it",
                    stmt.span,
                )
            lets.append(stmt)
        else:
            tail.append(_adjoint_stmt(stmt))
    return Block(block.span, lets + list(reversed(tail)))


def _adjoint_stmt(stmt: Stmt) -> Stmt:
    code = diag.ADJOINT_INELIGIBLE
    if isinstance(stmt, ExprStmt):
        return _call_stmt(stmt, code, "inverted", _inverted_call)
    if isinstance(stmt, IfStmt):
        return _if_stmt(stmt, code, adjoint_block)
    if isinstance(stmt, ForStmt):
        return _for_stmt(stmt, code, adjoint_block, reverse=True)
    raise _ineligible(stmt, code, "adjoint")


def _inverted_call(call: CallExpr) -> CallExpr:
    callee = call.callee
    if isinstance(callee, FunctorExpr) and callee.functor == "Adjoint":
        callee = callee.operand
    else:
        callee = FunctorExpr(callee.span, functor="Adjoint", operand=callee)
    return CallExpr(call.span, callee=callee, args=list(call.args))


# ── Controlled generation ────────────────────────────────────────────────────


def controlled_block(block: Block, ctl_name: str) -> Block:
    return Block(block.span, [_controlled_stmt(s, ctl_name) for s in block.stmts])


def _controlled_stmt(stmt: Stmt, ctl: str) -> Stmt:
    code = diag.CONTROLLED_INELIGIBLE
    if isinstance(stmt, ExprStmt):
        return _call_stmt(
            stmt, code, "controlled", lambda call: _controlled_call(call, ctl)
        )
    if isinstance(stmt, (LetStmt, MutableStmt, SetStmt)):
        _require_classical(stmt.value, code, "a classical binding here")
        return stmt
    if isinstance(stmt, IfStmt):
        return _if_stmt(stmt, code, lambda block: controlled_block(block, ctl))
    if isinstance(stmt, ForStmt):
        return _for_stmt(stmt, code, lambda block: controlled_block(block, ctl))
    if isinstance(stmt, FailStmt):
        _require_classical(stmt.message, code, "a fail message here")
        return stmt
    raise _ineligible(stmt, code, "controlled specialization")


def _controlled_call(call: CallExpr, ctl: str) -> CallExpr:
    span = call.span
    if len(call.args) == 1:
        packed = call.args[0]
    else:
        packed = TupleExpr(span, items=list(call.args))
    return CallExpr(
        span,
        callee=FunctorExpr(call.callee.span, functor="Controlled", operand=call.callee),
        args=[Name(span, name=ctl), packed],
    )


def fresh_control_name(decl: CallableDecl) -> str:
    """`ctls`, else the first of `ctls1`, `ctls2`, ... that the callable
    does not use as a parameter, binding, register or referenced name."""
    taken: set[Optional[str]] = set()
    for node in walk([decl.params, decl.specs]):
        if isinstance(node, (Name, ParamLeaf, NamePattern, MutableStmt, AllocateStmt)):
            taken.add(node.name)
        elif isinstance(node, ForStmt):
            taken.add(node.var)
        elif isinstance(node, SpecDecl):
            taken.add(node.ctl_param)
    names = (f"ctls{i or ''}" for i in count())
    return next(name for name in names if name not in taken)


# ── Table construction ───────────────────────────────────────────────────────


# The variants in table order: (variant, the entry `self` stands for, the
# entry `auto` rewrites). A controlled specialization cannot be `self`.
_VARIANTS = (
    (SpecKind.ADJOINT, SpecKind.BODY, SpecKind.BODY),
    (SpecKind.CONTROLLED, None, SpecKind.BODY),
    (SpecKind.CONTROLLED_ADJOINT, SpecKind.CONTROLLED, SpecKind.ADJOINT),
)


def build_specializations(sym: CallableSymbol, checker: Checker) -> list[Diagnostic]:
    """Fill sym.specializations with its finished table; returns diagnostics.

    Each declared variant maps to the entry that runs it: a provided block,
    the entry a `self` variant stands for, or a generated and re-checked
    block for `auto`. A variant whose source entry could not be generated
    (already reported) is left out.
    """
    problems: list[Diagnostic] = []
    by_kind = {s.kind: s for s in sym.decl.specs}
    body = by_kind.get(SpecKind.BODY)
    if body is None or body.block is None:
        return problems
    table = {SpecKind.BODY: SpecEntry(body.block)}
    ctl_name = fresh_control_name(sym.decl)
    for kind, self_source, auto_source in _VARIANTS:
        spec = by_kind.get(kind)
        if spec is None:
            continue
        if spec.impl is SpecImpl.PROVIDED:
            table[kind] = SpecEntry(spec.block, spec.ctl_param)
            continue
        source = table.get(self_source if spec.impl is SpecImpl.SELF else auto_source)
        if source is None:
            continue
        if spec.impl is SpecImpl.SELF:
            table[kind] = source
            continue
        ctl = ctl_name if kind.controlled else None
        try:
            if ctl is None:
                block = adjoint_block(source.block)
            else:
                block = controlled_block(source.block, ctl)
        except TransformError as err:
            problems.append(
                diag.error(
                    err.code,
                    f"cannot generate the {kind.value} specialization of "
                    f"'{sym.name}': {err.message}",
                    err.span,
                    sym.file,
                )
            )
            continue
        problems.extend(checker.check_specialization_block(sym, block, ctl))
        table[kind] = SpecEntry(block, ctl, generated=True)
    sym.specializations = table
    return problems


def generate_all(
    symbols: list[CallableSymbol], checker: Checker
) -> list[Diagnostic]:
    problems: list[Diagnostic] = []
    for sym in symbols:
        if sym.decl is not None:
            problems.extend(build_specializations(sym, checker))
    return problems
