"""Name resolution and type checking.

Checking happens in three passes over one or more parsed units sharing a
symbol table: collect declarations, resolve signatures (UDT bases first so
newtypes can reference each other), then check every provided body. Each
declaration's names resolve in its own namespace block: its namespace, then
the namespaces its block opens. All
expression nodes come out annotated with their type (``expr.ty``) and every
name reference with its resolution (``name.binding``), which is what the
runtime dispatches on.
"""

from __future__ import annotations

from typing import Optional, Union

from . import diagnostics as diag
from . import types as ty
from .ast_nodes import (
    AllocateStmt,
    ArrayExpr,
    ArrayTypeNode,
    BinaryExpr,
    Block,
    BoolLit,
    CallableDecl,
    CallableTypeNode,
    CallExpr,
    DoubleLit,
    Expr,
    ExprStmt,
    FailStmt,
    ForStmt,
    FunctorExpr,
    Hole,
    IfStmt,
    IndexExpr,
    IntLit,
    InterpString,
    LetStmt,
    MutableStmt,
    Name,
    NamedTypeNode,
    NamePattern,
    Namespace,
    NewtypeDecl,
    ParamLeaf,
    ParamTuple,
    Pattern,
    PauliLit,
    Program,
    RangeExpr,
    RepeatStmt,
    ResultLit,
    ReturnStmt,
    SetStmt,
    SpecKind,
    Stmt,
    StringLit,
    TupleExpr,
    TupleTypeNode,
    TypeNode,
    TypeParamNode,
    UnaryExpr,
)
from .diagnostics import Diagnostic
from .slots import Slotted
from .source import Span

ERROR = ty.Prim("<error>")

# Namespaces opened implicitly inside the snippet namespace.
IMPLICIT_OPENS = ("Microsoft.Quantum.Primitive", "Microsoft.Quantum.Canon")


def _is_error(t: ty.Type) -> bool:
    return t == ERROR or (isinstance(t, ty.Array) and _is_error(t.element))


# ── Symbols ──────────────────────────────────────────────────────────────────


class CallableSymbol(Slotted):
    __slots__ = (
        "namespace", "name", "is_operation", "type_params", "input", "output", "variants",
        "decl", "intrinsic", "file", "opens", "specializations", "shot_prefix",
    )
    # intrinsic: a key into the runtime intrinsic registry
    _defaults = {"decl": None, "intrinsic": None, "file": "<builtin>"}
    # opens: the namespaces its declaration's block opens, filled by collect;
    # specializations: filled by the specialization generator; shot_prefix: the
    # runtime's simulator.ShotPrefix, made when it first runs as an entry point
    _initial = {"opens": "[]", "specializations": "{}", "shot_prefix": "None"}

    @property
    def qualified(self) -> str:
        return f"{self.namespace}.{self.name}" if self.namespace else self.name

    @property
    def is_diagnostic(self) -> bool:
        """A function returning (): `--elide-diagnostics` skips its calls."""
        return not self.is_operation and self.output == ty.UNIT

    def reference_type(self) -> ty.Type:
        """Type of a reference to this callable, with fresh variables."""
        mapping = {p: ty.fresh_param(p) for p in self.type_params}
        return ty.Callable(
            self.is_operation,
            ty.instantiate(self.input, mapping),
            ty.instantiate(self.output, mapping),
            self.variants,
        )


class UdtSymbol(Slotted):
    # base: resolved lazily; None while unresolved
    __slots__ = ("namespace", "name", "base", "decl", "file", "opens", "resolving")
    _defaults = {"decl": None, "file": "<builtin>"}
    # opens: the namespaces its declaration's block opens; filled by collect
    _initial = {"opens": "[]", "resolving": "False"}

    @property
    def qualified(self) -> str:
        return f"{self.namespace}.{self.name}" if self.namespace else self.name

    def type(self) -> ty.Type:
        return ty.Udt(self.qualified, self.base if self.base is not None else ERROR)


Symbol = Union[CallableSymbol, UdtSymbol]


class SymbolTable:
    def __init__(self) -> None:
        self.namespaces: dict[str, dict[str, Symbol]] = {}

    def define(self, symbol: Symbol) -> Symbol | None:
        """Add a symbol; returns the clashing symbol on duplicate, else None."""
        members = self.namespaces.setdefault(symbol.namespace, {})
        if symbol.name in members:
            return members[symbol.name]
        members[symbol.name] = symbol
        return None

    def lookup_qualified(self, qualified: str) -> Symbol | None:
        ns, _, name = qualified.rpartition(".")
        return self.namespaces.get(ns, {}).get(name)

    def lookup(self, name: str, namespace: str, opens: list[str]) -> list[Symbol]:
        """Resolve an unqualified name: own namespace first, then opens."""
        own = self.namespaces.get(namespace, {}).get(name)
        if own is not None:
            return [own]
        found = []
        for ns in opens:
            sym = self.namespaces.get(ns, {}).get(name)
            if sym is not None and sym not in found:
                found.append(sym)
        return found

    def copy(self) -> "SymbolTable":
        """A table that takes new symbols without changing this one.

        The namespace dicts are copied; the symbols in them are shared.
        """
        table = SymbolTable()
        table.namespaces = {ns: dict(syms) for ns, syms in self.namespaces.items()}
        return table

    def has_namespace(self, name: str) -> bool:
        return name in self.namespaces

    def all_callables(self) -> list[CallableSymbol]:
        return [
            s
            for members in self.namespaces.values()
            for s in members.values()
            if isinstance(s, CallableSymbol)
        ]


# ── Scopes ───────────────────────────────────────────────────────────────────


class LocalBinding(Slotted):
    __slots__ = ("name", "type", "mutable", "span")


class Scope:
    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.parent = parent
        self.bindings: dict[str, LocalBinding] = {}

    def lookup(self, name: str) -> LocalBinding | None:
        scope: Scope | None = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return None

    def define(self, binding: LocalBinding) -> bool:
        """False when the name is already bound in this same scope."""
        if binding.name in self.bindings:
            return False
        self.bindings[binding.name] = binding
        return True


# ── Checking context ─────────────────────────────────────────────────────────


class _Context:
    """Checking state for one declaration, in its own namespace block."""

    __slots__ = (
        "checker", "namespace", "opens", "file", "rigid_params", "output",
        "in_function", "alloc_depth", "bindings",
    )

    def __init__(self, checker: "Checker", sym: Symbol) -> None:
        self.checker, self.namespace, self.opens, self.file = (
            checker, sym.namespace, sym.opens, sym.file
        )
        is_callable = isinstance(sym, CallableSymbol)
        self.rigid_params = frozenset(sym.type_params if is_callable else ())
        self.output = sym.output if is_callable else ty.UNIT
        self.in_function = is_callable and not sym.is_operation
        self.alloc_depth = 0
        self.bindings: ty.Bindings = {}

    def error(self, code: str, message: str, span: Span) -> None:
        self.checker._error(code, message, span, self.file)


class Checker:
    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.diagnostics: list[Diagnostic] = []
        # Each namespace block -> the symbols it declared, duplicates left out.
        self._declared: dict[Namespace, list[Symbol]] = {}

    def _error(self, code: str, message: str, span: Span, file: str) -> None:
        self.diagnostics.append(diag.error(code, message, span, file))

    # ── Pass 1: collect declarations ─────────────────────────────────────

    def collect(self, program: Program, file: str) -> None:
        for ns in program.namespaces:
            # An open of a namespace that no file defines finds nothing.
            opens = [op.name for op in ns.opens]
            if ns.implicit:
                opens += IMPLICIT_OPENS
            declared = self._declared[ns] = []
            for decl in ns.decls:
                if isinstance(decl, NewtypeDecl):
                    sym: Symbol = UdtSymbol(ns.name, decl.name, None, decl, file)
                else:
                    self._validate_spec_combination(decl, file)
                    sym = CallableSymbol(
                        ns.name,
                        decl.name,
                        decl.is_operation,
                        list(decl.type_params),
                        ERROR,
                        ERROR,
                        self._declared_variants(decl),
                        decl,
                        None,
                        file,
                    )
                sym.opens = opens
                if self.table.define(sym) is None:
                    declared.append(sym)
                else:
                    self._error(
                        diag.DUPLICATE_DEFINITION,
                        f"'{decl.name}' is already defined in this namespace",
                        decl.name_span,
                        file,
                    )

    @staticmethod
    def _declared_variants(decl: CallableDecl) -> frozenset[str]:
        return frozenset(
            variant
            for s in decl.specs
            for variant, has in (
                (ty.ADJOINT, s.kind.adjoint),
                (ty.CONTROLLED, s.kind.controlled),
            )
            if has
        )

    def _validate_spec_combination(self, decl: CallableDecl, file: str) -> None:
        kinds = {s.kind for s in decl.specs}
        has_ca = SpecKind.CONTROLLED_ADJOINT in kinds
        if has_ca != (SpecKind.ADJOINT in kinds and SpecKind.CONTROLLED in kinds):
            self._error(
                diag.SPECIALIZATION_MISMATCH,
                "a controlled adjoint specialization requires both adjoint "
                "and controlled specializations"
                if has_ca
                else "an operation with both adjoint and controlled "
                "specializations must also declare controlled adjoint",
                decl.name_span,
                file,
            )

    def callables(self, program: Program) -> list[CallableSymbol]:
        """The callables `program` declares, in source order."""
        return [
            sym
            for ns in program.namespaces
            for sym in self._declared[ns]
            if isinstance(sym, CallableSymbol)
        ]

    # ── Pass 2: resolve signatures ───────────────────────────────────────

    def resolve_signatures(self, program: Program, file: str) -> None:
        for ns in program.namespaces:
            for op in ns.opens:
                if not self.table.has_namespace(op.name):
                    self._error(
                        diag.UNKNOWN_NAMESPACE,
                        f"namespace '{op.name}' is not defined",
                        op.span,
                        file,
                    )
            for sym in self._declared[ns]:
                if isinstance(sym, UdtSymbol):
                    self._udt_base_of(sym)
        for sym in self.callables(program):
            self._resolve_callable_signature(sym)

    def _udt_base_of(self, sym: UdtSymbol) -> ty.Type:
        """The newtype's base, resolved in its own block the first time."""
        if sym.base is not None:
            return sym.base
        if sym.resolving:
            self._error(
                diag.UDT_RECURSION,
                f"newtype '{sym.name}' is defined in terms of itself",
                sym.decl.name_span,
                sym.file,
            )
            return ERROR
        sym.resolving = True
        try:
            base = self.resolve_type(sym.decl.base, _Context(self, sym))
        finally:
            sym.resolving = False
        sym.base = base
        return base

    def _resolve_callable_signature(self, sym: CallableSymbol) -> None:
        ctx = _Context(self, sym)
        seen: set[str] = set()
        for p in sym.type_params:
            if p in seen:
                ctx.error(
                    diag.DUPLICATE_BINDING,
                    f"duplicate type parameter {p}",
                    sym.decl.name_span,
                )
            seen.add(p)
        sym.input = self._param_tuple_type(sym.decl.params, ctx)
        sym.output = self.resolve_type(sym.decl.output, ctx)

    def _param_tuple_type(self, params: ParamTuple, ctx: _Context) -> ty.Type:
        items: list[ty.Type] = []
        for item in params.items:
            if isinstance(item, ParamLeaf):
                items.append(self.resolve_type(item.type, ctx))
            else:
                items.append(self._param_tuple_type(item, ctx))
        return ty.tuple_of(items)

    # ── Type expression resolution ───────────────────────────────────────

    def resolve_type(self, node: TypeNode, ctx: _Context) -> ty.Type:
        if isinstance(node, NamedTypeNode):
            if "." not in node.name and node.name in ty.PRIMITIVES:
                return ty.PRIMITIVES[node.name]
            sym = self._resolve_symbol_name(node.name, ctx, node.span, is_type=True)
            if isinstance(sym, UdtSymbol):
                self._udt_base_of(sym)
                return sym.type()
            if sym is not None:
                ctx.error(
                    diag.UNDEFINED_TYPE,
                    f"'{node.name}' is not a type",
                    node.span,
                )
                return ERROR
            return ERROR
        if isinstance(node, TypeParamNode):
            if node.name not in ctx.rigid_params:
                ctx.error(
                    diag.UNDEFINED_TYPE,
                    f"type parameter {node.name} is not declared here",
                    node.span,
                )
                return ERROR
            return ty.Param(node.name, None)
        if isinstance(node, TupleTypeNode):
            return ty.tuple_of(self.resolve_type(i, ctx) for i in node.items)
        if isinstance(node, ArrayTypeNode):
            return ty.Array(self.resolve_type(node.element, ctx))
        if isinstance(node, CallableTypeNode):
            return ty.Callable(
                node.is_operation,
                self.resolve_type(node.input, ctx),
                self.resolve_type(node.output, ctx),
                frozenset(node.functors),
            )
        raise TypeError(f"unknown type node {type(node).__name__}")

    def _resolve_symbol_name(
        self, name: str, ctx: _Context, span: Span, is_type: bool = False
    ) -> Symbol | None:
        what = "type" if is_type else "name"
        if "." in name:
            sym = self.table.lookup_qualified(name)
            if sym is None:
                ctx.error(diag.NAME_NOT_FOUND, f"{what} '{name}' is not defined", span)
            return sym
        candidates = self.table.lookup(name, ctx.namespace, ctx.opens)
        if not candidates:
            code = diag.UNDEFINED_TYPE if is_type else diag.NAME_NOT_FOUND
            ctx.error(code, f"{what} '{name}' is not defined", span)
            return None
        if len(candidates) > 1:
            namespaces = ", ".join(sorted(c.namespace for c in candidates))
            ctx.error(
                diag.AMBIGUOUS_NAME,
                f"'{name}' is ambiguous between namespaces {namespaces}",
                span,
            )
        return candidates[0]

    # ── Pass 3: check bodies ─────────────────────────────────────────────

    def check_bodies(self, program: Program, file: str) -> None:
        for sym in self.callables(program):
            for spec in sym.decl.specs:
                if spec.block is not None:
                    self.check_specialization_block(sym, spec.block, spec.ctl_param)
            body = next((s.block for s in sym.decl.specs if s.kind is SpecKind.BODY), None)
            if (
                sym.output != ty.UNIT
                and not _is_error(sym.output)
                and body is not None
                and not _block_returns(body)
            ):
                self._error(
                    diag.MISSING_RETURN,
                    f"'{sym.name}' must return a value of type "
                    f"{ty.render(sym.output)} on every path",
                    sym.decl.name_span,
                    file,
                )

    def check_specialization_block(
        self, sym: CallableSymbol, block: Block, ctl_param: str | None
    ) -> list[Diagnostic]:
        """Type-check one specialization body in the callable's scope.

        Also used by the specialization generator to validate generated
        blocks; returns the diagnostics it produced.
        """
        before = len(self.diagnostics)
        ctx = _Context(self, sym)
        scope = Scope()
        if ctl_param is not None:
            scope.define(
                LocalBinding(ctl_param, ty.Array(ty.QUBIT), False, block.span)
            )
        self._bind(sym.decl.params, sym.input, scope, ctx)
        self._check_block(block, scope, ctx)
        return self.diagnostics[before:]

    def _bind(
        self,
        node: Pattern | ParamLeaf | ParamTuple,
        t: ty.Type,
        scope: Scope,
        ctx: _Context,
    ) -> None:
        """Bind the names of a let pattern or a parameter tuple to the parts of t."""
        if isinstance(node, (NamePattern, ParamLeaf)):
            if not scope.define(LocalBinding(node.name, t, False, node.span)):
                ctx.error(
                    diag.DUPLICATE_BINDING,
                    f"parameter '{node.name}' is declared twice"
                    if isinstance(node, ParamLeaf)
                    else f"'{node.name}' is already bound in this scope",
                    node.span,
                )
            return
        if len(node.items) == 1:  # a one-item tuple type is its item
            self._bind(node.items[0], t, scope, ctx)
            return
        resolved = _strip_udt(t)
        fits = isinstance(resolved, ty.Tuple) and len(resolved.items) == len(node.items)
        if not fits and not _is_error(resolved):
            ctx.error(
                diag.PATTERN_MISMATCH,
                f"cannot destructure a value of type {ty.render(t)} into "
                f"{len(node.items)} parts",
                node.span,
            )
        items = resolved.items if fits else [ERROR] * len(node.items)
        for sub, sub_t in zip(node.items, items):
            self._bind(sub, sub_t, scope, ctx)

    # ── Statements ───────────────────────────────────────────────────────

    def _check_block(
        self, block: Block, scope: Scope, ctx: _Context, *bound: LocalBinding
    ) -> Scope:
        """Check the block in a new scope that holds ``bound``; returns that scope."""
        inner = Scope(scope)
        for binding in bound:
            inner.define(binding)
        for stmt in block.stmts:
            self._check_stmt(stmt, inner, ctx)
        return inner

    def _check_stmt(self, stmt: Stmt, scope: Scope, ctx: _Context) -> None:
        if isinstance(stmt, LetStmt):
            t = self.check_expr(stmt.value, scope, ctx)
            self._bind(stmt.pattern, t, scope, ctx)
        elif isinstance(stmt, MutableStmt):
            t = self.check_expr(stmt.value, scope, ctx)
            if not scope.define(LocalBinding(stmt.name, t, True, stmt.span)):
                ctx.error(
                    diag.DUPLICATE_BINDING,
                    f"'{stmt.name}' is already bound in this scope",
                    stmt.span,
                )
        elif isinstance(stmt, SetStmt):
            self._check_set(stmt, scope, ctx)
        elif isinstance(stmt, IfStmt):
            for cond, block in stmt.branches:
                t = self.check_expr(cond, scope, ctx)
                self._require(t, ty.BOOL, cond.span, ctx, "an if condition")
                self._check_block(block, scope, ctx)
            if stmt.else_block is not None:
                self._check_block(stmt.else_block, scope, ctx)
        elif isinstance(stmt, ForStmt):
            t = self.check_expr(stmt.iterable, scope, ctx)
            self._require(t, ty.RANGE, stmt.iterable.span, ctx, "a for iterable")
            var = LocalBinding(stmt.var, ty.INT, False, stmt.var_span)
            self._check_block(stmt.body, scope, ctx, var)
        elif isinstance(stmt, RepeatStmt):
            # The until-condition and fixup see bindings made in the body.
            inner = self._check_block(stmt.body, scope, ctx)
            t = self.check_expr(stmt.condition, inner, ctx)
            self._require(t, ty.BOOL, stmt.condition.span, ctx, "an until condition")
            self._check_block(stmt.fixup, inner, ctx)
        elif isinstance(stmt, ReturnStmt):
            if ctx.alloc_depth > 0:
                ctx.error(
                    diag.RETURN_IN_ALLOCATION,
                    "return is not allowed inside a using or borrowing block",
                    stmt.span,
                )
            t = self.check_expr(stmt.value, scope, ctx, expected=ctx.output)
            self._require(t, ctx.output, stmt.value.span, ctx, "the return value")
        elif isinstance(stmt, FailStmt):
            t = self.check_expr(stmt.message, scope, ctx)
            self._require(t, ty.STRING, stmt.message.span, ctx, "a fail message")
        elif isinstance(stmt, AllocateStmt):
            self._check_allocate(stmt, scope, ctx)
        elif isinstance(stmt, ExprStmt):
            t = self.check_expr(stmt.expr, scope, ctx)
            if not _is_error(t) and t != ty.UNIT:
                ctx.error(
                    diag.TYPE_MISMATCH,
                    f"expression statement has type {ty.render(t)}; only () "
                    "values may be discarded",
                    stmt.span,
                )
        else:
            raise TypeError(f"unknown statement {type(stmt).__name__}")

    def _check_set(self, stmt: SetStmt, scope: Scope, ctx: _Context) -> None:
        binding = scope.lookup(stmt.name)
        if binding is None:
            ctx.error(
                diag.NAME_NOT_FOUND, f"name '{stmt.name}' is not defined", stmt.span
            )
            self.check_expr(stmt.value, scope, ctx)
            return
        if not binding.mutable:
            ctx.error(
                diag.SET_IMMUTABLE,
                f"cannot set '{stmt.name}'; it was bound with let, not mutable",
                stmt.span,
            )
        t = self.check_expr(stmt.value, scope, ctx, expected=binding.type)
        if _is_error(t) or _is_error(binding.type):
            return
        if isinstance(binding.type, ty.Array) or isinstance(t, ty.Array):
            ok = binding.type == t
        else:
            ok = ty.subtype(t, binding.type)
        if not ok:
            ctx.error(
                diag.SET_TYPE_CHANGE,
                f"cannot change the type of '{stmt.name}' from "
                f"{ty.render(binding.type)} to {ty.render(t)}",
                stmt.span,
            )

    def _check_allocate(self, stmt: AllocateStmt, scope: Scope, ctx: _Context) -> None:
        kw = "borrowing" if stmt.borrowing else "using"
        if ctx.in_function:
            ctx.error(
                diag.FUNCTION_ALLOCATES,
                f"functions cannot contain {kw} blocks",
                stmt.span,
            )
        if stmt.count is not None:
            t = self.check_expr(stmt.count, scope, ctx)
            self._require(t, ty.INT, stmt.count.span, ctx, "a qubit count")
            qubits: ty.Type = ty.Array(ty.QUBIT)
        else:
            qubits = ty.QUBIT
        bound = LocalBinding(stmt.name, qubits, False, stmt.name_span)
        ctx.alloc_depth += 1
        try:
            self._check_block(stmt.body, scope, ctx, bound)
        finally:
            ctx.alloc_depth -= 1

    def _require(
        self, actual: ty.Type, expected: ty.Type, span: Span, ctx: _Context, what: str
    ) -> None:
        if _is_error(actual) or _is_error(expected):
            return
        if not ty.subtype(actual, expected):
            ctx.error(
                diag.TYPE_MISMATCH,
                f"{what} must have type {ty.render(expected)}, "
                f"found {ty.render(actual)}",
                span,
            )

    # ── Expressions ──────────────────────────────────────────────────────

    def check_expr(
        self,
        expr: Expr,
        scope: Scope,
        ctx: _Context,
        expected: ty.Type | None = None,
    ) -> ty.Type:
        t = self._check_expr_inner(expr, scope, ctx, expected)
        t = ty.substitute(t, ctx.bindings)
        expr.ty = t
        return t

    def _check_expr_inner(
        self, expr: Expr, scope: Scope, ctx: _Context, expected: ty.Type | None
    ) -> ty.Type:
        if isinstance(expr, IntLit):
            return ty.INT
        if isinstance(expr, DoubleLit):
            return ty.DOUBLE
        if isinstance(expr, BoolLit):
            return ty.BOOL
        if isinstance(expr, StringLit):
            return ty.STRING
        if isinstance(expr, PauliLit):
            return ty.PAULI
        if isinstance(expr, ResultLit):
            return ty.RESULT
        if isinstance(expr, InterpString):
            for part in expr.parts:
                if isinstance(part, Expr):
                    self.check_expr(part, scope, ctx)
            return ty.STRING
        if isinstance(expr, Hole):
            ctx.error(
                diag.HOLE_OUTSIDE_CALL,
                "'_' may only appear as an argument in a partial application",
                expr.span,
            )
            return ERROR
        if isinstance(expr, Name):
            return self._check_name(expr, scope, ctx)
        if isinstance(expr, TupleExpr):
            return self._check_tuple(expr, scope, ctx, expected)
        if isinstance(expr, ArrayExpr):
            return self._check_array(expr, scope, ctx, expected)
        if isinstance(expr, RangeExpr):
            for part in (expr.start, expr.step, expr.end):
                if part is not None:
                    t = self.check_expr(part, scope, ctx)
                    self._require(t, ty.INT, part.span, ctx, "a range bound")
            return ty.RANGE
        if isinstance(expr, IndexExpr):
            return self._check_index(expr, scope, ctx)
        if isinstance(expr, CallExpr):
            return self._check_call(expr, scope, ctx)
        if isinstance(expr, FunctorExpr):
            return self._check_functor(expr, scope, ctx)
        if isinstance(expr, UnaryExpr):
            return self._check_unary(expr, scope, ctx)
        if isinstance(expr, BinaryExpr):
            return self._check_binary(expr, scope, ctx)
        raise TypeError(f"unknown expression {type(expr).__name__}")

    def _check_name(self, expr: Name, scope: Scope, ctx: _Context) -> ty.Type:
        if "." not in expr.name:
            binding = scope.lookup(expr.name)
            if binding is not None:
                expr.binding = ("local", expr.name)
                return binding.type
        sym = self._resolve_symbol_name(expr.name, ctx, expr.span)
        if sym is None:
            return ERROR
        if isinstance(sym, UdtSymbol):
            expr.binding = ("udt", sym)
            base = sym.base if sym.base is not None else ERROR
            return ty.Callable(False, base, sym.type())
        expr.binding = ("callable", sym)
        return sym.reference_type()

    def _check_tuple(
        self, expr: TupleExpr, scope: Scope, ctx: _Context, expected: ty.Type | None
    ) -> ty.Type:
        expectations: list[ty.Type | None] = [None] * len(expr.items)
        if expected is not None:
            shape = _strip_udt(expected)
            if isinstance(shape, ty.Tuple) and len(shape.items) == len(expr.items):
                expectations = list(shape.items)
        items = tuple(
            self.check_expr(e, scope, ctx, expected=exp)
            for e, exp in zip(expr.items, expectations)
        )
        return ty.tuple_of(items)

    def _check_array(
        self, expr: ArrayExpr, scope: Scope, ctx: _Context, expected: ty.Type | None
    ) -> ty.Type:
        elem_expected: ty.Type | None = None
        if expected is not None:
            shape = _strip_udt(expected)
            if isinstance(shape, ty.Array):
                elem_expected = shape.element
        if not expr.items:
            if elem_expected is not None:
                return ty.Array(elem_expected)
            ctx.error(
                diag.EMPTY_ARRAY_TYPE,
                "the element type of [] cannot be inferred here",
                expr.span,
            )
            return ty.Array(ERROR)
        elem: ty.Type | None = None
        for item in expr.items:
            t = self.check_expr(item, scope, ctx, expected=elem_expected)
            if _is_error(t):
                return ty.Array(ERROR)
            if elem is None:
                elem = t
                continue
            joined = ty.join(elem, t)
            if joined is None:
                ctx.error(
                    diag.TYPE_MISMATCH,
                    f"array elements have incompatible types "
                    f"{ty.render(elem)} and {ty.render(t)}",
                    item.span,
                )
                return ty.Array(ERROR)
            elem = joined
        assert elem is not None
        return ty.Array(elem)

    def _check_index(self, expr: IndexExpr, scope: Scope, ctx: _Context) -> ty.Type:
        base = self.check_expr(expr.base, scope, ctx)
        index = self.check_expr(expr.index, scope, ctx)
        if _is_error(base):
            return ERROR
        resolved = _strip_udt(base)
        if not isinstance(resolved, ty.Array):
            ctx.error(
                diag.TYPE_MISMATCH,
                f"only arrays can be indexed, found {ty.render(base)}",
                expr.base.span,
            )
            return ERROR
        if _is_error(index):
            return ERROR
        if ty.subtype(index, ty.INT):
            return resolved.element
        if ty.subtype(index, ty.RANGE):
            return ty.Array(resolved.element)  # slice
        ctx.error(
            diag.TYPE_MISMATCH,
            f"an index must be an Int or a Range, found {ty.render(index)}",
            expr.index.span,
        )
        return ERROR

    # ── Calls and partial application ────────────────────────────────────

    def _check_call(self, expr: CallExpr, scope: Scope, ctx: _Context) -> ty.Type:
        callee = self.check_expr(expr.callee, scope, ctx)
        if not isinstance(callee, ty.Callable):
            if not _is_error(callee):
                ctx.error(
                    diag.NOT_CALLABLE,
                    f"value of type {ty.render(callee)} is not callable",
                    expr.callee.span,
                )
            self._check_unchecked(expr.args, scope, ctx)
            return ERROR
        expr.is_partial = any(shape_has_hole(a) for a in expr.args)
        if ctx.in_function and callee.operation and not expr.is_partial:
            ctx.error(
                diag.FUNCTION_CALLS_OPERATION,
                "functions cannot call operations",
                expr.span,
            )
        missing = self._missing(callee.input, expr.args, expr.span, scope, ctx)
        if missing is _BAD_SHAPE:
            self._check_unchecked(expr.args, scope, ctx)
            return ERROR
        result = ty.substitute(callee.output, ctx.bindings)
        what = "call"
        if expr.is_partial:
            missing = ty.substitute(missing, ctx.bindings)
            result = ty.Callable(callee.operation, missing, result, callee.variants)
            what = "partial application"
        if ty.contains_var(result):
            ctx.error(
                diag.UNRESOLVED_TYPE_PARAM,
                f"the type parameters of this {what} cannot be fully inferred",
                expr.span,
            )
            return ERROR
        return result

    def _missing(
        self,
        input_t: ty.Type,
        args: list[Expr],
        span: Span,
        scope: Scope,
        ctx: _Context,
    ) -> ty.Type:
        """Type of the parts of ``input_t`` that ``args`` leave to holes.

        That is ``ty.UNIT`` when there is no hole, and ``_BAD_SHAPE`` after a
        reported mismatch or an argument with an error. Hole-free arguments
        are unified as a whole; a list holding a hole is split item by item,
        and a newtype is one value that a hole cannot split.
        """
        if not any(shape_has_hole(a) for a in args):
            expectations: list[ty.Type | None] = [None] * len(args)
            if len(args) == 1:
                expectations = [input_t]
            elif isinstance(input_t, ty.Tuple) and len(input_t.items) == len(args):
                expectations = list(input_t.items)
            types = [
                self.check_expr(a, scope, ctx, expected=_concrete_or_none(e))
                for a, e in zip(args, expectations)
            ]
            if any(_is_error(t) for t in types):
                return _BAD_SHAPE
            try:
                ty.unify(input_t, ty.tuple_of(types), ctx.bindings)
            except ty.UnifyError as exc:
                code = (
                    diag.CALL_SHAPE_MISMATCH
                    if isinstance(exc, ty.ArityError)
                    else diag.TYPE_MISMATCH
                )
                ctx.error(code, str(exc), span)
                return _BAD_SHAPE
            return ty.UNIT
        if len(args) == 1:
            if isinstance(args[0], Hole):
                return input_t
            return self._missing(input_t, args[0].items, args[0].span, scope, ctx)
        resolved = ty.substitute(input_t, ctx.bindings)
        if not isinstance(resolved, ty.Tuple) or len(resolved.items) != len(args):
            ctx.error(
                diag.PARTIAL_SHAPE_MISMATCH,
                f"this partial application supplies {len(args)} components "
                f"but the input type is {ty.render(input_t)}",
                span,
            )
            return _BAD_SHAPE
        parts: list[ty.Type] = []
        for item, arg in zip(resolved.items, args):
            part = self._missing(item, [arg], arg.span, scope, ctx)
            if part is _BAD_SHAPE:
                return _BAD_SHAPE
            if shape_has_hole(arg):
                parts.append(part)
        return ty.tuple_of(parts)

    def _check_unchecked(self, args: list[Expr], scope: Scope, ctx: _Context) -> None:
        """Check, with no expected type, each given argument of a failed call
        that the call left unchecked, inside hole-bearing tuples too."""
        for arg in args:
            if isinstance(arg, TupleExpr) and shape_has_hole(arg):
                self._check_unchecked(arg.items, scope, ctx)
            elif arg.ty is None and not isinstance(arg, Hole):
                self.check_expr(arg, scope, ctx)

    def _check_functor(self, expr: FunctorExpr, scope: Scope, ctx: _Context) -> ty.Type:
        operand = self.check_expr(expr.operand, scope, ctx)
        if _is_error(operand):
            return ERROR
        if not isinstance(operand, ty.Callable) or not operand.operation:
            ctx.error(
                diag.MISSING_VARIANT,
                f"the {expr.functor} functor applies to operations, "
                f"found {ty.render(operand)}",
                expr.span,
            )
            return ERROR
        needed = ty.ADJOINT if expr.functor == "Adjoint" else ty.CONTROLLED
        if needed not in operand.variants:
            ctx.error(
                diag.MISSING_VARIANT,
                f"this operation does not support the {expr.functor} functor",
                expr.span,
            )
            return ERROR
        if expr.functor == "Adjoint":
            return operand
        return ty.Callable(
            True,
            ty.Tuple((ty.Array(ty.QUBIT), operand.input)),
            operand.output,
            operand.variants,
        )

    def _check_unary(self, expr: UnaryExpr, scope: Scope, ctx: _Context) -> ty.Type:
        t = self.check_expr(expr.operand, scope, ctx)
        if _is_error(t):
            return ERROR
        resolved = _strip_udt(t)
        if expr.op == "-" and resolved in (ty.INT, ty.DOUBLE):
            return resolved
        if expr.op == "!" and resolved == ty.BOOL:
            return ty.BOOL
        if expr.op == "~" and resolved == ty.INT:
            return ty.INT
        ctx.error(
            diag.TYPE_MISMATCH,
            f"operator {expr.op} is not defined for {ty.render(t)}",
            expr.span,
        )
        return ERROR

    _EQUALITY_TYPES = (ty.INT, ty.DOUBLE, ty.BOOL, ty.STRING, ty.RESULT, ty.PAULI)

    def _check_binary(self, expr: BinaryExpr, scope: Scope, ctx: _Context) -> ty.Type:
        lt = self.check_expr(expr.left, scope, ctx)
        rt = self.check_expr(expr.right, scope, ctx)
        if _is_error(lt) or _is_error(rt):
            return ERROR
        left = _strip_udt(lt)
        right = _strip_udt(rt)
        op = expr.op

        def fail() -> ty.Type:
            ctx.error(
                diag.TYPE_MISMATCH,
                f"operator {op} is not defined for {ty.render(lt)} and "
                f"{ty.render(rt)}",
                expr.span,
            )
            return ERROR

        if op in ("&&", "||"):
            return ty.BOOL if left == ty.BOOL and right == ty.BOOL else fail()
        if op in ("==", "!="):
            joined = ty.join(left, right)
            if joined in self._EQUALITY_TYPES:
                return ty.BOOL
            return fail()
        if op in ("<", "<=", ">", ">="):
            if left == right and left in (ty.INT, ty.DOUBLE):
                return ty.BOOL
            return fail()
        if op in ("<<", ">>", "&", "|", "^"):
            return ty.INT if left == ty.INT and right == ty.INT else fail()
        if op == "%":
            return ty.INT if left == ty.INT and right == ty.INT else fail()
        if op == "+":
            if isinstance(left, ty.Array) and isinstance(right, ty.Array):
                joined = ty.join(left, right)
                if joined is not None:
                    return joined
                return fail()
            if left == right and left in (ty.INT, ty.DOUBLE):
                return left
            return fail()
        if op in ("-", "*", "/"):
            if left == right and left in (ty.INT, ty.DOUBLE):
                return left
            return fail()
        return fail()


_BAD_SHAPE = ty.Prim("<bad-shape>")


def _concrete_or_none(t: ty.Type | None) -> ty.Type | None:
    if t is None or ty.contains_var(t):
        return None
    return t


def shape_has_hole(expr: Expr) -> bool:
    if isinstance(expr, Hole):
        return True
    if isinstance(expr, TupleExpr):
        return any(shape_has_hole(i) for i in expr.items)
    return False


def _strip_udt(t: ty.Type) -> ty.Type:
    while isinstance(t, ty.Udt):
        t = t.base
    return t


def _block_returns(block: Block) -> bool:
    return any(_stmt_returns(s) for s in block.stmts)


def _stmt_returns(stmt: Stmt) -> bool:
    if isinstance(stmt, (ReturnStmt, FailStmt)):
        return True
    if isinstance(stmt, IfStmt):
        if stmt.else_block is None:
            return False
        return all(_block_returns(b) for _, b in stmt.branches) and _block_returns(
            stmt.else_block
        )
    return False
