"""Tree-walking interpreter with qubit ledger and simulator backend.

Each shot runs on a fresh interpreter: a qubit ledger handing out the lowest
free qubit id, a state-vector simulator, and a per-shot RNG. Invoking a
callable value peels its wrapper stack outermost-first, accumulating flattened
control registers and an adjoint parity bit, then dispatches the base symbol
to the matching specialization body (or intrinsic handler).

Failures raised by programs (fail statements, assertion violations, runtime
errors such as out-of-range indexing) surface as QdslFailure and carry a
source span when one is known.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import types as ty
from .ast_nodes import (
    AllocateStmt,
    ArrayExpr,
    BinaryExpr,
    Block,
    BoolLit,
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
    NamePattern,
    ParamLeaf,
    ParamTuple,
    Pattern,
    PauliKind,
    PauliLit,
    RangeExpr,
    RepeatStmt,
    ResultLit,
    ReturnStmt,
    SetStmt,
    SpecImpl,
    SpecKind,
    Stmt,
    StringLit,
    TupleExpr,
    TuplePattern,
    UnaryExpr,
)
from .checker import CallableSymbol, UdtSymbol
from .simulator import SimulationError, StateVectorSimulator
from .source import Span
from .values import (
    Closure,
    Pauli,
    QubitRef,
    RangeValue,
    Result,
    UNIT,
    fill_shape,
    render_value,
    wrap64,
)


class QdslFailure(Exception):
    def __init__(self, message: str, span: Optional[Span] = None, file: str = ""):
        super().__init__(message)
        self.message = message
        self.span = span
        self.file = file


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        self.value = value


@dataclass
class RunOptions:
    strict_release: bool = True
    elide_diagnostics: bool = False
    max_qubits: int = 24
    max_iterations: int = 1_000_000
    recursion_limit: int = 1000
    dump_state: bool = False  # snapshot before each outermost release


@dataclass
class RunStats:
    allocations: int = 0
    releases: int = 0
    peak_live: int = 0
    borrowed_existing: int = 0
    borrowed_fresh: int = 0
    gates: int = 0
    measurements: int = 0
    resets_on_release: int = 0


@dataclass
class ShotResult:
    value: Any
    messages: list[str]
    stats: RunStats
    state_dumps: list = field(default_factory=list)  # (qubit ids, amplitudes)


class QubitLedger:
    """Hands out qubit ids, lowest free id first, and tracks live qubits."""

    def __init__(self) -> None:
        self._free: list[int] = []
        self._next = 0
        self.live: set[int] = set()

    def allocate(self) -> int:
        qid = heapq.heappop(self._free) if self._free else self._bump()
        self.live.add(qid)
        return qid

    def _bump(self) -> int:
        qid = self._next
        self._next += 1
        return qid

    def release(self, qid: int) -> None:
        self.live.discard(qid)
        heapq.heappush(self._free, qid)


class Env:
    def __init__(self) -> None:
        self.scopes: list[dict[str, Any]] = []

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def bind(self, name: str, value: Any) -> None:
        self.scopes[-1][name] = value

    def lookup(self, name: str) -> Any:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        raise KeyError(name)

    def assign(self, name: str, value: Any) -> None:
        for scope in reversed(self.scopes):
            if name in scope:
                scope[name] = value
                return
        raise KeyError(name)


_PAULI_FROM_KIND = {
    PauliKind.I: Pauli.I,
    PauliKind.X: Pauli.X,
    PauliKind.Y: Pauli.Y,
    PauliKind.Z: Pauli.Z,
}


class Interpreter:
    def __init__(
        self,
        intrinsics: dict[str, Callable],
        options: RunOptions,
        rng: random.Random,
        trace: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.intrinsics = intrinsics
        self.options = options
        self.rng = rng
        self.simulator = StateVectorSimulator(capacity=options.max_qubits)
        self.ledger = QubitLedger()
        self.stats = RunStats()
        self.messages: list[str] = []
        self.state_dumps: list = []
        self._trace = trace
        self._depth = 0
        self._alloc_depth = 0

    # ── Entry points ─────────────────────────────────────────────────────

    def run(self, entry: CallableSymbol) -> Any:
        value = self.invoke(Closure(entry), UNIT)
        if self.ledger.live:
            leaked = ", ".join(f"q{q}" for q in sorted(self.ledger.live))
            raise QdslFailure(f"qubits leaked after the entry point: {leaked}")
        return value

    def fail(self, message: str, span: Optional[Span] = None, file: str = "") -> None:
        raise QdslFailure(message, span, file)

    def trace(self, line: str) -> None:
        if self._trace is not None:
            self._trace(line)

    # ── Invocation ───────────────────────────────────────────────────────

    def invoke(self, closure: Closure, arg: Any) -> Any:
        self._depth += 1
        if self._depth > self.options.recursion_limit:
            self._depth -= 1
            raise QdslFailure(
                f"call depth exceeded the limit of {self.options.recursion_limit}"
            )
        try:
            adjoint = False
            controls: list[QubitRef] = []
            current = arg
            for wrapper in closure.wrappers:
                kind = wrapper[0]
                if kind == "adjoint":
                    adjoint = not adjoint
                elif kind == "controlled":
                    register, current = current
                    controls.extend(register)
                else:
                    current = fill_shape(wrapper[1], current)
            return self._dispatch(closure.base, current, adjoint, controls)
        except RecursionError:
            raise QdslFailure("recursion limit exceeded") from None
        finally:
            self._depth -= 1

    def _dispatch(
        self, base: Any, arg: Any, adjoint: bool, controls: list[QubitRef]
    ) -> Any:
        if isinstance(base, UdtSymbol):
            return arg  # newtype values are represented by their base value
        assert isinstance(base, CallableSymbol)
        if (
            self.options.elide_diagnostics
            and not base.is_operation
            and ty.normalize(base.output) == ty.UNIT
        ):
            return UNIT
        if base.intrinsic is not None:
            handler = self.intrinsics[base.intrinsic]
            return handler(self, arg, adjoint, controls)
        return self._run_specialization(base, arg, adjoint, controls)

    def _run_specialization(
        self, sym: CallableSymbol, arg: Any, adjoint: bool, controls: list[QubitRef]
    ) -> Any:
        specs = sym.specializations
        ctl_value: Any = None
        if controls and adjoint:
            entry = specs.get(SpecKind.CONTROLLED_ADJOINT)
            if entry is not None and entry.impl is SpecImpl.SELF:
                entry = specs.get(SpecKind.CONTROLLED)
        elif controls:
            entry = specs.get(SpecKind.CONTROLLED)
        elif adjoint:
            entry = specs.get(SpecKind.ADJOINT)
            if entry is not None and entry.impl is SpecImpl.SELF:
                entry = specs.get(SpecKind.BODY)
        else:
            entry = specs.get(SpecKind.BODY)
        if entry is None or entry.block is None:
            raise QdslFailure(
                f"'{sym.qualified}' has no executable specialization for "
                f"adjoint={adjoint}, controlled={bool(controls)}"
            )
        if controls:
            ctl_value = list(controls)
        env = Env()
        env.push()
        try:
            if entry.ctl_param is not None:
                env.bind(entry.ctl_param, ctl_value)
            if sym.decl is not None:
                self._bind_params(sym.decl.params, arg, env)
            for stmt in entry.block.stmts:
                self._exec_stmt(stmt, env)
        except _ReturnSignal as signal:
            return signal.value
        finally:
            env.pop()
        return UNIT

    def _bind_params(self, params: ParamTuple, arg: Any, env: Env) -> None:
        items = params.items
        if len(items) == 1:
            self._bind_param_item(items[0], arg, env)
            return
        for item, value in zip(items, arg):
            self._bind_param_item(item, value, env)

    def _bind_param_item(self, item, value: Any, env: Env) -> None:
        if isinstance(item, ParamLeaf):
            env.bind(item.name, value)
        else:
            self._bind_params(item, value, env)

    # ── Statements ───────────────────────────────────────────────────────

    def _exec_block(self, block: Block, env: Env) -> None:
        env.push()
        try:
            for stmt in block.stmts:
                self._exec_stmt(stmt, env)
        finally:
            env.pop()

    def _exec_stmt(self, stmt: Stmt, env: Env) -> None:
        if isinstance(stmt, LetStmt):
            self._bind_pattern(stmt.pattern, self.eval(stmt.value, env), env)
        elif isinstance(stmt, MutableStmt):
            env.bind(stmt.name, self.eval(stmt.value, env))
        elif isinstance(stmt, SetStmt):
            env.assign(stmt.name, self.eval(stmt.value, env))
        elif isinstance(stmt, IfStmt):
            for cond, block in stmt.branches:
                if self.eval(cond, env):
                    self._exec_block(block, env)
                    return
            if stmt.else_block is not None:
                self._exec_block(stmt.else_block, env)
        elif isinstance(stmt, ForStmt):
            iterable = self.eval(stmt.iterable, env)
            for value in iterable:
                env.push()
                try:
                    env.bind(stmt.var, value)
                    for inner in stmt.body.stmts:
                        self._exec_stmt(inner, env)
                finally:
                    env.pop()
        elif isinstance(stmt, RepeatStmt):
            self._exec_repeat(stmt, env)
        elif isinstance(stmt, ReturnStmt):
            raise _ReturnSignal(self.eval(stmt.value, env))
        elif isinstance(stmt, FailStmt):
            message = self.eval(stmt.message, env)
            raise QdslFailure(str(message), stmt.span)
        elif isinstance(stmt, AllocateStmt):
            self._exec_allocate(stmt, env)
        elif isinstance(stmt, ExprStmt):
            self.eval(stmt.expr, env)
        else:
            raise TypeError(f"unknown statement {type(stmt).__name__}")

    def _exec_repeat(self, stmt: RepeatStmt, env: Env) -> None:
        iterations = 0
        while True:
            iterations += 1
            if iterations > self.options.max_iterations:
                raise QdslFailure(
                    f"repeat block exceeded {self.options.max_iterations} "
                    "iterations",
                    stmt.span,
                )
            env.push()
            try:
                # Bindings made in the body stay visible to the condition
                # and the fixup block.
                for inner in stmt.body.stmts:
                    self._exec_stmt(inner, env)
                if self.eval(stmt.condition, env):
                    return
                self._exec_block(stmt.fixup, env)
            finally:
                env.pop()

    def _exec_allocate(self, stmt: AllocateStmt, env: Env) -> None:
        count: Optional[int] = None
        if stmt.count is not None:
            count = self.eval(stmt.count, env)
            if count < 0:
                raise QdslFailure(
                    f"cannot allocate {count} qubits", stmt.count.span
                )
        n = 1 if count is None else count
        if stmt.borrowing:
            reachable = _reachable_qubits(env)
            candidates = sorted(self.ledger.live - reachable)[:n]
            fresh = [self._allocate_one(stmt.span) for _ in range(n - len(candidates))]
            refs = [QubitRef(q) for q in candidates] + fresh
            self.stats.borrowed_existing += len(candidates)
            self.stats.borrowed_fresh += len(fresh)
            if candidates or fresh:
                borrowed = " ".join(f"q{q}" for q in candidates) or "-"
                extra = "".join(f" +q{r.id}" for r in fresh)
                self.trace(f"borrow {borrowed}{extra}")
        else:
            fresh = [self._allocate_one(stmt.span) for _ in range(n)]
            refs = fresh
            if fresh:
                self.trace("allocate " + " ".join(f"q{r.id}" for r in fresh))
        value: Any = refs if count is not None else refs[0]
        env.push()
        self._alloc_depth += 1
        failed = False
        try:
            env.bind(stmt.name, value)
            for inner in stmt.body.stmts:
                self._exec_stmt(inner, env)
            if self.options.dump_state and self._alloc_depth == 1:
                ids, amplitudes = self.simulator.amplitudes()
                self.state_dumps.append((ids, amplitudes))
        except BaseException:
            failed = True
            raise
        finally:
            self._alloc_depth -= 1
            env.pop()
            self._release(fresh, stmt.span, strict=not failed)

    def _allocate_one(self, span: Span) -> QubitRef:
        qid = self.ledger.allocate()
        try:
            self.simulator.allocate(qid)
        except SimulationError as exc:
            self.ledger.release(qid)
            raise QdslFailure(str(exc), span) from None
        self.stats.allocations += 1
        self.stats.peak_live = max(self.stats.peak_live, len(self.ledger.live))
        return QubitRef(qid)

    def _release(self, refs: list[QubitRef], span: Span, strict: bool) -> None:
        for ref in refs:
            try:
                was_reset = self.simulator.release(
                    ref.id,
                    strict=strict and self.options.strict_release,
                    rng=self.rng,
                )
            except SimulationError as exc:
                self.ledger.release(ref.id)
                raise QdslFailure(str(exc), span) from None
            if was_reset:
                self.stats.resets_on_release += 1
            self.ledger.release(ref.id)
            self.stats.releases += 1
            self.trace(f"release q{ref.id}")

    def _bind_pattern(self, pattern: Pattern, value: Any, env: Env) -> None:
        if isinstance(pattern, NamePattern):
            env.bind(pattern.name, value)
            return
        assert isinstance(pattern, TuplePattern)
        for sub, item in zip(pattern.items, value):
            self._bind_pattern(sub, item, env)

    # ── Expressions ──────────────────────────────────────────────────────

    def eval(self, expr: Expr, env: Env) -> Any:
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, DoubleLit):
            return expr.value
        if isinstance(expr, BoolLit):
            return expr.value
        if isinstance(expr, StringLit):
            return expr.value
        if isinstance(expr, PauliLit):
            return _PAULI_FROM_KIND[expr.kind]
        if isinstance(expr, ResultLit):
            return Result.One if expr.one else Result.Zero
        if isinstance(expr, InterpString):
            return "".join(
                part if isinstance(part, str) else render_value(self.eval(part, env))
                for part in expr.parts
            )
        if isinstance(expr, Name):
            return self._eval_name(expr, env)
        if isinstance(expr, TupleExpr):
            return tuple(self.eval(item, env) for item in expr.items)
        if isinstance(expr, ArrayExpr):
            return [self.eval(item, env) for item in expr.items]
        if isinstance(expr, RangeExpr):
            return self._eval_range(expr, env)
        if isinstance(expr, IndexExpr):
            return self._eval_index(expr, env)
        if isinstance(expr, CallExpr):
            return self._eval_call(expr, env)
        if isinstance(expr, FunctorExpr):
            operand = self.eval(expr.operand, env)
            return operand.adjoint() if expr.functor == "Adjoint" else operand.controlled()
        if isinstance(expr, UnaryExpr):
            return self._eval_unary(expr, env)
        if isinstance(expr, BinaryExpr):
            return self._eval_binary(expr, env)
        if isinstance(expr, Hole):
            raise QdslFailure("'_' cannot be evaluated", expr.span)
        raise TypeError(f"unknown expression {type(expr).__name__}")

    def _eval_name(self, expr: Name, env: Env) -> Any:
        binding = expr.binding
        if binding is None:
            raise QdslFailure(f"unresolved name '{expr.name}'", expr.span)
        kind = binding[0]
        if kind == "local":
            return env.lookup(binding[1])
        return Closure(binding[1])

    def _eval_range(self, expr: RangeExpr, env: Env) -> RangeValue:
        start = self.eval(expr.start, env)
        step = self.eval(expr.step, env) if expr.step is not None else 1
        end = self.eval(expr.end, env)
        if step == 0:
            raise QdslFailure("a range step cannot be zero", expr.span)
        return RangeValue(start, step, end)

    def _eval_index(self, expr: IndexExpr, env: Env) -> Any:
        base = self.eval(expr.base, env)
        index = self.eval(expr.index, env)
        if isinstance(index, RangeValue):
            return [self._index_into(base, i, expr.span) for i in index]
        return self._index_into(base, index, expr.span)

    @staticmethod
    def _index_into(base: list, index: int, span: Span) -> Any:
        if not 0 <= index < len(base):
            raise QdslFailure(
                f"index {index} is out of range for an array of length "
                f"{len(base)}",
                span,
            )
        return base[index]

    def _eval_call(self, expr: CallExpr, env: Env) -> Any:
        callee = self.eval(expr.callee, env)
        if not isinstance(callee, Closure):
            raise QdslFailure("value is not callable", expr.span)
        if expr.is_partial:
            if len(expr.args) == 1:
                shape = self._build_shape(expr.args[0], env)
            else:
                shape = (
                    "tuple",
                    [self._build_shape(a, env) for a in expr.args],
                )
            return callee.partial(shape)
        if len(expr.args) == 0:
            arg: Any = UNIT
        elif len(expr.args) == 1:
            arg = self.eval(expr.args[0], env)
        else:
            arg = tuple(self.eval(a, env) for a in expr.args)
        try:
            return self.invoke(callee, arg)
        except QdslFailure as failure:
            if failure.span is None:
                failure.span = expr.span
            raise

    def _build_shape(self, expr: Expr, env: Env):
        if isinstance(expr, Hole):
            return ("hole",)
        if isinstance(expr, TupleExpr) and _contains_hole(expr):
            return ("tuple", [self._build_shape(i, env) for i in expr.items])
        return ("given", self.eval(expr, env))

    def _eval_unary(self, expr: UnaryExpr, env: Env) -> Any:
        value = self.eval(expr.operand, env)
        if expr.op == "-":
            return wrap64(-value) if isinstance(value, int) and not isinstance(value, bool) else -value
        if expr.op == "!":
            return not value
        if expr.op == "~":
            return wrap64(~value)
        raise TypeError(f"unknown unary operator {expr.op}")

    def _eval_binary(self, expr: BinaryExpr, env: Env) -> Any:
        op = expr.op
        if op == "&&":
            return bool(self.eval(expr.left, env)) and bool(self.eval(expr.right, env))
        if op == "||":
            return bool(self.eval(expr.left, env)) or bool(self.eval(expr.right, env))
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            if isinstance(left, list):
                return left + right
            if isinstance(left, float) or isinstance(right, float):
                return left + right
            return wrap64(left + right)
        if op == "-":
            if isinstance(left, float) or isinstance(right, float):
                return left - right
            return wrap64(left - right)
        if op == "*":
            if isinstance(left, float) or isinstance(right, float):
                return left * right
            return wrap64(left * right)
        if op == "/":
            if isinstance(left, float) or isinstance(right, float):
                if right == 0.0:
                    raise QdslFailure("division by zero", expr.span)
                return left / right
            return self._int_div(left, right, expr.span)
        if op == "%":
            if right == 0:
                raise QdslFailure("division by zero", expr.span)
            return wrap64(left - right * self._int_div(left, right, expr.span))
        if op == "<<":
            if right < 0:
                raise QdslFailure("negative shift count", expr.span)
            return 0 if right >= 64 else wrap64(left << right)
        if op == ">>":
            if right < 0:
                raise QdslFailure("negative shift count", expr.span)
            return wrap64(left >> min(right, 63))
        if op == "&":
            return wrap64(left & right)
        if op == "|":
            return wrap64(left | right)
        if op == "^":
            return wrap64(left ^ right)
        raise TypeError(f"unknown binary operator {op}")

    def _int_div(self, a: int, b: int, span: Span) -> int:
        if b == 0:
            raise QdslFailure("division by zero", span)
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return wrap64(q)

    # ── Helpers used by intrinsic handlers ───────────────────────────────

    def apply_gate(
        self,
        display: str,
        matrix,
        target: QubitRef,
        adjoint: bool,
        controls: list[QubitRef],
    ) -> None:
        """Apply `matrix` as given; `adjoint` only labels the trace line."""
        try:
            self.simulator.apply(matrix, target.id, [c.id for c in controls])
        except SimulationError as exc:
            raise QdslFailure(str(exc)) from None
        self.stats.gates += 1
        suffix = f" ctl[{' '.join(f'q{c.id}' for c in controls)}]" if controls else ""
        prefix = "Adjoint " if adjoint else ""
        self.trace(f"gate {prefix}{display} q{target.id}{suffix}")


def _contains_hole(expr: Expr) -> bool:
    if isinstance(expr, Hole):
        return True
    if isinstance(expr, TupleExpr):
        return any(_contains_hole(i) for i in expr.items)
    return False


def _reachable_qubits(env: Env) -> set[int]:
    """Qubit ids reachable from any binding in the current frame."""
    out: set[int] = set()
    for scope in env.scopes:
        for value in scope.values():
            _collect_qubits(value, out)
    return out


def _collect_qubits(value: Any, out: set[int]) -> None:
    if isinstance(value, QubitRef):
        out.add(value.id)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect_qubits(item, out)
    elif isinstance(value, Closure):
        for wrapper in value.wrappers:
            if wrapper[0] == "partial":
                _collect_shape_qubits(wrapper[1], out)


def _collect_shape_qubits(shape, out: set[int]) -> None:
    if shape[0] == "given":
        _collect_qubits(shape[1], out)
    elif shape[0] == "tuple":
        for child in shape[1]:
            _collect_shape_qubits(child, out)


# ── Shot driver ──────────────────────────────────────────────────────────────


def run_shots(
    intrinsics: dict[str, Callable],
    entry: CallableSymbol,
    shots: int,
    seed: Optional[int],
    options: RunOptions,
    trace: Optional[Callable[[int, str], None]] = None,
) -> list[ShotResult]:
    results = []
    for shot in range(shots):
        rng = random.Random(seed ^ shot) if seed is not None else random.Random()
        shot_trace = (lambda line, s=shot: trace(s, line)) if trace else None
        interp = Interpreter(intrinsics, options, rng, shot_trace)
        value = interp.run(entry)
        results.append(
            ShotResult(value, interp.messages, interp.stats, interp.state_dumps)
        )
    return results
