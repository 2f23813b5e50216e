"""Closure-compiled runtime with qubit ledger and simulator backend.

Each shot runs on a fresh interpreter: a qubit ledger handing out the lowest
free qubit id, a state-vector simulator, and a per-shot RNG. `run_shots`
wraps the simulator in a stand-in from the entry point's `ShotPrefix`, which
skips an earlier shot's simulator work while the outcomes are that shot's.
The handlers call it directly, and it checks their arguments. Invoking a
callable value peels its wrapper stack outermost-first, accumulating flattened
control registers and an adjoint parity bit, then dispatches the base symbol
to the matching specialization body (or intrinsic handler).

A specialization body is compiled on its first invocation into closures
``(interp, frame) -> value`` (Feeley & Lapalme 1987) cached on its
``SpecEntry``. Locals live in one frame slot per binding site. A statement
returns None to fall through, or the value of a ``return``. What the AST
settles is bound then: a global callee under any functors is one constant
``Closure``, and an operator or index reads a local operand from its slot in
place. Compiled code reads ``interp.options`` at run time, and every call
still enters through ``interp.invoke``.

Failures raised by programs (fail statements, assertion violations, runtime
errors such as out-of-range indexing, simulator checks) surface as QdslFailure
with their own span, or else that of the call or qubit block they leave.
"""

from __future__ import annotations

import functools
import heapq
import operator
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .ast_nodes import (
    Block,
    Expr,
    FunctorExpr,
    Hole,
    Name,
    NamePattern,
    ParamLeaf,
    ParamTuple,
    SpecKind,
    Stmt,
    TupleExpr,
)
from .checker import CallableSymbol, UdtSymbol, shape_has_hole
from .simulator import DEFAULT_CAPACITY, ShotPrefix, StateVectorSimulator
from .source import Span
from .values import (
    Closure,
    QdslFailure,
    QubitRef,
    RangeValue,
    Result,
    UNIT,
    fill_shape,
    render_value,
    wrap64,
)


@dataclass
class RunOptions:
    strict_release: bool = True
    elide_diagnostics: bool = False
    max_qubits: int = DEFAULT_CAPACITY
    max_iterations: int = 1_000_000  # per repeat or for loop
    recursion_limit: int = 1000  # qdsl call depth
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
        self.trace = trace  # called with each event line, or None
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

    # ── Invocation ───────────────────────────────────────────────────────

    def invoke(self, closure: Closure, arg: Any) -> Any:
        limit = self.options.recursion_limit
        if self._depth >= limit:
            raise QdslFailure(f"call depth exceeded the limit of {limit}")
        self._depth += 1
        try:
            adjoint = False
            controls: list[QubitRef] = []
            for wrapper in closure.wrappers:
                kind = wrapper[0]
                if kind == "adjoint":
                    adjoint = not adjoint
                elif kind == "controlled":
                    register, arg = arg
                    controls.extend(register)
                else:
                    arg = fill_shape(wrapper[1], arg)
            base = closure.base
            if base.__class__ is UdtSymbol:
                return arg  # newtype values are represented by their base value
            if self.options.elide_diagnostics and base.is_diagnostic:
                return UNIT
            if base.intrinsic is not None:
                return self.intrinsics[base.intrinsic](self, arg, adjoint, controls)
            return _specialization(base, adjoint, controls)(self, arg, controls)
        except RecursionError:
            raise QdslFailure("recursion limit exceeded") from None
        finally:
            self._depth -= 1

    # ── Qubit blocks ─────────────────────────────────────────────────────

    def _borrow(self, n: int, visible: list) -> tuple[list[QubitRef], list[QubitRef]]:
        """Live qubits no visible binding reaches, topped up with fresh ones."""
        reachable: set[int] = set()
        for value in visible:
            _collect_qubits(value, reachable)
        candidates = sorted(self.ledger.live - reachable)[:n]
        fresh = [self._allocate_one() for _ in range(n - len(candidates))]
        self.stats.borrowed_existing += len(candidates)
        self.stats.borrowed_fresh += len(fresh)
        if self.trace is not None and (candidates or fresh):
            borrowed = " ".join(f"q{q}" for q in candidates) or "-"
            extra = "".join(f" +q{r.id}" for r in fresh)
            self.trace(f"borrow {borrowed}{extra}")
        return [QubitRef(q) for q in candidates] + fresh, fresh

    def _hold(self, fresh: list[QubitRef], body: Callable, frame: list):
        """Run a qubit block's body, then release the qubits it allocated."""
        self._alloc_depth += 1
        try:
            value = body(self, frame)
            if self.options.dump_state and self._alloc_depth == 1:
                self.state_dumps.append(self.simulator.amplitudes())
        except BaseException:
            self._alloc_depth -= 1
            self._release(fresh, strict=False)
            raise
        self._alloc_depth -= 1
        self._release(fresh, strict=True)
        return value

    def _allocate_one(self) -> QubitRef:
        qid = self.ledger.allocate()
        self.simulator.allocate(qid)
        self.stats.allocations += 1
        self.stats.peak_live = max(self.stats.peak_live, len(self.ledger.live))
        return QubitRef(qid)

    def _release(self, refs: list[QubitRef], strict: bool) -> None:
        for ref in refs:
            was_reset = self.simulator.release(
                ref.id,
                strict=strict and self.options.strict_release,
                rng=self.rng,
            )
            if was_reset:
                self.stats.resets_on_release += 1
            self.ledger.release(ref.id)
            self.stats.releases += 1
            if self.trace is not None:
                self.trace(f"release q{ref.id}")

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
        self.simulator.apply(matrix, target.id, [c.id for c in controls])
        self.stats.gates += 1
        if self.trace is not None:
            ctl = " ".join(f"q{c.id}" for c in controls)
            suffix = f" ctl[{ctl}]" if controls else ""
            prefix = "Adjoint " if adjoint else ""
            self.trace(f"gate {prefix}{display} q{target.id}{suffix}")


_SPEC_KINDS = (
    (SpecKind.BODY, SpecKind.ADJOINT),
    (SpecKind.CONTROLLED, SpecKind.CONTROLLED_ADJOINT),
)


def _specialization(
    sym: CallableSymbol, adjoint: bool, controls: list[QubitRef]
) -> Callable:
    """The compiled body for this functor combination, compiled on first use."""
    entry = sym.specializations.get(_SPEC_KINDS[bool(controls)][adjoint])
    if entry is None:
        raise QdslFailure(
            f"'{sym.qualified}' has no executable specialization for "
            f"adjoint={adjoint}, controlled={bool(controls)}"
        )
    if entry.compiled is None:
        entry.compiled = _Compiler().specialization(sym, entry)
    return entry.compiled


def _collect_qubits(value: Any, out: set[int]) -> None:
    if isinstance(value, QubitRef):
        out.add(value.id)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect_qubits(item, out)
    elif isinstance(value, Closure):
        _collect_qubits(value.wrappers, out)  # values given to partial applications


# ── Closure compiler ─────────────────────────────────────────────────────────

Code = Callable[[Interpreter, list], Any]
Operand = int | Code  # a local's frame slot, read in place, or an expression's code
_INT64 = range(-(1 << 63), 1 << 63)


def _const(value: Any) -> Code:
    return lambda interp, frame: value


def _tuple(items: list[Code]) -> Code:
    if len(items) == 2:
        a, b = items
        return lambda interp, frame: (a(interp, frame), b(interp, frame))
    if len(items) == 3:
        a, b, c = items
        return lambda i, frame: (a(i, frame), b(i, frame), c(i, frame))
    return lambda interp, frame: tuple([item(interp, frame) for item in items])


def _binary(op: Callable, left: Operand, right: Operand) -> Code:
    """`op` on two operands, with an Int result wrapped to 64 bits.

    The checker allows `+`, `-` and `*` only on Int with Int, Double with
    Double or array with array, so an `int` result is an Int, and only one
    outside 64 bits needs `wrap64`. A comparison gives a `bool`.
    """
    if left.__class__ is int and right.__class__ is int:
        def binary(interp, frame):
            v = op(frame[left], frame[right])
            return v if v.__class__ is not int or v in _INT64 else wrap64(v)
    elif left.__class__ is int:
        def binary(interp, frame):
            v = op(frame[left], right(interp, frame))
            return v if v.__class__ is not int or v in _INT64 else wrap64(v)
    elif right.__class__ is int:
        def binary(interp, frame):
            v = op(left(interp, frame), frame[right])
            return v if v.__class__ is not int or v in _INT64 else wrap64(v)
    else:
        def binary(interp, frame):
            v = op(left(interp, frame), right(interp, frame))
            return v if v.__class__ is not int or v in _INT64 else wrap64(v)
    return binary


def _store(slot: int, value: Code) -> Code:
    def store(interp, frame):
        frame[slot] = value(interp, frame)
    return store


class _Compiler:
    """Compiles one specialization body into closures over a slot frame.

    There is one method per AST node class, named after it. Every binding
    site gets its own frame slot, and the scope stack maps the names in scope
    to their slots the way the checker scopes them, so a slot of a finished
    block is never read.
    """

    def __init__(self) -> None:
        self.scopes: list[dict[str, int]] = [{}]
        self.size = 0

    def specialization(self, sym: CallableSymbol, entry) -> Callable:
        ctl_slot = None if entry.ctl_param is None else self._define(entry.ctl_param)
        bind = None if sym.decl is None else self._binder(sym.decl.params)
        body = self._sequence(entry.block.stmts)
        size = self.size

        def run(interp: Interpreter, arg: Any, controls: list[QubitRef]) -> Any:
            frame = [None] * size
            if ctl_slot is not None:
                frame[ctl_slot] = list(controls)
            if bind is not None:
                bind(frame, arg)
            value = body(interp, frame)
            return UNIT if value is None else value
        return run

    def _define(self, name: str) -> int:
        slot = self.size
        self.size += 1
        self.scopes[-1][name] = slot
        return slot

    def _lookup(self, name: str) -> int:
        return next(scope[name] for scope in reversed(self.scopes) if name in scope)

    def _binder(self, node) -> Callable[[list, Any], None]:
        """Stores a value into the slots of a pattern or parameter tuple."""
        if isinstance(node, (NamePattern, ParamLeaf)):
            slot = self._define(node.name)
            return lambda frame, value: operator.setitem(frame, slot, value)
        if isinstance(node, ParamTuple) and len(node.items) == 1:
            return self._binder(node.items[0])  # takes the whole argument
        parts = [self._binder(item) for item in node.items]

        def bind_all(frame, value):
            for part, item in zip(parts, value):
                part(frame, item)
        return bind_all

    # ── Statements ───────────────────────────────────────────────────────

    def _compile(self, node) -> Code:
        return getattr(self, "_" + type(node).__name__)(node)

    def _block(self, block: Block) -> Code:
        self.scopes.append({})
        code = self._sequence(block.stmts)
        self.scopes.pop()
        return code

    def _sequence(self, stmts: list[Stmt]) -> Code:
        codes = [self._compile(stmt) for stmt in stmts]
        if len(codes) == 1:
            return codes[0]

        def sequence(interp, frame):
            for code in codes:
                if (value := code(interp, frame)) is not None:
                    return value
        return sequence

    def _LetStmt(self, stmt) -> Code:
        value = self._compile(stmt.value)
        if isinstance(stmt.pattern, NamePattern):
            return _store(self._define(stmt.pattern.name), value)
        bind = self._binder(stmt.pattern)
        return lambda interp, frame: bind(frame, value(interp, frame))

    def _MutableStmt(self, stmt) -> Code:
        value = self._compile(stmt.value)
        return _store(self._define(stmt.name), value)

    def _SetStmt(self, stmt) -> Code:
        return _store(self._lookup(stmt.name), self._compile(stmt.value))

    def _IfStmt(self, stmt) -> Code:
        branches = [(self._compile(c), self._block(b)) for c, b in stmt.branches]
        orelse = None if stmt.else_block is None else self._block(stmt.else_block)

        def if_(interp, frame):
            for condition, block in branches:
                if condition(interp, frame):
                    return block(interp, frame)
            if orelse is not None:
                return orelse(interp, frame)
        return if_

    def _ForStmt(self, stmt) -> Code:
        iterable = self._compile(stmt.iterable)
        self.scopes.append({})
        slot = self._define(stmt.var)
        body = self._sequence(stmt.body.stmts)
        self.scopes.pop()
        span = stmt.span

        def for_(interp, frame):
            limit = interp.options.max_iterations
            items = iter(iterable(interp, frame))
            for _, item in zip(range(limit), items):
                frame[slot] = item
                if (value := body(interp, frame)) is not None:
                    return value
            if next(items, None) is not None:
                raise QdslFailure(f"for loop exceeded {limit} iterations", span)
        return for_

    def _RepeatStmt(self, stmt) -> Code:
        # Bindings made in the body stay visible to the condition and fixup.
        self.scopes.append({})
        body = self._sequence(stmt.body.stmts)
        condition = self._compile(stmt.condition)
        fixup = self._block(stmt.fixup)
        self.scopes.pop()
        span = stmt.span

        def repeat(interp, frame):
            limit = interp.options.max_iterations
            for _ in range(limit):
                if (value := body(interp, frame)) is not None:
                    return value
                if condition(interp, frame):
                    return None
                if (value := fixup(interp, frame)) is not None:
                    return value
            raise QdslFailure(f"repeat block exceeded {limit} iterations", span)
        return repeat

    def _ReturnStmt(self, stmt) -> Code:
        # An expression never evaluates to None, so it is its own return.
        return self._compile(stmt.value)

    def _FailStmt(self, stmt) -> Code:
        message, span = self._compile(stmt.message), stmt.span
        return lambda interp, frame: interp.fail(str(message(interp, frame)), span)

    def _ExprStmt(self, stmt) -> Code:
        expr = self._compile(stmt.expr)

        def discard(interp, frame):
            expr(interp, frame)
        return discard

    def _AllocateStmt(self, stmt) -> Code:
        count = None if stmt.count is None else self._compile(stmt.count)
        # Borrowing skips the qubits reachable from the bindings in scope here.
        visible = [slot for scope in self.scopes for slot in scope.values()]
        self.scopes.append({})
        slot = self._define(stmt.name)
        body = self._sequence(stmt.body.stmts)
        self.scopes.pop()
        span, borrowing = stmt.span, stmt.borrowing
        count_span = None if stmt.count is None else stmt.count.span

        def allocate(interp, frame):
            n = 1
            if count is not None:
                n = count(interp, frame)
                if n < 0:
                    raise QdslFailure(f"cannot allocate {n} qubits", count_span)
            try:
                if borrowing:
                    refs, fresh = interp._borrow(n, [frame[s] for s in visible])
                else:
                    refs = fresh = [interp._allocate_one() for _ in range(n)]
                    if fresh and interp.trace is not None:
                        interp.trace("allocate " + " ".join(f"q{r.id}" for r in fresh))
                frame[slot] = refs if count is not None else refs[0]
                return interp._hold(fresh, body, frame)
            except QdslFailure as failure:  # from an allocation or a release
                if failure.span is None:
                    failure.span = span
                raise
        return allocate

    # ── Expressions ──────────────────────────────────────────────────────

    def _operand(self, expr: Expr) -> Operand:
        if isinstance(expr, Name) and expr.binding and expr.binding[0] == "local":
            return self._lookup(expr.binding[1])
        return self._compile(expr)

    def _static(self, expr: Expr) -> Optional[Closure]:
        """The one value of a global name under any stack of functors."""
        if isinstance(expr, FunctorExpr):
            operand = self._static(expr.operand)
            if operand is not None:
                return operand.adjoint() if expr.functor == "Adjoint" else operand.controlled()
        elif isinstance(expr, Name) and expr.binding and expr.binding[0] != "local":
            return Closure(expr.binding[1])
        return None

    def _literal(self, expr) -> Code:
        return _const(expr.value)

    _IntLit = _DoubleLit = _BoolLit = _StringLit = _literal

    def _PauliLit(self, expr) -> Code:
        return _const(expr.kind)

    def _ResultLit(self, expr) -> Code:
        return _const(Result.One if expr.one else Result.Zero)

    def _InterpString(self, expr) -> Code:
        parts = [_const(p) if isinstance(p, str) else self._compile(p) for p in expr.parts]
        return lambda interp, frame: "".join([render_value(p(interp, frame)) for p in parts])

    def _Name(self, expr) -> Code:
        binding = expr.binding
        if binding is None:
            message, span = f"unresolved name '{expr.name}'", expr.span
            return lambda interp, frame: interp.fail(message, span)
        if binding[0] == "local":
            slot = self._lookup(binding[1])
            return lambda interp, frame: frame[slot]
        return _const(Closure(binding[1]))

    def _Hole(self, expr) -> Code:
        span = expr.span
        return lambda interp, frame: interp.fail("'_' cannot be evaluated", span)

    def _TupleExpr(self, expr) -> Code:
        return _tuple([self._compile(item) for item in expr.items])

    def _ArrayExpr(self, expr) -> Code:
        items = [self._compile(item) for item in expr.items]
        if len(items) == 1:
            item = items[0]
            return lambda interp, frame: [item(interp, frame)]
        return lambda interp, frame: [item(interp, frame) for item in items]

    def _RangeExpr(self, expr) -> Code:
        start, end, span = self._compile(expr.start), self._compile(expr.end), expr.span
        step = _const(1) if expr.step is None else self._compile(expr.step)

        def range_(interp, frame):
            first, by, last = start(interp, frame), step(interp, frame), end(interp, frame)
            if by == 0:
                raise QdslFailure("a range step cannot be zero", span)
            return RangeValue(first, by, last)
        return range_

    def _IndexExpr(self, expr) -> Code:
        base, span = self._operand(expr.base), expr.span
        if base.__class__ is not int:
            index = self._compile(expr.index)
            return lambda interp, frame: _index(base(interp, frame), index(interp, frame), span)
        # The array is a local: an Int index in range is read in place.
        index = self._operand(expr.index)
        if index.__class__ is int:
            def index_(interp, frame):
                array, at = frame[base], frame[index]
                if at.__class__ is int and 0 <= at < len(array):
                    return array[at]
                return _index(array, at, span)
        else:
            def index_(interp, frame):
                array, at = frame[base], index(interp, frame)
                if at.__class__ is int and 0 <= at < len(array):
                    return array[at]
                return _index(array, at, span)
        return index_

    def _CallExpr(self, expr) -> Code:
        callee, span = self._compile(expr.callee), expr.span
        if expr.is_partial:
            args = expr.args
            shape = self._shape(args[0] if len(args) == 1 else TupleExpr(span, items=args))

            def partial(interp, frame):
                return _callable(callee(interp, frame), span).partial(shape(interp, frame))
            return partial
        args = [self._compile(a) for a in expr.args]
        arg = _tuple(args) if len(args) > 1 else args[0] if args else _const(UNIT)
        static = self._static(expr.callee)

        def call(interp, frame):
            target = static or _callable(callee(interp, frame), span)
            value = arg(interp, frame)
            try:
                return interp.invoke(target, value)
            except QdslFailure as failure:
                if failure.span is None:
                    failure.span = span
                raise
        return call

    def _shape(self, expr: Expr) -> Code:
        """Partial-application shape of an argument, with given values evaluated."""
        if isinstance(expr, Hole):
            return _const(("hole",))
        if isinstance(expr, TupleExpr) and shape_has_hole(expr):
            items = [self._shape(item) for item in expr.items]
            return lambda interp, frame: ("tuple", [i(interp, frame) for i in items])
        value = self._compile(expr)
        return lambda interp, frame: ("given", value(interp, frame))

    def _FunctorExpr(self, expr) -> Code:
        static = self._static(expr)
        if static is not None:
            return _const(static)
        operand = self._compile(expr.operand)
        if expr.functor == "Adjoint":
            return lambda interp, frame: operand(interp, frame).adjoint()
        return lambda interp, frame: operand(interp, frame).controlled()

    def _UnaryExpr(self, expr) -> Code:
        operand, apply = self._compile(expr.operand), _UNARY[expr.op]
        return lambda interp, frame: apply(operand(interp, frame))

    def _BinaryExpr(self, expr) -> Code:
        op = expr.op
        if op in ("&&", "||"):
            left, right = self._compile(expr.left), self._compile(expr.right)
            if op == "&&":
                return lambda interp, frame: left(interp, frame) and right(interp, frame)
            return lambda interp, frame: left(interp, frame) or right(interp, frame)
        apply = _OPERATORS.get(op) or functools.partial(_CHECKED[op], span=expr.span)
        return _binary(apply, self._operand(expr.left), self._operand(expr.right))


def _callable(value: Any, span: Span) -> Closure:
    if not isinstance(value, Closure):
        raise QdslFailure("value is not callable", span)
    return value


def _index(array: list, at: Any, span: Span) -> Any:
    """`array[at]` for an Int or a Range `at`, failing on an index out of range."""
    if isinstance(at, RangeValue):
        return [_index(array, i, span) for i in at]
    if not 0 <= at < len(array):
        raise QdslFailure(
            f"index {at} is out of range for an array of length {len(array)}", span
        )
    return array[at]


# ── Operators ────────────────────────────────────────────────────────────────


def _int_div(a: int, b: int, span: Span) -> int:
    if b == 0:
        raise QdslFailure("division by zero", span)
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return wrap64(q)


def _divide(left, right, span):
    if isinstance(left, float) or isinstance(right, float):
        if right == 0.0:
            raise QdslFailure("division by zero", span)
        return left / right
    return _int_div(left, right, span)


def _shift(count: int, span: Span) -> int:
    if count < 0:
        raise QdslFailure("negative shift count", span)
    return count


_UNARY = {
    "-": lambda v: -v if isinstance(v, float) else wrap64(-v),
    "!": operator.not_,
    "~": lambda v: wrap64(~v),
}
_OPERATORS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge,
              "+": operator.add, "-": operator.sub, "*": operator.mul}
_CHECKED = {  # operators that can fail, at the expression's span
    "/": _divide,
    "%": lambda a, b, span: wrap64(a - b * _int_div(a, b, span)),
    "<<": lambda a, b, span: 0 if _shift(b, span) >= 64 else wrap64(a << b),
    ">>": lambda a, b, span: wrap64(a >> min(_shift(b, span), 63)),
    "&": lambda a, b, span: wrap64(a & b),
    "|": lambda a, b, span: wrap64(a | b),
    "^": lambda a, b, span: wrap64(a ^ b),
}


# ── Shot driver ──────────────────────────────────────────────────────────────

# Python frames one qdsl call may use (call, invoke, body, statements and the
# expressions around it), and a ceiling for Python's recursion limit.
_FRAMES_PER_CALL = 16
_MAX_PYTHON_DEPTH = 200_000


def run_shots(
    intrinsics: dict[str, Callable],
    entry: CallableSymbol,
    shots: int,
    seed: Optional[int],
    options: RunOptions,
    trace: Optional[Callable[[int, str], None]] = None,
) -> list[ShotResult]:
    # Python's recursion limit is raised for the run so that the qdsl call
    # depth limit, not Python's, is the one a recursive program meets.
    previous = sys.getrecursionlimit()
    needed = previous + options.recursion_limit * _FRAMES_PER_CALL
    sys.setrecursionlimit(max(previous, min(needed, _MAX_PYTHON_DEPTH)))
    if entry.shot_prefix is None:
        entry.shot_prefix = ShotPrefix()
    try:
        results = []
        for shot in range(shots):
            rng = random.Random(seed ^ shot) if seed is not None else random.Random()
            shot_trace = (lambda line, s=shot: trace(s, line)) if trace else None
            interp = Interpreter(intrinsics, options, rng, shot_trace)
            interp.simulator = prefix = entry.shot_prefix.stand_in(interp.simulator)
            value = interp.run(entry)
            prefix.commit()
            results.append(
                ShotResult(value, interp.messages, interp.stats, interp.state_dumps)
            )
        return results
    finally:
        sys.setrecursionlimit(previous)
