"""Compiled runtime with qubit ledger and simulator backend.

Each shot runs on a fresh interpreter: a qubit ledger handing out the lowest
free qubit id and failing the use of a released qubit's reference, a
state-vector simulator, and a per-shot RNG. `run_shots`
wraps the simulator in a stand-in from the entry point's `ShotPrefix`, which
skips an earlier shot's simulator work while the outcomes are that shot's.
The interpreter calls it directly, and it checks the arguments. Invoking a
callable value peels its wrapper stack outermost-first, accumulating flattened
control registers and an adjoint parity bit, then dispatches the base symbol
to the matching specialization body (or intrinsic handler).

A specialization body is compiled on its first invocation to Python source,
run once and cached on its ``SpecEntry``. A block is emitted in place, as
an indented suite, while the source is at most six levels deep; a deeper
block, a qubit block and the right operand of ``&&``/``||`` are functions of
their own, which return None to fall through or the value of a ``return``.
Locals live in one frame slot per binding site, and the functions of one
call share its frame. Every operand is a constant, a slot or a temporary,
so no function of the source nests deeper than a few levels, and Python's
limits on nested blocks, indentation and parentheses are never qdsl's. A
global callee under any functors is one constant ``Closure``. Program values
and text reach the source only as names of its namespace. Compiled code
reads ``interp.options`` at run time, and every call still enters through
``interp.invoke``.

A run may use 200,000 Python frames (`compiler.recursion_budget`), so a
recursive program meets the qdsl call-depth limit. An array `+` or a string
interpolation fails before it builds a value too long for the memory budget,
and a run fails once what it keeps until printing passes half that budget.

Failures raised by programs (fail statements, assertion violations, runtime
errors such as out-of-range indexing, simulator checks) surface as QdslFailure,
with the span of the innermost emitted line they leave and that body's file.
Emitted code holds no handler: as a failure with no span leaves a call,
`Interpreter.invoke` walks its traceback once and takes the innermost frame
compiled from ``<qdsl>`` whose line is in its module's ``SPANS``, and that
module's ``FILE``.
"""

from __future__ import annotations

import heapq
import io
import itertools
import random
import sys
from typing import Any, Callable, Optional

from . import simulator
from . import types as ty
from .ast_nodes import (
    Expr,
    FunctorExpr,
    Hole,
    Name,
    NamePattern,
    Node,
    ParamLeaf,
    SpecKind,
    Stmt,
    TupleExpr,
)
from .checker import CallableSymbol, UdtSymbol, shape_has_hole
from .compiler import recursion_budget
from .simulator import DEFAULT_CAPACITY, ShotPrefix, StateVectorSimulator
from .slots import Slotted
from .values import (
    Closure,
    QdslFailure,
    QubitRef,
    RangeValue,
    Result,
    UNIT,
    fill_shape,
    render_pieces,
    wrap64,
)


# Python frames a run may use. A qdsl call takes a few, more inside qubit
# blocks and deep blocks, so this bounds any useful `recursion_limit`.
_MAX_PYTHON_DEPTH = 200_000

_RESULTS = (Result.Zero, Result.One)  # by outcome, past enum's slow descriptors


class RunOptions(Slotted):
    __slots__ = (
        "strict_release", "elide_diagnostics", "max_qubits", "max_iterations",
        "recursion_limit", "dump_state",
    )
    # max_iterations: per repeat or for loop; recursion_limit: the qdsl call
    # depth; dump_state: a snapshot before each outermost release
    _defaults = {
        "strict_release": True, "elide_diagnostics": False, "max_qubits": DEFAULT_CAPACITY,
        "max_iterations": 1_000_000, "recursion_limit": 1000, "dump_state": False,
    }


class RunStats(Slotted):
    """One shot's counts, each 0 in a new one; equal when every count is."""

    __slots__ = (
        "allocations", "releases", "peak_live", "borrowed_existing", "borrowed_fresh",
        "gates", "measurements", "resets_on_release",
    )
    _initial = dict.fromkeys(__slots__, "0")
    _key = __slots__
    __hash__ = None  # type: ignore[assignment]  # unhashable: the counts change

    def __repr__(self) -> str:  # for test failure output
        return f"RunStats{tuple(getattr(self, name) for name in self._key)}"


class ShotResult:
    __slots__ = ("value", "messages", "stats", "state_dumps")

    def __init__(
        self,
        value: Any,
        messages: list[str],
        stats: RunStats,
        state_dumps: Optional[list] = None,  # (qubit ids, amplitudes)
    ) -> None:
        self.value, self.messages, self.stats = value, messages, stats
        self.state_dumps = [] if state_dumps is None else state_dumps


class QubitLedger:
    """Hands out qubit ids, lowest free id first, and owns the one reference
    to each live qubit. A reference kept past its qubit's release is stale,
    even once its id is handed out again."""

    def __init__(self) -> None:
        self._free: list[int] = []
        self.live: dict[int, QubitRef] = {}

    def allocate(self) -> int:
        # With no id free, the ids below len(live) are all live.
        qid = heapq.heappop(self._free) if self._free else len(self.live)
        self.live[qid] = QubitRef(qid)
        return qid

    def release(self, qid: int) -> None:
        del self.live[qid]
        heapq.heappush(self._free, qid)

    def ids(self, refs) -> list[int]:
        """The ids of `refs`, failing on a reference to a released qubit."""
        live, ids = self.live, []
        for ref in refs:
            if live.get(ref.id) is not ref:
                raise _released(ref)
            ids.append(ref.id)
        return ids


def _released(ref: QubitRef) -> QdslFailure:
    return QdslFailure(f"qubit {ref!r} was used after its release")


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
        self.kept = 0  # bytes of output kept until printing, charged by `keep`
        self._depth = 0
        self._alloc_depth = 0

    # ── Entry points ─────────────────────────────────────────────────────

    @recursion_budget(_MAX_PYTHON_DEPTH)
    def run(self, entry: CallableSymbol) -> Any:
        value = self.invoke(Closure(entry), UNIT)
        if self.ledger.live:
            leaked = ", ".join(f"q{q}" for q in sorted(self.ledger.live))
            raise QdslFailure(f"qubits leaked after the entry point: {leaked}")
        return value

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
        except QdslFailure as failure:
            # The innermost emitted line in its module's SPANS that the failure left.
            tb = failure.__traceback__ if failure.span is None else None
            while tb is not None:
                names = tb.tb_frame.f_globals
                if tb.tb_frame.f_code.co_filename == "<qdsl>" and tb.tb_lineno in names["SPANS"]:
                    failure.span, failure.file = names["SPANS"][tb.tb_lineno], names["FILE"]
                tb = tb.tb_next
            raise
        except RecursionError:
            raise QdslFailure("recursion limit exceeded") from None
        finally:
            self._depth -= 1

    # ── Qubit blocks ─────────────────────────────────────────────────────

    def _borrow(self, n: int, visible: list) -> tuple[list[QubitRef], list[QubitRef]]:
        """Live qubits no visible binding reaches, topped up with fresh ones."""
        reachable: set[int] = set()
        for value in visible:
            _collect_qubits(value, reachable, self.ledger.live)
        candidates = sorted(self.ledger.live.keys() - reachable)[:n]
        fresh = [self._allocate_one() for _ in range(n - len(candidates))]
        self.stats.borrowed_existing += len(candidates)
        self.stats.borrowed_fresh += len(fresh)
        if self.trace is not None and (candidates or fresh):
            borrowed = " ".join(f"q{q}" for q in candidates) or "-"
            extra = "".join(f" +q{r.id}" for r in fresh)
            self._event(f"borrow {borrowed}{extra}")
        return [self.ledger.live[q] for q in candidates] + fresh, fresh

    def _hold(self, fresh: list[QubitRef], body: Callable, frame: list) -> None:
        """Run a qubit block's body, then release the qubits it allocated. The
        body returns nothing: the checker rejects a `return` inside the block."""
        self._alloc_depth += 1
        try:
            body(self, frame)
            if self.options.dump_state and self._alloc_depth == 1:
                dump = self.simulator.amplitudes()
                # Its slot, and the amplitudes' data and base array.
                self.keep("state dump", dump, 136 + dump[1].nbytes)
                self.state_dumps.append(dump)
        except BaseException:
            self._alloc_depth -= 1
            self._release(fresh, strict=False)
            raise
        self._alloc_depth -= 1
        self._release(fresh, strict=True)

    def _allocate(self, n: int) -> list[QubitRef]:
        fresh = [self._allocate_one() for _ in range(n)]
        if fresh and self.trace is not None:
            self._event("allocate " + " ".join(f"q{r.id}" for r in fresh))
        return fresh

    def _allocate_one(self) -> QubitRef:
        qid = self.ledger.allocate()
        self.simulator.allocate(qid)
        self.stats.allocations += 1
        self.stats.peak_live = max(self.stats.peak_live, len(self.ledger.live))
        return self.ledger.live[qid]

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
                self._event(f"release q{ref.id}")

    # ── Events, kept output and intrinsic operations ─────────────────────

    def _event(self, line: str) -> None:
        """Traces `line`; a callback that keeps it returns True, and the run is charged."""
        if self.trace(line) is True:
            self.keep("trace line", line)

    def keep(self, what: str, item: Any, extra: int = 16) -> None:
        """Charges `item`, kept until printing, and `extra` bytes (by default its
        slot in a growing list) to the run, which may keep half the memory budget.
        The first item kept after the run's output passes that fails the run."""
        limit = simulator.MEMORY_BUDGET // 2
        if self.kept > limit:
            raise QdslFailure(
                f"the output this run keeps until printing passed its limit of {int(limit)} "
                f"bytes, half the memory budget, before a {what}"
            )
        self.kept += _held(item) + extra

    def apply_gate(self, label: str, matrix, target: QubitRef, controls: list[QubitRef]) -> None:
        """Apply `matrix` as given; `label` names the gate in a trace line."""
        # The qubits are checked inline, not by `ledger.ids`: a gate is the
        # hot path of a cached shot, and the call showed.
        live = self.ledger.live
        if live.get(target.id) is not target:
            raise _released(target)
        control_ids = ()
        if controls:
            control_ids = []
            for ref in controls:
                if live.get(ref.id) is not ref:
                    raise _released(ref)
                control_ids.append(ref.id)
        self.simulator.apply(matrix, target.id, control_ids)
        self.stats.gates += 1
        if self.trace is not None:
            ctl = " ".join(f"q{c.id}" for c in controls)
            suffix = f" ctl[{ctl}]" if controls else ""
            self._event(f"gate {label} q{target.id}{suffix}")

    def measure(self, bases: list, qubits: list[QubitRef]) -> Result:
        letters, ids = [p._name_ for p in bases], self.ledger.ids(qubits)
        outcome = _RESULTS[self.simulator.measure(letters, ids, self.rng)]
        self.stats.measurements += 1
        if self.trace is not None:
            basis_text = " ".join(letters) or "-"
            target_text = " ".join(f"q{q}" for q in ids) or "-"
            self._event(f"measure [{basis_text}] [{target_text}] -> {outcome.name}")
        return outcome

    def probe(self, bases: list, qubits: list[QubitRef], expected: Result) -> float:
        """The probability that measuring gives `expected`, with float noise at
        the endpoints clamped so reports read 0 and 1 exactly."""
        letters, ids = [p._name_ for p in bases], self.ledger.ids(qubits)
        p_zero = self.simulator.probe_zero_probability(letters, ids)
        p = p_zero if expected is Result.Zero else 1.0 - p_zero
        return 0.0 if p < 1e-12 else 1.0 if p > 1.0 - 1e-12 else p

    def message(self, text: str) -> None:
        self.keep("message", text)
        self.messages.append(text)
        if self.trace is not None:
            self._event(f"message {text}")


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


def _collect_qubits(value: Any, out: set[int], live: dict[int, QubitRef]) -> None:
    """Add the ids of the qubits `value` reaches; a stale reference reaches none."""
    if isinstance(value, QubitRef):
        if live.get(value.id) is value:
            out.add(value.id)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect_qubits(item, out, live)
    elif isinstance(value, Closure):
        # values given to partial applications
        _collect_qubits(value.wrappers, out, live)


# ── Compiler to Python source ────────────────────────────────────────────────

# Operators Python evaluates as qdsl does. The checker allows the arithmetic
# ones on Int, Double and (`+`) arrays, so an `int` result is an Int, which
# _WRAP wraps to 64 bits.
_ARITHMETIC = frozenset(["+", "-", "*", "&", "|", "^"])
_COMPARISONS = frozenset(["==", "!=", "<", "<=", ">", ">="])
_WRAP = (
    "if {0}.__class__ is int and not -0x8000000000000000 <= {0} <= 0x7fffffffffffffff: "
    "{0} = wrap64({0})"
)
# The deepest indentation at which a block's statements are emitted in place.
# A deeper block is a function whose source starts again at indentation 0,
# so no function comes near Python's limits on nested blocks and indentation.
_INLINE_INDENT = 6


class _Compiler:
    """Compiles one specialization body into Python functions.

    Only a fully checked layer has specialization tables, so every name in
    a body is resolved, a hole appears only in a partial application and a
    callee is a `Closure`. There is one method per AST node class, named
    after it. A statement method emits lines; an expression method emits the
    lines that compute its operands and returns a constant's name, a slot
    read or a temporary. Every binding site gets its own frame slot, and the
    scope stack maps the names in scope to their slots the way the checker
    scopes them, so a slot of a finished block is never read.

    The body is the entry function `(interp, arg, controls)`, which makes
    the frame. An `if` branch and a loop body or fixup are emitted in place
    while their indentation is at most _INLINE_INDENT. A deeper one, a qubit
    block (run by `_hold`) and the right operand of `&&` or `||` are each a
    function `(interp, frame)` that starts again at indentation 0 and
    returns None to fall through or the value of a `return`, so the source
    nests a few levels deep however deep the program nests. Program
    values, program text and spans reach the source only as names of the
    module's namespace. Each line that can raise has its node's span in the
    line table ``SPANS``, which `Interpreter.invoke` reads for a failure.
    """

    def __init__(self) -> None:
        self.scopes: list[dict[str, int]] = [{}]
        self.size = 0
        self.names: dict[str, Any] = {
            "Closure": Closure, "QdslFailure": QdslFailure, "RangeValue": RangeValue,
            "UNIT": UNIT, "wrap64": wrap64, "_index": _index, "render": render,
        }
        self.functions: list[tuple[str, str, list]] = []  # name, parameters, lines
        self.lines: list[tuple[int, str, Optional[Node]]] = []  # indent, text, node
        self.indent = 0
        self.count = 0

    def specialization(self, sym: CallableSymbol, entry) -> Callable:
        self._line("")  # the frame, once its size is known
        if entry.ctl_param is not None:
            self._line(f"frame[{self._define(entry.ctl_param)}] = list(controls)")
        if sym.decl is not None:
            self._bind(sym.decl.params, "arg")
        self._statements(entry.block.stmts)
        self._line("return UNIT")
        self.lines[0] = (0, f"frame = [None] * {self.size}", None)
        self.functions.append(("f0", "interp, arg, controls", self.lines))
        return self._module(sym.file)["f0"]

    def _module(self, file: str) -> dict:
        """Runs the emitted functions' source and returns its namespace."""
        source, spans = [], {}
        for name, params, lines in self.functions:
            source.append(f"def {name}({params}):")
            for indent, text, node in lines or [(0, "pass", None)]:
                source.append("    " * (1 + indent) + text)
                if node is not None:
                    spans[len(source)] = node.span
        namespace = dict(self.names, SPANS=spans, FILE=file)
        exec(compile("\n".join(source), "<qdsl>", "exec"), namespace)
        return namespace

    # ── Names, lines and blocks ──────────────────────────────────────────

    def _define(self, name: str) -> int:
        slot = self.size
        self.size += 1
        self.scopes[-1][name] = slot
        return slot

    def _lookup(self, name: str) -> int:
        return next(scope[name] for scope in reversed(self.scopes) if name in scope)

    def _fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def _const(self, value: Any) -> str:
        name = self._fresh("k")
        self.names[name] = value
        return name

    def _temp(self, text: str, node: Optional[Node] = None) -> str:
        """A temporary assigned `text`, on a line of `node` if given."""
        temp = self._fresh("t")
        self._line(f"{temp} = {text}", node)
        return temp

    def _line(self, text: str, node: Optional[Node] = None) -> None:
        self.lines.append((self.indent, text, node))

    def _function(self, emit: Callable[[], Any], scoped: bool = True) -> str:
        """A new block function of the lines `emit` adds; `emit` may return
        the text of a value for the function to return."""
        outer = self.lines, self.indent
        self.lines, self.indent = [], 0
        if scoped:
            self.scopes.append({})
        value = emit()
        if value is not None:
            self._line(f"return {value}")
        if scoped:
            self.scopes.pop()
        name = self._fresh("f")
        self.functions.append((name, "interp, frame", self.lines))
        self.lines, self.indent = outer
        return name

    def _statements(self, stmts: list[Stmt]) -> None:
        for stmt in stmts:
            self._compile(stmt)

    def _block(self, stmts: list[Stmt], scoped: bool = True) -> None:
        """Runs `stmts` in place while the source is shallow, else as a
        block function, returning what it returns unless that is None."""
        if self.indent <= _INLINE_INDENT:
            if scoped:
                self.scopes.append({})
            self._statements(stmts)
            if scoped:
                self.scopes.pop()
        elif stmts:
            name, value = self._function(lambda: self._statements(stmts), scoped), self._fresh("t")
            self._line(f"if ({value} := {name}(interp, frame)) is not None: return {value}")

    def _suite(self, header: str, stmts: list[Stmt], scoped: bool = True) -> None:
        """A compound statement whose suite runs `stmts` as a block."""
        self._line(header)
        size = len(self.lines)
        self.indent += 1
        self._block(stmts, scoped)
        if len(self.lines) == size:
            self._line("pass")  # the statements emitted no line
        self.indent -= 1

    def _bind(self, node, value: str) -> None:
        """Stores `value` into the slots of a pattern or parameter tuple."""
        if isinstance(node, (NamePattern, ParamLeaf)):
            self._line(f"frame[{self._define(node.name)}] = {value}")
        elif len(node.items) == 1:
            self._bind(node.items[0], value)  # takes the whole value
        elif node.items:
            # A nested tuple is unpacked from a temporary of its own, so the
            # target nests no parentheses.
            parts = [None if isinstance(item, (NamePattern, ParamLeaf)) else self._fresh("t")
                     for item in node.items]
            targets = [part or f"frame[{self._define(item.name)}]"
                       for item, part in zip(node.items, parts)]
            self._line(f"{', '.join(targets)}, = {value}")
            for item, part in zip(node.items, parts):
                if part is not None:
                    self._bind(item, part)

    # ── Statements ───────────────────────────────────────────────────────

    def _compile(self, node):
        return getattr(self, "_" + type(node).__name__)(node)

    def _LetStmt(self, stmt) -> None:
        self._bind(stmt.pattern, self._compile(stmt.value))

    def _MutableStmt(self, stmt) -> None:
        value = self._compile(stmt.value)
        self._line(f"frame[{self._define(stmt.name)}] = {value}")

    def _SetStmt(self, stmt) -> None:
        self._line(f"frame[{self._lookup(stmt.name)}] = {self._compile(stmt.value)}")

    def _IfStmt(self, stmt) -> None:
        # `taken` holds the last condition evaluated, so an `elif` chain
        # does not nest.
        taken = self._fresh("t")
        for i, (condition, block) in enumerate(stmt.branches):
            if i:
                self._line(f"if not {taken}:")
                self.indent += 1
            self._line(f"{taken} = {self._compile(condition)}")
            self._suite(f"if {taken}:", block.stmts)
            self.indent -= bool(i)
        if stmt.else_block is not None and stmt.else_block.stmts:
            self._suite(f"if not {taken}:", stmt.else_block.stmts)

    def _ForStmt(self, stmt) -> None:
        items, limit = self._fresh("t"), self._fresh("t")
        self._line(f"{items} = iter({self._compile(stmt.iterable)})")
        self._line(f"{limit} = interp.options.max_iterations")
        self.scopes.append({})
        slot = self._define(stmt.var)
        header = f"for _, frame[{slot}] in zip(range({limit}), {items}):"
        self._suite(header, stmt.body.stmts, scoped=False)
        self.scopes.pop()
        self._line(f"if next({items}, None) is not None: "
                   f"raise QdslFailure(f'for loop exceeded {{{limit}}} iterations')", stmt)

    def _RepeatStmt(self, stmt) -> None:
        # Bindings made in the body stay visible to the condition and fixup.
        limit = self._temp("interp.options.max_iterations")
        self._line(f"for _ in range({limit}):")
        self.indent += 1
        self.scopes.append({})
        self._block(stmt.body.stmts, scoped=False)
        self._line(f"if {self._compile(stmt.condition)}: break")
        self._block(stmt.fixup.stmts)
        self.scopes.pop()
        self.indent -= 1
        self._line(f"else: raise QdslFailure(f'repeat block exceeded {{{limit}}} iterations')",
                   stmt)

    def _ReturnStmt(self, stmt) -> None:
        self._line(f"return {self._compile(stmt.value)}")

    def _FailStmt(self, stmt) -> None:
        self._line(f"raise QdslFailure(str({self._compile(stmt.message)}))", stmt)

    def _ExprStmt(self, stmt) -> None:
        self._compile(stmt.expr)

    def _AllocateStmt(self, stmt) -> None:
        if stmt.count is None:
            count = "1"
        else:
            count = self._compile(stmt.count)
            self._line(f"if {count} < 0: raise QdslFailure(f'cannot allocate {{{count}}} qubits')",
                       stmt.count)
        if stmt.borrowing:
            # Borrowing skips the qubits reachable from the bindings in scope here.
            visible = ", ".join(f"frame[{s}]" for scope in self.scopes for s in scope.values())
            refs, fresh = self._fresh("t"), self._fresh("t")
            self._line(f"{refs}, {fresh} = interp._borrow({count}, [{visible}])", stmt)
        else:
            refs = fresh = self._temp(f"interp._allocate({count})", stmt)
        self.scopes.append({})
        slot = self._define(stmt.name)
        self._line(f"frame[{slot}] = {refs}" + ("[0]" if stmt.count is None else ""))
        body = self._function(lambda: self._statements(stmt.body.stmts), scoped=False)
        self.scopes.pop()
        self._line(f"interp._hold({fresh}, {body}, frame)", stmt)

    # ── Expressions ──────────────────────────────────────────────────────

    def _static(self, expr: Expr) -> Optional[Closure]:
        """The one value of a global name under any stack of functors."""
        if isinstance(expr, FunctorExpr):
            operand = self._static(expr.operand)
            if operand is not None:
                return operand.adjoint() if expr.functor == "Adjoint" else operand.controlled()
        elif isinstance(expr, Name) and expr.binding and expr.binding[0] != "local":
            return Closure(expr.binding[1])
        return None

    def _literal(self, expr) -> str:
        return self._const(expr.value)

    _IntLit = _DoubleLit = _BoolLit = _StringLit = _literal

    def _PauliLit(self, expr) -> str:
        return self._const(expr.kind)

    def _ResultLit(self, expr) -> str:
        return self._const(Result.One if expr.one else Result.Zero)

    def _InterpString(self, expr) -> str:
        parts = [self._const(p) if isinstance(p, str) else self._compile(p) for p in expr.parts]
        return self._temp(f"render([{', '.join(parts)}])", expr)

    def _Name(self, expr) -> str:
        binding = expr.binding
        if binding[0] == "local":
            return f"frame[{self._lookup(binding[1])}]"
        return self._const(Closure(binding[1]))

    def _TupleExpr(self, expr) -> str:
        items = [self._compile(item) for item in expr.items]
        return self._temp(f"({', '.join(items)})")  # never exactly one item

    def _ArrayExpr(self, expr) -> str:
        return self._temp(f"[{', '.join(self._compile(item) for item in expr.items)}]")

    def _RangeExpr(self, expr) -> str:
        start = self._compile(expr.start)
        step = "1" if expr.step is None else self._compile(expr.step)
        end = self._compile(expr.end)
        if expr.step is not None:
            self._line(f"if {step} == 0: raise QdslFailure('a range step cannot be zero')", expr)
        return self._temp(f"RangeValue({start}, {step}, {end})")

    def _IndexExpr(self, expr) -> str:
        array, at = self._compile(expr.base), self._compile(expr.index)
        in_range = f"{at}.__class__ is int and 0 <= {at} < len({array})"
        return self._temp(f"{array}[{at}] if {in_range} else _index({array}, {at})", expr)

    def _CallExpr(self, expr) -> str:
        callee = self._compile(expr.callee)
        args = expr.args
        if expr.is_partial:
            shape = self._shape(args[0] if len(args) == 1 else TupleExpr(expr.span, items=args))
            return self._temp(f"{callee}.partial({shape})")
        items = [self._compile(a) for a in args]
        arg = items[0] if len(items) == 1 else f"({', '.join(items)})" if items else "UNIT"
        return self._temp(f"interp.invoke({callee}, {arg})", expr)

    def _shape(self, expr: Expr) -> str:
        """Partial-application shape of an argument, with given values evaluated."""
        if isinstance(expr, Hole):
            return self._const(("hole",))
        if isinstance(expr, TupleExpr) and shape_has_hole(expr):
            items = [self._shape(item) for item in expr.items]
            return self._temp(f"('tuple', [{', '.join(items)}])")
        return self._temp(f"('given', {self._compile(expr)})")

    def _FunctorExpr(self, expr) -> str:
        static = self._static(expr)
        if static is not None:
            return self._const(static)
        operand = self._compile(expr.operand)
        method = "adjoint" if expr.functor == "Adjoint" else "controlled"
        return self._temp(f"{operand}.{method}()")

    def _UnaryExpr(self, expr) -> str:
        operand = self._compile(expr.operand)
        if expr.op == "!":
            return self._temp(f"not {operand}")
        assert expr.op in ("-", "~")
        value = self._temp(f"{expr.op}{operand}")
        self._line(_WRAP.format(value))
        return value

    def _BinaryExpr(self, expr) -> str:
        op, left = expr.op, self._compile(expr.left)
        if op in ("&&", "||"):
            value = self._temp(left)
            right = self._function(lambda: self._compile(expr.right))
            test = "" if op == "&&" else "not "
            self._line(f"if {test}{value}: {value} = {right}(interp, frame)")
            return value
        right = self._compile(expr.right)
        checked = _concat if op == "+" and isinstance(expr.ty, ty.Array) else _CHECKED.get(op)
        if checked is not None:
            return self._temp(f"{self._const(checked)}({left}, {right})", expr)
        assert op in _ARITHMETIC or op in _COMPARISONS
        value = self._temp(f"{left} {op} {right}")
        if op in _ARITHMETIC:
            self._line(_WRAP.format(value))
        return value


def _index(array: list, at: Any) -> Any:
    """`array[at]` for an Int or a Range `at`, failing on an index out of range."""
    if isinstance(at, RangeValue):
        return [_index(array, i) for i in at]
    if not 0 <= at < len(array):
        raise QdslFailure(f"index {at} is out of range for an array of length {len(array)}")
    return array[at]


# ── Operators ────────────────────────────────────────────────────────────────


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise QdslFailure("division by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return wrap64(q)


def _divide(left, right):
    if isinstance(left, float) or isinstance(right, float):
        if right == 0.0:
            raise QdslFailure("division by zero")
        return left / right
    return _int_div(left, right)


def _shift(count: int) -> int:
    if count < 0:
        raise QdslFailure("negative shift count")
    return count


# Bytes per item of a new array or string: its slot, the operands' slots and
# most of an object, so a doubling loop stops within half the memory budget.
_ITEM_BYTES = 32


def _sized(what: str, length: int) -> None:
    if length * _ITEM_BYTES > simulator.MEMORY_BUDGET:
        most = int(simulator.MEMORY_BUDGET // _ITEM_BYTES)
        raise QdslFailure(
            f"a new {what} of length {length} is longer than the {most} "
            "that fit in the memory budget"
        )


_CONTAINERS = frozenset((list, tuple))


def _held(value: Any) -> int:
    """At least the bytes `value` holds, with 16 per object for the allocator's
    rounding; an item held twice counts twice. The items of each list or tuple
    are sized together, and the walk keeps one iterator per level of nesting,
    so it needs no Python frame per level and no copy of any level."""
    size, stack = 0, [iter(((value,),))]
    is_container = _CONTAINERS.__contains__
    while stack:
        for items in stack[-1]:
            size += sum(map(sys.getsizeof, items)) + 16 * len(items)
            if not _CONTAINERS.isdisjoint(map(type, items)):
                # The lists and tuples among `items`, read lazily.
                stack.append(itertools.compress(items, map(is_container, map(type, items))))
                break
        else:
            stack.pop()
    return size


def _concat(left: list, right: list) -> list:
    _sized("array", len(left) + len(right))
    return left + right


def render(parts: list) -> str:
    """The rendered `parts` run together: an interpolation, or a run's value.
    It fails once the text would pass the memory budget, before later items."""
    out = io.StringIO()
    for part in parts:
        for piece in render_pieces(part):
            _sized("string", out.tell() + len(piece))
            out.write(piece)
    return out.getvalue()


_CHECKED = {  # operators that can fail
    "/": _divide,
    "%": lambda a, b: wrap64(a - b * _int_div(a, b)),
    "<<": lambda a, b: 0 if _shift(b) >= 64 else wrap64(a << b),
    ">>": lambda a, b: wrap64(a >> min(_shift(b), 63)),
}


# ── Shot driver ──────────────────────────────────────────────────────────────


def run_shots(
    intrinsics: dict[str, Callable],
    entry: CallableSymbol,
    shots: int,
    seed: Optional[int],
    options: RunOptions,
    trace: Optional[Callable[[int, str], None]] = None,
) -> list[ShotResult]:
    if entry.shot_prefix is None:
        entry.shot_prefix = ShotPrefix()
    results, kept = [], 0
    for shot in range(shots):
        rng = random.Random(seed ^ shot) if seed is not None else random.Random()
        shot_trace = (lambda line, s=shot: trace(s, line)) if trace else None
        interp = Interpreter(intrinsics, options, rng, shot_trace)
        interp.kept = kept
        interp.keep("shot", None, 0)  # a run past its limit of kept output starts no shot
        interp.simulator = prefix = entry.shot_prefix.stand_in(interp.simulator)
        value = interp.run(entry)
        prefix.commit()
        # Its value, the value's text (at most as large), result, counts and lists.
        kept = interp.kept + 2 * _held(value) + 512
        results.append(
            ShotResult(value, interp.messages, interp.stats, interp.state_dumps)
        )
    return results
