"""Seeded generator of well-typed qdsl programs, and their recorded runs.

`generate(seed)` builds the AST of one program and prints it with
`pretty.pretty_print`. Every program is well typed by construction. It
mixes Int and Double arithmetic at the 64-bit edges (with `/ % << >>` and
their failures), indexes and slices in and out of range, `let` with tuple
patterns, `mutable`/`set`, `if`/`elif`/`for`/`repeat` with early returns,
`&&`/`||` with calls on the right, partial application, source operations
with `adjoint auto`/`controlled auto` called through static and dynamic
callees under `Adjoint`/`Controlled`, `using`/`borrowing`, and `Message`
with interpolation.

`record(seed)` runs a program for `SHOTS` seeded shots and returns one text
line per event: each shot's trace lines (gates, allocations, borrows,
releases, measurements, messages), then its value or its failure's message
and span. `tests/golden/generated_runs.txt` pins the records of the
programs `0 .. GOLDEN_PROGRAMS - 1`; `tests/test_generated_programs.py`
checks them in tier-1.

A long run prints the records of more programs, so that two checkouts can
be compared with `diff`, and fails on a Python exception other than a
program failure, on a program that does not compile, and on a shot whose
cached run differs from its run with no shot log:

    PYTHONPATH=src python tests/program_generator.py --programs 2000 --seed 7

`--depth N` nests statement blocks up to N deep (3 by default, which the
golden file uses). Deeper programs reach the blocks that the runtime emits
as functions of their own, not in place. They can also double an array in
nested loops until its length meets the memory budget, which fails the
shot: `--programs 100 --seed 3600 --depth 8` holds one such program.

The golden file is rewritten as the others are, by
`tests/test_golden_runs.py generated_runs.txt`.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Optional

from qdsl.ast_nodes import (
    AllocateStmt,
    ArrayExpr,
    ArrayTypeNode,
    BinaryExpr,
    Block,
    BoolLit,
    CallableDecl,
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
    OpenDirective,
    ParamLeaf,
    ParamTuple,
    PauliLit,
    Program,
    RangeExpr,
    RepeatStmt,
    ResultLit,
    ReturnStmt,
    SetStmt,
    SpecDecl,
    SpecImpl,
    SpecKind,
    TupleExpr,
    TuplePattern,
    TupleTypeNode,
    UnaryExpr,
)
from qdsl.compiler import compile_snippet, resolve_entry
from qdsl.pretty import pretty_print
from qdsl.prelude import intrinsic_handlers
from qdsl.runtime import QdslFailure, RunOptions, run_shots
from qdsl.source import SourceFile, Span
from qdsl.values import Pauli, render_value

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "generated_runs.txt")
GOLDEN_PROGRAMS = 60
DEPTH = 3  # how deeply statement blocks nest, unless --depth says otherwise
SHOTS = 3
FILE = "generated.qds"

INT_MAX = (1 << 63) - 1
# Values at and around the 64-bit edges, and shift counts around 63 and 64.
EDGE_INTS = [INT_MAX, INT_MAX - 1, 1 << 62, 1 << 32, 63, 64, 65]
SMALL_INTS = [0, 1, 2, 3, 5, 7, 10, 100]
DOUBLES = [0.0, 0.5, 1.5, 2.0, 3.25, 1e-300, 1e300, 6.02e23]
GATES = ["H", "X", "Y", "Z", "T"]
# Text that interpolation must carry through as it is.
TEXTS = ["", "x", "a b", 'q"uote', "back\\slash", "{brace}", "line\nbreak"]

_S = Span(0, 0)


# ── AST builders ─────────────────────────────────────────────────────────────


def name(text: str) -> Name:
    return Name(_S, name=text)


def int_lit(value: int) -> Expr:
    if value == -INT_MAX - 1:
        return BinaryExpr(_S, op="-", left=int_lit(-INT_MAX), right=IntLit(_S, value=1))
    if value < 0:
        return UnaryExpr(_S, op="-", operand=IntLit(_S, value=-value))
    return IntLit(_S, value=value)


def double_lit(value: float) -> Expr:
    if value < 0:
        return UnaryExpr(_S, op="-", operand=DoubleLit(_S, value=-value))
    return DoubleLit(_S, value=value)


def call(callee, *args: Expr) -> CallExpr:
    if isinstance(callee, str):
        callee = name(callee)
    return CallExpr(_S, callee=callee, args=list(args))


def binary(op: str, left: Expr, right: Expr) -> BinaryExpr:
    return BinaryExpr(_S, op=op, left=left, right=right)


def tuple_expr(*items: Expr) -> Expr:
    return items[0] if len(items) == 1 else TupleExpr(_S, items=list(items))


def array(*items: Expr) -> ArrayExpr:
    return ArrayExpr(_S, items=list(items))


def span_range(start: Expr, end: Expr, step: Optional[Expr] = None) -> RangeExpr:
    return RangeExpr(_S, start=start, step=step, end=end)


def block(stmts: list) -> Block:
    return Block(_S, stmts=stmts)


def functor(kind: str, operand: Expr) -> FunctorExpr:
    return FunctorExpr(_S, functor=kind, operand=operand)


def type_node(text: str):
    if text.endswith("[]"):
        return ArrayTypeNode(_S, element=type_node(text[:-2]))
    return NamedTypeNode(_S, name=text)


def params(*items: tuple[str, str]) -> ParamTuple:
    return ParamTuple(_S, items=[ParamLeaf(_S, name=n, type=type_node(t)) for n, t in items])


def expr_stmt(expr: Expr) -> ExprStmt:
    return ExprStmt(_S, expr=expr)


def message(parts: list) -> ExprStmt:
    return expr_stmt(call("Message", InterpString(_S, parts=parts)))


# ── The generator ────────────────────────────────────────────────────────────


class _Generator:
    """Builds one program. `scopes` maps the names in scope to their types;
    a name in `mutables` may be the target of a `set`."""

    def __init__(self, seed: int, depth: int = DEPTH) -> None:
        self.rng = random.Random(seed)
        self.max_depth = depth  # the deepest statement nesting
        self.scopes: list[dict[str, str]] = []
        self.mutables: set[str] = set()
        self.counter = 0
        self.int_functions: list[str] = []  # (Int, Int) -> Int, callable so far
        self.unitaries: list[str] = []  # (Qubit, Int) => () : Adjoint, Controlled
        self.returns: Optional[str] = None  # the enclosing function's return type
        self.operation = False
        self.depth = 0  # statement nesting
        self.risk = 0.06  # chance of an operand that may fail

    # ── Scopes ───────────────────────────────────────────────────────────

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def define(self, text: str, type_: str, mutable: bool = False) -> None:
        self.scopes[-1][text] = type_
        if mutable:
            self.mutables.add(text)

    def visible(self, type_: str) -> list[str]:
        return sorted({n for scope in self.scopes for n, t in scope.items() if t == type_})

    def chance(self, p: float) -> bool:
        return self.rng.random() < p

    def nested(self, make) -> Block:
        self.scopes.append({})
        self.depth += 1
        try:
            return block(make())
        finally:
            self.depth -= 1
            self.scopes.pop()

    # ── Expressions ──────────────────────────────────────────────────────

    def expr(self, type_: str, depth: int = 2) -> Expr:
        return getattr(self, "_" + type_.replace("[]", "_array"))(depth)

    def _Int(self, depth: int) -> Expr:
        rng = self.rng
        choices = ["lit", "lit", "var", "var"]
        if depth > 0:
            choices += ["arith", "arith", "checked", "bits", "unary", "length", "index"]
            if self.int_functions:
                choices += ["call"]
            if self.visible("Fn"):
                choices += ["partial"]
        kind = rng.choice(choices)
        if kind == "var" and not self.visible("Int"):
            kind = "lit"
        if kind == "lit":
            if self.chance(0.3):
                value = rng.choice(EDGE_INTS)
                return int_lit(rng.choice([value, -value, -value - 1]))
            return int_lit(rng.choice(SMALL_INTS))
        if kind == "var":
            return name(rng.choice(self.visible("Int")))
        if kind == "arith":
            op = rng.choice(["+", "-", "*"])
            return binary(op, self._Int(depth - 1), self._Int(depth - 1))
        if kind == "checked":
            op = rng.choice(["/", "%", "<<", ">>"])
            if self.chance(self.risk):
                right = self._Int(depth - 1)  # may be zero or negative
            elif op in ("/", "%"):
                right = int_lit(rng.choice([1, 2, 3, -7, INT_MAX, -INT_MAX - 1]))
            else:
                right = int_lit(rng.choice([0, 1, 5, 62, 63, 64, 100]))
            return binary(op, self._Int(depth - 1), right)
        if kind == "bits":
            return binary(rng.choice(["&", "|", "^"]), self._Int(depth - 1), self._Int(depth - 1))
        if kind == "unary":
            return UnaryExpr(_S, op=rng.choice(["-", "~"]), operand=self._Int(depth - 1))
        if kind == "length":
            return call("Length", self._Int_array(depth - 1))
        if kind == "index":
            return IndexExpr(_S, base=self._Int_array(depth - 1), index=self.index())
        if kind == "call":
            callee = rng.choice(self.int_functions)
            return call(callee, self._Int(depth - 1), self._Int(depth - 1))
        return call(rng.choice(self.visible("Fn")), self._Int(depth - 1))

    def index(self) -> Expr:
        if self.chance(self.risk):
            return self._Int(1)
        return int_lit(self.rng.choice([0, 1, 2]))

    def _Double(self, depth: int) -> Expr:
        rng = self.rng
        choices = ["lit", "var"] + (["arith", "arith", "divide", "unary"] if depth > 0 else [])
        kind = rng.choice(choices)
        if kind == "var" and not self.visible("Double"):
            kind = "lit"
        if kind == "lit":
            return double_lit(rng.choice(DOUBLES) * rng.choice([1, -1]))
        if kind == "var":
            return name(rng.choice(self.visible("Double")))
        if kind == "arith":
            return binary(rng.choice(["+", "-", "*"]), self._Double(depth - 1), self._Double(depth - 1))
        if kind == "divide":
            right = self._Double(depth - 1) if self.chance(0.3) else double_lit(rng.choice([0.5, -4.0, 1e-300]))
            return binary("/", self._Double(depth - 1), right)
        return UnaryExpr(_S, op="-", operand=self._Double(depth - 1))

    def _Bool(self, depth: int) -> Expr:
        rng = self.rng
        choices = ["lit", "var"] + (["compare", "compare", "double", "logic", "not", "pred"] if depth > 0 else [])
        kind = rng.choice(choices)
        if kind == "var" and not self.visible("Bool"):
            kind = "lit"
        if kind == "lit":
            return BoolLit(_S, value=rng.random() < 0.5)
        if kind == "var":
            return name(rng.choice(self.visible("Bool")))
        if kind == "compare":
            op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
            return binary(op, self._Int(depth - 1), self._Int(depth - 1))
        if kind == "double":
            op = rng.choice(["==", "<", ">="])
            return binary(op, self._Double(depth - 1), self._Double(depth - 1))
        if kind == "logic":
            # The right operand is a call with a visible side effect.
            right = call("Pred", self._Int(depth - 1))
            return binary(rng.choice(["&&", "||"]), self._Bool(depth - 1), right)
        if kind == "not":
            return UnaryExpr(_S, op="!", operand=self._Bool(depth - 1))
        return call("Pred", self._Int(depth - 1))

    def _Int_array(self, depth: int) -> Expr:
        rng = self.rng
        choices = ["lit", "var", "var"] + (["concat", "slice", "updated"] if depth > 0 else [])
        kind = rng.choice(choices)
        if kind == "var" and not self.visible("Int[]"):
            kind = "lit"
        if kind == "lit":
            return array(*[self._Int(0) for _ in range(rng.choice([3, 3, 4]))])
        if kind == "var":
            return name(rng.choice(self.visible("Int[]")))
        if kind == "concat":
            return binary("+", self._Int_array(depth - 1), self._Int_array(0))
        if kind == "slice":
            if self.chance(self.risk * 2):
                index = rng.choice([
                    span_range(int_lit(1), int_lit(0)),  # empty
                    span_range(int_lit(0), int_lit(1)),
                    span_range(int_lit(2), int_lit(5)),
                ])
            else:  # every array outside the risky paths has 3 items or more
                index = rng.choice([
                    span_range(int_lit(0), int_lit(2)),
                    span_range(int_lit(2), int_lit(0), int_lit(-1)),
                    span_range(int_lit(0), int_lit(2), int_lit(1)),
                ])
            return IndexExpr(_S, base=self._Int_array(depth - 1), index=index)
        return call("Updated", self._Int_array(depth - 1), self.index(), self._Int(depth - 1))

    def interpolation(self) -> list:
        parts: list = [self.rng.choice(TEXTS)]
        for _ in range(self.rng.randint(1, 3)):
            type_ = self.rng.choice(["Int", "Double", "Bool", "Int[]"] + ["Result"] * self.operation)
            if type_ == "Result" and not self.visible("Result"):
                type_ = "Int"
            value = name(self.rng.choice(self.visible("Result"))) if type_ == "Result" else self.expr(type_, 1)
            parts += [value, self.rng.choice(TEXTS)]
        return parts

    # ── Classical statements ─────────────────────────────────────────────

    def statements(self, count: int) -> list:
        return [s for _ in range(count) for s in self.statement()]

    def statement(self) -> list:
        rng = self.rng
        kinds = ["let", "let", "mutable", "set", "set", "message", "tuple", "partial"]
        if self.depth < self.max_depth:
            kinds += ["if", "for", "repeat"]
        kind = rng.choice(kinds)
        if kind in ("let", "mutable"):
            type_ = rng.choice(["Int", "Int", "Double", "Bool", "Int[]"])
            value = self.expr(type_)
            text = self.fresh("m" if kind == "mutable" else "v")
            self.define(text, type_, mutable=kind == "mutable")
            if kind == "let":
                return [LetStmt(_S, pattern=NamePattern(_S, name=text), value=value)]
            return [MutableStmt(_S, name=text, value=value)]
        if kind == "set":
            targets = [(n, t) for scope in self.scopes for n, t in scope.items() if n in self.mutables]
            if not targets:
                return self.statement()
            text, type_ = rng.choice(sorted(targets))
            return [SetStmt(_S, name=text, value=self.expr(type_))]
        if kind == "message":
            return [message(self.interpolation())]
        if kind == "tuple":
            return [self.tuple_let()]
        if kind == "partial":
            text = self.fresh("p")
            holes = [self._Int(1), self._Int(1), Hole(_S)]
            rng.shuffle(holes)
            stmt = LetStmt(_S, pattern=NamePattern(_S, name=text), value=call("Add3", *holes))
            self.define(text, "Fn")
            return [stmt]
        if kind == "if":
            return [self.if_stmt(self.statements)]
        if kind == "for":
            return [self.for_stmt(self.statements)]
        return self.repeat_stmt()

    def tuple_let(self) -> LetStmt:
        a, b, c = self.fresh("t"), self.fresh("t"), self.fresh("t")
        value = tuple_expr(self._Int(1), tuple_expr(self._Double(1), self._Bool(1)))
        pattern = TuplePattern(_S, items=[
            NamePattern(_S, name=a),
            TuplePattern(_S, items=[NamePattern(_S, name=b), NamePattern(_S, name=c)]),
        ])
        self.define(a, "Int")
        self.define(b, "Double")
        self.define(c, "Bool")
        return LetStmt(_S, pattern=pattern, value=value)

    def early_exit(self) -> list:
        """A return of the enclosing function's type, or a fail."""
        if self.returns is None or self.chance(0.2):
            return [FailStmt(_S, message=InterpString(_S, parts=self.interpolation()))]
        return [ReturnStmt(_S, value=self.expr(self.returns))]

    def if_stmt(self, body) -> IfStmt:
        branches = []
        for _ in range(self.rng.choice([1, 1, 2, 3])):
            condition = self._Bool(2)
            exit_ = self.chance(0.25 if self.returns else 0.04)
            branches.append((condition, self.nested(
                lambda: body(self.rng.randint(1, 3)) + (self.early_exit() if exit_ else [])
            )))
        orelse = self.nested(lambda: body(self.rng.randint(1, 2))) if self.chance(0.5) else None
        return IfStmt(_S, branches=branches, else_block=orelse)

    def for_stmt(self, body) -> ForStmt:
        rng = self.rng
        var = self.fresh("i")
        if self.chance(self.risk):
            iterable = span_range(int_lit(0), int_lit(3), self._Int(0))  # the step may be 0
        else:
            iterable = rng.choice([
                span_range(int_lit(0), int_lit(rng.randint(-1, 3))),
                span_range(int_lit(4), int_lit(0), int_lit(-2)),
                span_range(int_lit(0), binary("-", call("Length", self._Int_array(1)), int_lit(1))),
            ])

        def make():
            self.define(var, "Int")
            stmts = body(rng.randint(1, 3))
            if self.chance(0.15 if self.returns else 0.03):
                stmts.append(IfStmt(_S, branches=[(self._Bool(1), block(self.early_exit()))], else_block=None))
            return stmts
        return ForStmt(_S, var=var, var_span=_S, iterable=iterable, body=self.nested(make))

    def repeat_stmt(self) -> list:
        rng = self.rng
        counter = self.fresh("c")
        limit = rng.randint(1, 3)
        self.define(counter, "Int")  # not a target of the generated sets
        self.scopes.append({})
        self.depth += 1
        stmts = [SetStmt(_S, name=counter, value=binary("+", name(counter), int_lit(1)))]
        stmts += self.statements(rng.randint(1, 2))
        # A binding of the body is visible to the condition and the fixup.
        condition = binary("||", binary(">=", name(counter), int_lit(limit)), self._Bool(1))
        fixup = self.nested(lambda: self.statements(rng.randint(0, 1)))
        self.depth -= 1
        self.scopes.pop()
        return [
            MutableStmt(_S, name=counter, value=int_lit(0)),
            RepeatStmt(_S, body=block(stmts), condition=condition, fixup=fixup),
        ]

    # ── Quantum statements ───────────────────────────────────────────────

    def qubit(self) -> Expr:
        index = self._Int(1) if self.chance(self.risk / 2) else int_lit(self.rng.randint(0, 2))
        return IndexExpr(_S, base=name("qs"), index=index)

    def two_qubits(self) -> tuple[Expr, Expr]:
        a, b = self.rng.sample([0, 1, 2], 2)
        return (IndexExpr(_S, base=name("qs"), index=int_lit(a)),
                IndexExpr(_S, base=name("qs"), index=int_lit(b)))

    def quantum_statements(self, count: int) -> list:
        return [s for _ in range(count) for s in self.quantum_statement()]

    def quantum_statement(self) -> list:
        rng = self.rng
        kinds = ["gate", "gate", "r1", "cnot", "unitary", "unitary", "dynamic", "measure",
                 "classical", "borrow"]
        if self.depth < self.max_depth:
            kinds += ["if", "for", "using"]
        kind = rng.choice(kinds)
        if kind == "gate":
            gate: Expr = name(rng.choice(GATES))
            if self.chance(0.4):
                gate = functor("Adjoint", gate)
            if self.chance(0.3):
                control, target = self.two_qubits()
                return [expr_stmt(call(functor("Controlled", gate), array(control), target))]
            return [expr_stmt(call(gate, self.qubit()))]
        if kind == "r1":
            return [expr_stmt(call("R1Frac", self._Int(1), int_lit(rng.randint(0, 3)), self.qubit()))]
        if kind == "cnot":
            return [expr_stmt(call("CNOT", *self.two_qubits()))]
        if kind in ("unitary", "dynamic"):
            return self.unitary_call(kind == "dynamic")
        if kind == "measure":
            result = self.fresh("r")
            if self.chance(0.3):
                (a, b), bases = self.two_qubits(), [rng.choice(list(Pauli)) for _ in range(2)]
                value = call("Measure", array(*[PauliLit(_S, kind=p) for p in bases]), array(a, b))
            else:
                value = call("Measure", array(PauliLit(_S, kind=Pauli.Z)), array(self.qubit()))
            self.define(result, "Result")
            outcome = ResultLit(_S, one=self.chance(0.5))
            then = self.nested(lambda: self.quantum_statements(rng.randint(1, 2)))
            return [
                LetStmt(_S, pattern=NamePattern(_S, name=result), value=value),
                IfStmt(_S, branches=[(binary("==", name(result), outcome), then)], else_block=None),
            ]
        if kind == "classical":
            return self.statement()
        if kind == "borrow":
            return [expr_stmt(call("Borrow", self._Int(1)))]
        if kind == "if":
            return [self.if_stmt(self.quantum_statements)]
        if kind == "for":
            return [self.for_stmt(self.quantum_statements)]
        extra = self.fresh("e")

        def make():
            self.define(extra, "Qubit")
            return [expr_stmt(call("H", name(extra))),
                    expr_stmt(call("CNOT", name(extra), self.qubit())),
                    message([f"{extra}=", name(extra)]),
                    expr_stmt(call("Reset", name(extra)))]
        return [AllocateStmt(_S, name=extra, name_span=_S, count=None, body=self.nested(make))]

    def unitary_call(self, dynamic: bool) -> list:
        """A call of a source unitary, static or through a local, maybe
        partially applied, under up to two functors."""
        rng = self.rng
        stmts: list = []
        callee: Expr = name(rng.choice(self.unitaries))
        partial = self.chance(0.5)
        if partial:
            callee = call(callee, Hole(_S), self._Int(1))
        if dynamic:
            local = self.fresh("u")
            stmts.append(LetStmt(_S, pattern=NamePattern(_S, name=local), value=callee))
            callee = name(local)
        functors = [rng.choice(["Adjoint", "Controlled"]) for _ in range(rng.randint(0, 2))]
        for kind in functors:
            callee = functor(kind, callee)
        target = self.qubit()
        arg = target if partial else tuple_expr(target, self._Int(1))
        controls = functors.count("Controlled")
        if not controls:
            return stmts + [expr_stmt(call(callee, *_args(arg)))]
        # Each control register is one qubit of a block of its own.
        register = self.fresh("k")
        for j in range(controls):
            control = IndexExpr(_S, base=name(register), index=int_lit(j))
            arg = TupleExpr(_S, items=[array(control), arg])
        first = IndexExpr(_S, base=name(register), index=int_lit(0))
        body = [expr_stmt(call("H", first)), expr_stmt(call(callee, *_args(arg))),
                expr_stmt(call("ResetAll", name(register)))]
        return stmts + [AllocateStmt(_S, name=register, name_span=_S, count=int_lit(controls),
                                     body=block(body))]

    # ── Declarations ─────────────────────────────────────────────────────

    def function(self, text: str, inputs: list[tuple[str, str]], output: str, stmts) -> CallableDecl:
        self.scopes = [{}]
        self.mutables = set()
        self.returns, self.operation, self.depth = output, False, 0
        for n, t in inputs:
            self.define(n, t)
        body = stmts() + [ReturnStmt(_S, value=self.expr(output))]
        spec = SpecDecl(_S, kind=SpecKind.BODY, block=block(body))
        return CallableDecl(_S, is_operation=False, name=text, name_span=_S, type_params=[],
                            params=params(*inputs), output=type_node(output), specs=[spec])

    def unitary(self, text: str) -> CallableDecl:
        """An operation of gates, classical lets, ifs and fors, with every
        specialization generated."""
        self.scopes = [{}]
        self.mutables = set()
        self.returns, self.operation, self.depth = None, True, 0
        self.define("q", "Qubit")
        self.define("k", "Int")
        body = self.unitary_statements(self.rng.randint(2, 5))
        specs = [SpecDecl(_S, kind=SpecKind.BODY, block=block(body))] + [
            SpecDecl(_S, kind=kind, impl=SpecImpl.AUTO)
            for kind in (SpecKind.ADJOINT, SpecKind.CONTROLLED, SpecKind.CONTROLLED_ADJOINT)
        ]
        return CallableDecl(_S, is_operation=True, name=text, name_span=_S, type_params=[],
                            params=params(("q", "Qubit"), ("k", "Int")),
                            output=TupleTypeNode(_S, items=[]), specs=specs)

    def unitary_statements(self, count: int) -> list:
        rng = self.rng
        stmts: list = []
        for _ in range(count):
            nested = ["if", "for"] if self.depth < self.max_depth - 1 else []
            kind = rng.choice(["gate", "gate", "r1", "call", "let"] + nested)
            if kind == "gate":
                stmts.append(expr_stmt(call(rng.choice(GATES), name("q"))))
            elif kind == "r1":
                stmts.append(expr_stmt(call("R1Frac", self._Int(1), int_lit(rng.randint(0, 3)), name("q"))))
            elif kind == "call" and self.unitaries:
                callee: Expr = name(rng.choice(self.unitaries))
                if self.chance(0.5):
                    callee = functor("Adjoint", callee)
                stmts.append(expr_stmt(call(callee, name("q"), self._Int(1))))
            elif kind == "let":
                text = self.fresh("v")
                stmts.append(LetStmt(_S, pattern=NamePattern(_S, name=text), value=self._Int(1)))
                self.define(text, "Int")
            elif kind == "if":
                stmts.append(IfStmt(
                    _S,
                    branches=[(self._Bool(1), self.nested(lambda: self.unitary_statements(rng.randint(1, 2))))],
                    else_block=self.nested(lambda: self.unitary_statements(1)) if self.chance(0.5) else None,
                ))
            elif kind == "for":
                var = self.fresh("i")

                def make():
                    self.define(var, "Int")
                    return self.unitary_statements(rng.randint(1, 2))
                stmts.append(ForStmt(_S, var=var, var_span=_S,
                                     iterable=span_range(int_lit(0), int_lit(rng.randint(0, 2))),
                                     body=self.nested(make)))
        return stmts or [expr_stmt(call("H", name("q")))]

    def borrow(self) -> CallableDecl:
        """Borrows qubits it leaves as it found them; they are the caller's
        when no binding in scope reaches them."""
        self.scopes = [{}]
        self.mutables = set()
        self.returns, self.operation, self.depth = None, True, 0
        self.define("n", "Int")
        lent = BinaryExpr(_S, op="%", left=name("n"), right=int_lit(2))
        count = binary("+", binary("*", lent, lent), int_lit(1))
        inner = [
            expr_stmt(call("H", IndexExpr(_S, base=name("bs"), index=int_lit(0)))),
            message(["borrowed ", name("bs")]),
            expr_stmt(call("H", IndexExpr(_S, base=name("bs"), index=int_lit(0)))),
        ]
        body = [AllocateStmt(_S, name="bs", name_span=_S, count=count, body=block(inner), borrowing=True)]
        spec = SpecDecl(_S, kind=SpecKind.BODY, block=block(body))
        return CallableDecl(_S, is_operation=True, name="Borrow", name_span=_S, type_params=[],
                            params=params(("n", "Int")), output=TupleTypeNode(_S, items=[]), specs=[spec])

    def main(self) -> CallableDecl:
        self.scopes = [{}]
        self.mutables = set()
        self.returns, self.operation, self.depth = None, True, 0
        classical = self.statements(self.rng.randint(2, 5))
        total = self.fresh("m")
        self.define(total, "Int", mutable=True)

        def make():
            self.define("qs", "Qubit[]")
            return self.quantum_statements(self.rng.randint(4, 9)) + [
                expr_stmt(call("ResetAll", name("qs")))
            ]
        using = AllocateStmt(_S, name="qs", name_span=_S, count=int_lit(3), body=self.nested(make))
        value = tuple_expr(name(total), self._Double(2), self._Bool(2), self._Int_array(2))
        body = classical + [MutableStmt(_S, name=total, value=int_lit(0)), using, ReturnStmt(_S, value=value)]
        spec = SpecDecl(_S, kind=SpecKind.BODY, block=block(body))
        output = TupleTypeNode(_S, items=[type_node(t) for t in ("Int", "Double", "Bool", "Int[]")])
        return CallableDecl(_S, is_operation=True, name="Main", name_span=_S, type_params=[],
                            params=ParamTuple(_S, items=[]), output=output, specs=[spec])

    def program(self) -> Program:
        rng = self.rng
        decls = [
            # Pred's message shows whether `&&` and `||` evaluated their right operand.
            self.function("Pred", [("n", "Int")], "Bool",
                          lambda: [message(["Pred ", name("n")])]),
            self.function("Add3", [("a", "Int"), ("b", "Int"), ("c", "Int")], "Int", lambda: []),
        ]
        decls[0].specs[0].block.stmts[-1] = ReturnStmt(
            _S, value=binary("==", binary("%", name("n"), int_lit(2)), int_lit(0)))
        decls[1].specs[0].block.stmts[-1] = ReturnStmt(
            _S, value=binary("+", name("a"), binary("*", name("b"), name("c"))))
        for _ in range(rng.randint(1, 3)):
            text = f"F{len(self.int_functions)}"
            decls.append(self.function(text, [("a", "Int"), ("b", "Int")], "Int",
                                       lambda: self.statements(rng.randint(1, 5))))
            self.int_functions.append(text)
        for _ in range(rng.randint(1, 3)):
            text = f"U{len(self.unitaries)}"
            decls.append(self.unitary(text))
            self.unitaries.append(text)
        decls += [self.borrow(), self.main()]
        namespace = Namespace(_S, name="Gen", opens=[OpenDirective(_S, name="Microsoft.Quantum.Primitive")],
                              decls=decls)
        return Program(_S, namespaces=[namespace])


def _args(arg: Expr) -> list[Expr]:
    return list(arg.items) if isinstance(arg, TupleExpr) else [arg]


def generate(seed: int, depth: int = DEPTH) -> str:
    """The text of program `seed`, with blocks nested up to `depth` deep."""
    return pretty_print(_Generator(seed, depth).program())


# ── Runs ─────────────────────────────────────────────────────────────────────


def _failure_text(failure: QdslFailure, source: SourceFile) -> str:
    if failure.span is None:
        return f"failure {failure.message!r}"
    line, col = source.position(failure.span.start)
    text = source.text[failure.span.start : failure.span.end].splitlines()[0]
    return f"failure {failure.message!r} at {line}:{col} {text.strip()!r}"


def run(text: str, seed: int, shots=range(SHOTS), entry=None) -> list[str]:
    """The trace lines and the outcome of each shot, one line each."""
    source = SourceFile(FILE, text)
    if entry is None:
        entry = compile_entry(text)
    handlers = intrinsic_handlers()
    lines: list[str] = []
    for shot in shots:
        lines.append(f"shot {shot}")
        trace = lambda s, line: lines.append("  " + _one_line(line))
        try:
            [result] = run_shots(handlers, entry, 1, seed ^ shot, RunOptions(), trace)
            lines.append("  value " + _one_line(render_value(result.value)))
        except QdslFailure as failure:
            lines.append("  " + _failure_text(failure, source))
    return lines


def _one_line(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def compile_entry(text: str):
    result = compile_snippet(text, file=FILE)
    if not result.ok:
        raise AssertionError("\n".join(d.render() for d in result.diagnostics) + "\n" + text)
    entry, error = resolve_entry(result, None)
    assert error is None, error
    return entry


def record(seed: int) -> list[str]:
    return [f"== program {seed}"] + run(generate(seed), seed)


def golden_text() -> str:
    return "".join(line + "\n" for seed in range(GOLDEN_PROGRAMS) for line in record(seed))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--programs", type=int, default=GOLDEN_PROGRAMS)
    parser.add_argument("--seed", type=int, default=0, help="the first program's seed")
    parser.add_argument("--depth", type=int, default=DEPTH,
                        help="how deeply statement blocks nest (unitaries one less)")
    args = parser.parse_args(argv)
    for seed in range(args.seed, args.seed + args.programs):
        text = generate(seed, args.depth)
        entry = compile_entry(text)
        lines = run(text, seed, entry=entry)
        # Each shot again with the shot log dropped, as on a fresh entry.
        fresh = []
        for shot in range(SHOTS):
            entry.shot_prefix = None
            fresh += run(text, seed, [shot], entry)
        if fresh != lines:
            sys.stdout.write(text)
            raise SystemExit(f"program {seed}: cached shots differ from fresh ones")
        sys.stdout.write("".join(line + "\n" for line in [f"== program {seed}"] + lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
