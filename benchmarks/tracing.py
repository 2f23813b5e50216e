"""Spans around qdsl's layers, recorded from outside the package.

`Tracer.installed()` wraps the public functions of each layer at the names
their callers bind (`compiler` and `parser` import names directly, so the
wrappers replace those bindings, not the defining module's). Each call
records a span: name, start, end, parent and, for simulator calls, the
number of amplitudes of the state it ran on. Spans stay in memory until
`write_spans` saves them when the run ends.

A layer's self time is the duration of its spans minus the time their child
spans cover; the self times of all layers plus `other.s` make up the traced
wall time.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Sequence

import qdsl.compiler
import qdsl.parser
import qdsl.runtime
import qdsl.transform
from qdsl.checker import Checker
from qdsl.runtime import Interpreter
from qdsl.simulator import StateVectorSimulator

GATE_CLASSES = ("dense1", "diag1", "ctl_dense", "ctl_diag")
SIMULATOR_CALLS = ("measure", "probe", "allocate", "release")
# One complex128 amplitude is 16 bytes; one pass reads the state once.
BYTES_PER_AMPLITUDE = 16

# Per-layer metrics and their units. Times and counts are per round of
# traced work (see benchmarks/README.md).
UNITS = {
    "lexer.s": "s",
    "lexer.tokens_per_s": "1/s",
    "parser.self_s": "s",
    "checker.collect_s": "s",
    "checker.resolve_s": "s",
    "checker.bodies_s": "s",
    "transform.s": "s",
    "transform.specs_generated": "count",
    "compiler.self_s": "s",
    "cli.import_s": "s",
    "runtime.self_s": "s",
    "runtime.invokes_per_shot": "count",
    "runtime.us_per_invoke": "us",
    "runtime.shot_setup_us": "us",
    "prelude.intrinsics_self_s": "s",
    **{f"simulator.{c}.{m}": u for c in GATE_CLASSES
       for m, u in (("calls", "count"), ("s", "s"), ("ns_per_amp", "ns"))},
    **{f"simulator.{c}.{m}": u for c in SIMULATOR_CALLS
       for m, u in (("calls", "count"), ("s", "s"))},
    "simulator.bytes_computed": "B",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "other.s": "s",
}


def gate_class(matrix, control_ids: Sequence[int]) -> str:
    """Class of one `apply` call, from its own arguments."""
    diagonal = matrix[0, 1] == 0 and matrix[1, 0] == 0
    if control_ids:
        return "ctl_diag" if diagonal else "ctl_dense"
    return "diag1" if diagonal else "dense1"


class SpanLog:
    """Spans in parallel arrays: name id, parent index, start/end ns, amplitudes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.amps = array("q")
        self._open = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, amps: int = 0) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.amps.append(amps)
        self.end.append(0)
        self._open.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._open.pop()

    def add(self, name: str, start: int, end: int, parent: int = -1, amps: int = 0) -> int:
        """Append a finished span, in start order (to build span trees by hand)."""
        index = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.amps.append(amps)
        return index

    def __len__(self) -> int:
        return len(self.name)


def self_times(log: SpanLog) -> list[int]:
    """Per span: its duration minus the union of its children's intervals.

    Spans are stored in the order they started, so each parent meets its
    children in start order and one pass can merge their intervals.
    """
    covered = [0] * len(log)
    reach = list(log.start)  # per span: how far its children cover it
    for i in range(len(log)):
        p = log.parent[i]
        if p >= 0:
            lo, hi = max(log.start[i], reach[p]), min(log.end[i], log.end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
    return [log.end[i] - log.start[i] - covered[i] for i in range(len(log))]


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.tokens = 0
        self.specs_generated = 0
        self.invokes = 0
        self.rounds = 0
        self.round_ns = 0

    def _timed(self, name: str, fn: Callable) -> Callable:
        log, name_id = self.log, self.log.name_id(name)

        def wrapper(*args, **kwargs):
            index = log.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(index)

        return wrapper

    def _timed_simulator(self, name: str, fn: Callable) -> Callable:
        log, name_id = self.log, self.log.name_id(f"simulator.{name}")

        def wrapper(sim, *args, **kwargs):
            index = log.open(name_id, 1 << sim.num_qubits)
            try:
                return fn(sim, *args, **kwargs)
            finally:
                log.close(index)

        return wrapper

    def _wrappers(self) -> list[tuple[object, str, Callable]]:
        log = self.log
        tokenize = qdsl.parser.tokenize
        generate_all = qdsl.transform.generate_all
        invoke = Interpreter.invoke
        apply = StateVectorSimulator.apply
        lexer_id = log.name_id("lexer")
        transform_id = log.name_id("transform")
        class_ids = {c: log.name_id(f"simulator.{c}") for c in GATE_CLASSES}

        def traced_tokenize(text, file="<input>"):
            index = log.open(lexer_id)
            try:
                tokens, diags = tokenize(text, file)
            finally:
                log.close(index)
            self.tokens += len(tokens)
            return tokens, diags

        def traced_generate_all(symbols, checker):
            index = log.open(transform_id)
            try:
                problems = generate_all(symbols, checker)
            finally:
                log.close(index)
            self.specs_generated += sum(
                entry.generated
                for sym in symbols
                for entry in sym.specializations.values()
            )
            return problems

        def counted_invoke(interp, closure, arg):
            self.invokes += 1
            return invoke(interp, closure, arg)

        def traced_apply(sim, matrix, target_id, control_ids=()):
            name_id = class_ids[gate_class(matrix, control_ids)]
            index = log.open(name_id, 1 << sim.num_qubits)
            try:
                return apply(sim, matrix, target_id, control_ids)
            finally:
                log.close(index)

        sim = StateVectorSimulator
        return [
            (qdsl.parser, "tokenize", traced_tokenize),
            (qdsl.compiler, "parse_program",
             self._timed("parser", qdsl.compiler.parse_program)),
            (Checker, "collect", self._timed("checker.collect", Checker.collect)),
            (Checker, "resolve_signatures",
             self._timed("checker.resolve", Checker.resolve_signatures)),
            (Checker, "check_bodies",
             self._timed("checker.bodies", Checker.check_bodies)),
            (qdsl.transform, "generate_all", traced_generate_all),
            (qdsl.compiler, "compile_units",
             self._timed("compiler", qdsl.compiler.compile_units)),
            (qdsl.runtime, "run_shots", self._timed("runtime", qdsl.runtime.run_shots)),
            (Interpreter, "__init__",
             self._timed("runtime.shot_setup", Interpreter.__init__)),
            (Interpreter, "invoke", counted_invoke),
            (sim, "apply", traced_apply),
            (sim, "measure", self._timed_simulator("measure", sim.measure)),
            (sim, "probe_zero_probability",
             self._timed_simulator("probe", sim.probe_zero_probability)),
            (sim, "allocate", self._timed_simulator("allocate", sim.allocate)),
            (sim, "release", self._timed_simulator("release", sim.release)),
        ]

    def wrap_handlers(self, handlers: dict[str, Callable]) -> dict[str, Callable]:
        """The intrinsic handler dict with every handler recording a span."""
        return {name: self._timed("prelude", fn) for name, fn in handlers.items()}

    @contextmanager
    def installed(self):
        """Trace one round of work; its wall time counts towards `trace.wall_s`."""
        wrappers = self._wrappers()
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in wrappers]
        for owner, attr, wrapper in wrappers:
            setattr(owner, attr, wrapper)
        start = time.perf_counter_ns()
        try:
            yield self
        finally:
            self.round_ns += time.perf_counter_ns() - start
            self.rounds += 1
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, per round of work, from the recorded spans."""
        log = self.log
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        amps: dict[str, int] = defaultdict(int)
        for i, self_ns in enumerate(self_times(log)):
            name = log.names[log.name[i]]
            calls[name] += 1
            total[name] += log.end[i] - log.start[i]
            own[name] += self_ns
            amps[name] += log.amps[i]
        rounds = max(self.rounds, 1)

        def per_round_s(ns: float) -> float:
            return ns / 1e9 / rounds

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        runtime_ns = own["runtime"] + own["runtime.shot_setup"]
        shots = calls["runtime.shot_setup"]
        out = {
            "lexer.s": per_round_s(own["lexer"]),
            "lexer.tokens_per_s": ratio(self.tokens * 1e9, total["lexer"]),
            "parser.self_s": per_round_s(own["parser"]),
            "checker.collect_s": per_round_s(own["checker.collect"]),
            "checker.resolve_s": per_round_s(own["checker.resolve"]),
            "checker.bodies_s": per_round_s(own["checker.bodies"]),
            "transform.s": per_round_s(own["transform"]),
            "transform.specs_generated": self.specs_generated / rounds,
            "compiler.self_s": per_round_s(own["compiler"]),
            "runtime.self_s": per_round_s(runtime_ns),
            "runtime.invokes_per_shot": ratio(self.invokes, shots),
            "runtime.us_per_invoke": ratio(runtime_ns / 1e3, self.invokes),
            "runtime.shot_setup_us": ratio(total["runtime.shot_setup"] / 1e3, shots),
            "prelude.intrinsics_self_s": per_round_s(own["prelude"]),
        }
        simulator_amps = 0
        for kind in GATE_CLASSES + SIMULATOR_CALLS:
            name = f"simulator.{kind}"
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.s"] = per_round_s(own[name])
            if kind in GATE_CLASSES:
                out[f"{name}.ns_per_amp"] = ratio(total[name], amps[name])
            simulator_amps += amps[name]
        out["simulator.bytes_computed"] = BYTES_PER_AMPLITUDE * simulator_amps / rounds
        out["trace.wall_s"] = per_round_s(self.round_ns)
        out["other.s"] = per_round_s(self.round_ns - sum(own.values()))
        return out

    def write_spans(self, path: Path) -> None:
        """Save every span as CSV: id, parent, name, start_ns, end_ns, amplitudes."""
        log = self.log
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,name,start_ns,end_ns,amplitudes\n")
            for i in range(len(log)):
                out.write(f"{i},{log.parent[i]},{log.names[log.name[i]]},"
                          f"{log.start[i]},{log.end[i]},{log.amps[i]}\n")

