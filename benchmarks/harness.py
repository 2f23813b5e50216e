"""Workloads, known-answer checks and measurement for the qdsl benchmark.

Closed loop with one client: the benchmark process runs one shot, one
verdict or one CLI process at a time and starts the next only when the
previous one has finished, so only one process computes at a time. Every
generated input comes from the workload seed, and every output is checked
against an answer known without running qdsl.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import qdsl.compiler
import qdsl.runtime
from qdsl.compiler import wrap_statement_snippet
from qdsl.prelude import intrinsic_handlers
from qdsl.runtime import RunOptions

from run import CORPUS, ROOT, SRC
import tracing

OUT = Path(__file__).resolve().parent / "out"

SPAWN_TIMEOUT_S = 20  # a hung child is killed, so a run still ends in time
MIN_CYCLES = 3  # a run measures at least this many cycles, however short
OPS_SLICE_S = 1.0  # in-process operations per cycle of an end-to-end run
P90_MIN_SAMPLES = 100  # a p90 needs at least ten samples beyond it

QFT_QUBITS = 16
QFT_ONES = 8  # fixed popcount of k, so every seed applies the same gates
COIN_ROUNDS = 20
COIN_MEAN = 2.0  # tries until One, geometric with p = 1/2
COIN_VARIANCE = 2.0  # (1 - p) / p^2
COIN_SIGMAS = 5.0

Problem = Optional[str]


# ── Known-answer checks ─────────────────────────────────────────────────────


def check_qft_value(value: Any, k: int) -> Problem:
    if value != k:
        return f"QFT then adjoint QFT on |{k}> measured {value!r}"
    return None


def check_coin_tries(value: Any) -> Problem:
    if not isinstance(value, int) or value < COIN_ROUNDS:
        return f"{COIN_ROUNDS} repeat-until-One rounds reported {value!r} tries"
    return None


def check_coin_mean(tries: list[int], expected_mean: float = COIN_MEAN) -> Problem:
    """Mean tries per round within COIN_SIGMAS standard errors of the mean."""
    rounds = COIN_ROUNDS * len(tries)
    if rounds == 0:
        return "no repeat-until-One rounds ran"
    mean = sum(tries) / rounds
    limit = COIN_SIGMAS * math.sqrt(COIN_VARIANCE / rounds)
    if abs(mean - expected_mean) > limit:
        return (f"{rounds} rounds took {mean:.4f} tries on average, "
                f"expected {expected_mean} within {limit:.4f}")
    return None


@dataclass(frozen=True)
class CorpusFile:
    name: str
    text: str  # as compiled: statement files are wrapped into a Main
    exclude: tuple[str, ...]  # prelude files the corpus file replaces
    expected: Optional[str]  # first error code; None for an accept file
    plain: bool  # compiles unchanged from its path, so `qdsl check` can take it

    @property
    def path(self) -> Path:
        return CORPUS / ("accept" if self.expected is None else "reject") / self.name


def load_corpus() -> list[CorpusFile]:
    """Every corpus file, loaded the way tests/test_corpus.py loads it."""
    files = []
    for name in sorted(os.listdir(CORPUS / "accept")):
        text = (CORPUS / "accept" / name).read_text()
        first = text.splitlines()[0]
        exclude: tuple[str, ...] = ()
        if first.startswith("// prelude-exclude:"):
            exclude = tuple(first.split(":", 1)[1].split())
        plain = not exclude and first.strip() != "// statements"
        if first.strip() == "// statements":
            text = wrap_statement_snippet(text)
        files.append(CorpusFile(name, text, exclude, None, plain))
    for name in sorted(os.listdir(CORPUS / "reject")):
        text = (CORPUS / "reject" / name).read_text()
        expected = text.splitlines()[0].split("// expect:")[1].strip()
        files.append(CorpusFile(name, text, (), expected, True))
    return files


def check_verdict(file: CorpusFile, diagnostics: list[tuple[str, str]]) -> Problem:
    """`diagnostics` holds (severity, code) pairs in the order reported."""
    if file.expected is None:
        if diagnostics:
            return f"accept file {file.name} gave {diagnostics}"
        return None
    errors = [code for severity, code in diagnostics if severity == "error"]
    if not errors or errors[0] != file.expected:
        return f"reject file {file.name} gave {errors}, expected {file.expected} first"
    return None


def check_identical(outputs: list[bytes]) -> Problem:
    if any(out != outputs[0] for out in outputs):
        return "two invocations of one seeded CLI command printed different bytes"
    return None


# ── Child processes ─────────────────────────────────────────────────────────


@dataclass
class Spawned:
    args: list[str]
    code: int
    seconds: float
    max_rss_mb: float
    stdout: bytes
    stderr: bytes

    def problem(self, expected_code: int = 0) -> Problem:
        if self.code != expected_code:
            tail = self.stderr.decode(errors="replace").strip()[-300:]
            return f"`python {' '.join(self.args)}` exited with {self.code}: {tail}"
        return None


# A child's ru_maxrss also counts the memory of the process that forked it,
# so the benchmark process, which holds the in-process workload, does not
# fork qdsl itself. It starts this launcher with `python -S` (a few MB), and
# the launcher forks and execs the command, waits for it and writes its exit
# code, wall time and peak RSS (KiB on Linux) to the report file. The
# launcher kills the command after the timeout, so no process outlives it.
LAUNCHER = """
import os, signal, sys, time
report, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(argv[0], argv)
    finally:
        os._exit(127)
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.setitimer(signal.ITIMER_REAL, timeout)
_, status, usage = os.wait4(pid, 0)
seconds = time.perf_counter() - start
with open(report, "w") as f:
    f.write(f"{os.waitstatus_to_exitcode(status)} {seconds!r} {usage.ru_maxrss}")
"""


def spawn(args: list[str], workdir: Path) -> Spawned:
    """Run `python <args>` on the checkout's sources; wall time and peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    report = workdir / "spawn-report.txt"
    report.unlink(missing_ok=True)
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-S", "-c", LAUNCHER, str(report), str(SPAWN_TIMEOUT_S),
             sys.executable, *args],
            stdout=out, stderr=err, cwd=ROOT, env=env)
        try:
            proc.wait(SPAWN_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        out.seek(0)
        err.seek(0)
        try:
            code, seconds, max_rss_kib = report.read_text().split()
            measured = int(code), float(seconds), int(max_rss_kib) / 1024
        except (OSError, ValueError):  # the launcher failed: a counted failure
            measured = proc.returncode or -1, time.perf_counter() - start, 0.0
        return Spawned(args, *measured, out.read(), err.read())


# ── Workloads ───────────────────────────────────────────────────────────────


class ShotsWorkload:
    """A generated program run one shot at a time; shot i uses seed ^ i."""

    name = ""
    cli_exit_code = 0
    cli_shots = 1
    round_ops = 1  # shots per round of the traced run
    warmup_ops = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.program = self.make_program(rng)
        self.path = workdir / f"{self.name}.qds"
        self.path.write_text(self.program)
        self.setup_path = self.path
        self.shot_seed = rng.getrandbits(31)
        self.next_shot = 0
        self.values: list[Any] = []
        self.entry = None

    def make_program(self, rng: random.Random) -> str:
        raise NotImplementedError

    def check_value(self, value: Any) -> Problem:
        raise NotImplementedError

    def check_values(self, values: list[Any]) -> Problem:
        return None

    def cli_args(self) -> list[str]:
        return ["-m", "qdsl", "run", str(self.path), "--shots", str(self.cli_shots),
                "--seed", str(self.shot_seed), "--json"]

    def check_cli(self, stdout: bytes) -> Problem:
        try:
            payload = json.loads(stdout)
            values = [int(v) for v in payload["results"]]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable `qdsl run --json` output: {exc!r}"
        if payload.get("ok") is not True or len(values) != self.cli_shots:
            return f"`qdsl run --json` reported {payload.get('ok')!r} for {len(values)} shots"
        for value in values:
            problem = self.check_value(value)
            if problem:
                return problem
        return self.check_values(values)

    def start_round(self) -> None:
        result = qdsl.compiler.compile_units([(str(self.path), self.program)])
        if not result.ok:
            raise RuntimeError(f"{self.name} program does not compile: "
                               f"{[d.render() for d in result.errors]}")
        self.entry, err = qdsl.compiler.resolve_entry(result, None)
        if err is not None:
            raise RuntimeError(err)

    def run_op(self, handlers: dict[str, Callable]) -> Any:
        shot, self.next_shot = self.next_shot, self.next_shot + 1
        results = qdsl.runtime.run_shots(handlers, self.entry, 1, self.shot_seed ^ shot,
                                         RunOptions())
        return results[0].value

    def check_op(self, output: Any) -> Problem:
        self.values.append(output)
        return self.check_value(output)

    def finish(self) -> Problem:
        return self.check_values(self.values)


class QftShots(ShotsWorkload):
    """Prepare |k>, QFT, adjoint QFT, measure: the simulator workload."""

    name = "qft_shots"

    def make_program(self, rng: random.Random) -> str:
        bits = sorted(rng.sample(range(QFT_QUBITS), QFT_ONES))
        self.k = sum(1 << b for b in bits)
        prepare = "".join(f"                X(qs[{b}]);\n" for b in bits)
        return (
            "namespace Bench {\n"
            "    open Microsoft.Quantum.Primitive;\n"
            "    open Microsoft.Quantum.Canon;\n"
            "\n"
            "    operation Main () : Int {\n"
            "        body {\n"
            "            mutable value = 0;\n"
            f"            using (qs = Qubit[{QFT_QUBITS}]) {{\n"
            f"{prepare}"
            "                QFT(BigEndian(qs));\n"
            "                (Adjoint QFT)(BigEndian(qs));\n"
            f"                for (i in 0 .. {QFT_QUBITS - 1}) {{\n"
            "                    if (Measure([PauliZ], [qs[i]]) == One) {\n"
            "                        set value = value + (1 << i);\n"
            "                        X(qs[i]);\n"
            "                    }\n"
            "                }\n"
            "            }\n"
            "            return value;\n"
            "        }\n"
            "    }\n"
            "}\n"
        )

    def check_value(self, value: Any) -> Problem:
        return check_qft_value(value, self.k)


class CoinShots(ShotsWorkload):
    """Repeat-until-success coin on one qubit: the runtime workload."""

    name = "rus_coin"
    cli_shots = 100
    round_ops = 50
    warmup_ops = 20

    def make_program(self, rng: random.Random) -> str:
        return (
            "namespace Bench {\n"
            "    open Microsoft.Quantum.Primitive;\n"
            "\n"
            "    operation Main () : Int {\n"
            "        body {\n"
            "            mutable tries = 0;\n"
            "            using (q = Qubit()) {\n"
            f"                for (round in 1 .. {COIN_ROUNDS}) {{\n"
            "                    repeat {\n"
            "                        H(q);\n"
            "                        let outcome = Measure([PauliZ], [q]);\n"
            "                        set tries = tries + 1;\n"
            "                    } until outcome == One\n"
            "                    fixup {\n"
            "                    }\n"
            "                    X(q);\n"
            "                }\n"
            "            }\n"
            "            return tries;\n"
            "        }\n"
            "    }\n"
            "}\n"
        )

    def check_value(self, value: Any) -> Problem:
        return check_coin_tries(value)

    def check_values(self, values: list[Any]) -> Problem:
        return check_coin_mean(values)


class CompileCorpus:
    """Every corpus file compiled alone, in a seeded order: the front-end workload."""

    name = "compile_corpus"
    cli_exit_code = 1  # the CLI command checks a reject file
    warmup_ops = 46

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.files = load_corpus()
        rng.shuffle(self.files)
        self.round_ops = len(self.files)
        self.setup_path = rng.choice([f for f in self.files
                                      if f.expected is None and f.plain]).path
        self.cli_file = rng.choice([f for f in self.files if f.expected is not None])
        self.next_file = 0

    def cli_args(self) -> list[str]:
        return ["-m", "qdsl", "check", "--json", str(self.cli_file.path)]

    def check_cli(self, stdout: bytes) -> Problem:
        try:
            diagnostics = [(d["severity"], d["code"])
                           for d in json.loads(stdout)["diagnostics"]]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable `qdsl check --json` output: {exc!r}"
        return check_verdict(self.cli_file, diagnostics)

    def start_round(self) -> None:
        pass

    def run_op(self, handlers: dict[str, Callable]) -> Any:
        file = self.files[self.next_file % len(self.files)]
        self.next_file += 1
        result = qdsl.compiler.compile_units([(file.name, file.text)],
                                             prelude_exclude=file.exclude)
        return file, [(d.severity.value, d.code) for d in result.diagnostics]

    def check_op(self, output: Any) -> Problem:
        return check_verdict(*output)

    def finish(self) -> Problem:
        return None


WORKLOADS = {w.name: w for w in (QftShots, CoinShots, CompileCorpus)}


# ── Reference speed ─────────────────────────────────────────────────────────
#
# On a shared virtual machine the same code runs up to 1.7 times slower for
# spells of seconds to minutes while other tenants load the host. So every
# end-to-end time is read against a fixed reference kernel, timed within
# REF_WINDOW_S of it, and reported at the reference speed:
# wall time × REF_PASS_S / pass time. The kernel does not depend on qdsl, so
# a change to qdsl moves the scaled time by the share it moves the wall time.

REF_PASS_S = 0.0025  # the reference speed: one kernel pass takes 2.5 ms
REF_PASSES = 3  # passes per reading; the reading is their median
REF_EVERY_S = 0.25  # in-process ops between two readings
REF_WINDOW_S = 3.0  # a time is scaled by the readings this close to it

_REF_GATE = np.eye(2, dtype=complex)
_REF_STATE = np.ones(1 << 16, dtype=complex)  # 1 MiB, like a 16-qubit state


def reference_pass() -> None:
    """A fixed mix of the kinds of work qdsl does: interpreted arithmetic,
    dict and tuple traffic, numpy calls on 2 amplitudes and passes over a
    1 MiB complex array."""
    total = 0
    for i in range(2500):
        total += i * i % 7
    table: dict = {}
    for i in range(750):
        table[("k", i % 97)] = [i, str(i)]
        table.get(("k", i % 31))
    amps = np.array([1, 0], dtype=complex)
    for _ in range(75):
        amps = _REF_GATE @ amps
        amps = amps / np.linalg.norm(amps)
    state = _REF_STATE
    for _ in range(5):
        state = state * 1.0000001


class ReferenceClock:
    """Readings of the reference kernel, each with the time it was taken."""

    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []  # (time, pass seconds)

    def tick(self) -> None:
        passes = []
        for _ in range(REF_PASSES):
            start = time.perf_counter()
            reference_pass()
            passes.append(time.perf_counter() - start)
        self.readings.append((time.perf_counter(), statistics.median(passes)))

    def factor(self, at: float) -> float:
        """Wall time to reference-speed time for work whose midpoint is `at`:
        REF_PASS_S over the median reading within REF_WINDOW_S of it, or over
        the nearest reading if none is that close."""
        near = [r for t, r in self.readings if abs(t - at) <= REF_WINDOW_S]
        if not near:
            near = [min(self.readings, key=lambda tr: abs(tr[0] - at))[1]]
        return REF_PASS_S / statistics.median(near)


# ── Measurement ─────────────────────────────────────────────────────────────


class Tally:
    """Operations attempted and failed: checks, errors and non-zero exits."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, problem: Problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"check failed: {problem}", file=sys.stderr)


def attempt(fn: Callable, *args) -> tuple[Any, Problem]:
    """Call fn; an exception becomes a counted failure, not a crash."""
    try:
        return fn(*args), None
    except Exception as exc:  # a failing operation is measured, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def spawn_checked(args: list[str], workdir: Path, tally: Tally,
                  check: Callable[[bytes], Problem] = lambda out: None,
                  expected_code: int = 0) -> Spawned:
    run = spawn(args, workdir)
    tally.check(run.problem(expected_code) or check(run.stdout))
    return run


def do_op(work, handlers, tally: Tally) -> float:
    """One checked operation; returns its duration in seconds."""
    start = time.perf_counter()
    output, problem = attempt(work.run_op, handlers)
    seconds = time.perf_counter() - start
    tally.check(problem or work.check_op(output))
    return seconds


def end_to_end(work, seconds: float, tally: Tally, workdir: Path) -> tuple[dict, dict]:
    check_args = ["-m", "qdsl", "check", str(work.setup_path)]
    # Warm the page and bytecode caches; these are not timed.
    spawn_checked(check_args, workdir, tally)
    handlers = intrinsic_handlers()
    tally.check(attempt(work.start_round)[1])
    for _ in range(work.warmup_ops):
        do_op(work, handlers, tally)

    # Each cycle spawns one `qdsl check`, one CLI command and then runs
    # in-process operations for OPS_SLICE_S, so every metric samples the
    # whole run and a slow spell of the machine moves no median alone. The
    # reference clock is read after each spawn and every REF_EVERY_S of ops.
    clock = ReferenceClock()
    clock.tick()
    setups: list[Spawned] = []
    clis: list[Spawned] = []
    samples: dict[str, list[tuple[float, float]]] = {"setup": [], "cli": [], "op": []}

    def sample(kind: str, wall_s: float) -> None:  # at the midpoint of the work
        samples[kind].append((time.perf_counter() - wall_s / 2, wall_s))

    deadline = time.perf_counter() + seconds
    while len(setups) < MIN_CYCLES or time.perf_counter() < deadline:
        setups.append(spawn_checked(check_args, workdir, tally))
        sample("setup", setups[-1].seconds)
        clock.tick()
        clis.append(spawn_checked(work.cli_args(), workdir, tally, work.check_cli,
                                  work.cli_exit_code))
        sample("cli", clis[-1].seconds)
        clock.tick()
        slice_end = time.perf_counter() + OPS_SLICE_S
        tick_at = time.perf_counter() + REF_EVERY_S
        while True:
            sample("op", do_op(work, handlers, tally))
            now = time.perf_counter()
            if now >= min(tick_at, slice_end):
                clock.tick()
                tick_at = now + REF_EVERY_S
                if now >= slice_end:
                    break
    tally.check(check_identical([run.stdout for run in clis]))
    tally.check(work.finish())

    wall = {kind: [w for _, w in got] for kind, got in samples.items()}
    scaled = {kind: [w * clock.factor(t) for t, w in got]
              for kind, got in samples.items()}
    latencies = scaled["op"]
    metrics = {
        "setup_s": statistics.median(scaled["setup"]),
        "cli_s": statistics.median(scaled["cli"]),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "peak_rss_mb": statistics.median(run.max_rss_mb for run in clis),
    }
    report = {
        "wall.setup_s": statistics.median(wall["setup"]),
        "wall.cli_s": statistics.median(wall["cli"]),
        "wall.ops_per_s": len(wall["op"]) / sum(wall["op"]),
        "wall.op_ms_p50": statistics.median(wall["op"]) * 1e3,
        "ref.pass_ms_p50": statistics.median(r for _, r in clock.readings) * 1e3,
        "ref.readings": len(clock.readings),
        "ops": len(latencies),
        "spawns": len(setups) + len(clis),
    }
    if len(latencies) >= P90_MIN_SAMPLES:
        report["op_ms_p90"] = statistics.quantiles(latencies, n=10)[8] * 1e3
    return metrics, report


IMPORT_PROBE = ("import time; start = time.perf_counter(); import qdsl.cli; "
                "print(time.perf_counter() - start)")


def check_import_probe(out: bytes) -> Problem:
    try:
        float(out)
    except ValueError:
        return f"import probe printed {out[:80]!r}"
    return None


def per_layer(work, seconds: float, tally: Tally, workdir: Path) -> tuple[dict, dict]:
    def one_round(handlers) -> None:
        tally.check(attempt(work.start_round)[1])
        for _ in range(work.round_ops):
            do_op(work, handlers, tally)

    import_args = ["-c", IMPORT_PROBE]
    spawn_checked(import_args, workdir, tally, check_import_probe)  # warm-up
    handlers = intrinsic_handlers()
    one_round(handlers)  # warm-up
    tracer = tracing.Tracer()
    imports: list[Spawned] = []
    untraced_ns = 0
    # Each cycle: one import probe, one untraced round, the same round traced.
    deadline = time.perf_counter() + seconds
    while tracer.rounds < MIN_CYCLES or time.perf_counter() < deadline:
        imports.append(spawn_checked(import_args, workdir, tally, check_import_probe))
        start = time.perf_counter_ns()
        one_round(handlers)
        untraced_ns += time.perf_counter_ns() - start
        with tracer.installed():
            one_round(tracer.wrap_handlers(handlers))
    tally.check(work.finish())

    metrics = tracer.metrics()
    import_s = [float(run.stdout) for run in imports
                if not (run.problem() or check_import_probe(run.stdout))]
    metrics["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    metrics["trace.overhead_ratio"] = tracer.round_ns / untraced_ns
    tracer.write_spans(OUT / f"spans-{work.name}.csv")
    report = {"rounds": tracer.rounds, "spans": len(tracer.log)}
    return metrics, report


UNITS = {
    "setup_s": "s", "cli_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
    # Printed only: p90 exists only with enough samples, and fail_ratio is
    # 0 on a correct run (the result line carries attempted and failed).
    "op_ms_p90": "ms", "ops": "count", "fail_ratio": "ratio",
    "wall.setup_s": "s", "wall.cli_s": "s", "wall.ops_per_s": "1/s",
    "wall.op_ms_p50": "ms", "ref.pass_ms_p50": "ms", "ref.readings": "count",
    "spawns": "count", "rounds": "count", "spans": "count",
    **tracing.UNITS,
}


def run(name: str, seed: int, seconds: float, trace: bool,
        reported: list[str]) -> dict[str, Any]:
    """One benchmark run; returns the result line, with the `reported` metrics."""
    # One CPU for the benchmark and its children: the vCPUs of a shared
    # virtual machine change speed independently, and the reference clock
    # must read the speed of the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        work = WORKLOADS[name](seed, workdir)
        measure = per_layer if trace else end_to_end
        metrics, report = measure(work, seconds, tally, workdir)
    finally:
        shutil.rmtree(workdir)
    report["fail_ratio"] = tally.failed / max(tally.attempted, 1)
    for key, value in {**metrics, **report}.items():
        print(f"{key} {value} {UNITS[key]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in reported},
    }
