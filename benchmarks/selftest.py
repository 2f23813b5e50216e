"""Self-tests of the benchmark harness.

Run from the repository root with either of

    python3 benchmarks/selftest.py
    python3 -m pytest -q benchmarks/selftest.py

The file name does not match pytest's `test_*.py` pattern and `tests/` is the
configured test path, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import SPEC, use_checkout_sources  # noqa: E402

use_checkout_sources()

import harness  # noqa: E402
import tracing  # noqa: E402
from qdsl.prelude import intrinsic_handlers  # noqa: E402
from qdsl.simulator import GATE_MATRICES, StateVectorSimulator, r1frac_matrix  # noqa: E402


def _workdir() -> tempfile.TemporaryDirectory:
    harness.OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="selftest-", dir=harness.OUT)


def test_self_time_subtracts_the_union_of_child_intervals():
    log = tracing.SpanLog()
    root = log.add("compiler", 0, 100)
    parse = log.add("parser", 10, 40, parent=root)
    log.add("lexer", 20, 30, parent=parse)
    log.add("checker.collect", 50, 70, parent=root)
    log.add("checker.bodies", 60, 80, parent=root)  # overlaps its sibling
    log.add("transform", 90, 120, parent=root)  # runs past its parent's end
    assert tracing.self_times(log) == [100 - 30 - 30 - 10, 20, 10, 20, 20, 30]


def test_self_times_and_other_add_up_to_the_traced_wall_time():
    tracer = tracing.Tracer()
    log = tracer.log
    root = log.add("runtime", 0, 1000)
    log.add("runtime.shot_setup", 0, 100, parent=root)
    handler = log.add("prelude", 200, 600, parent=root)
    log.add("simulator.dense1", 300, 500, parent=handler, amps=4)
    tracer.rounds, tracer.round_ns, tracer.invokes = 1, 1500, 5
    metrics = tracer.metrics()
    expected = {
        # runtime: 1000 - 100 - 400 of its own, plus shot setup's 100
        "runtime.self_s": 600e-9,
        "prelude.intrinsics_self_s": 200e-9,
        "simulator.dense1.s": 200e-9,
        "simulator.dense1.ns_per_amp": 50,
        "simulator.bytes_computed": 16 * 4,
        "runtime.us_per_invoke": 0.6 / 5,
        "other.s": 500e-9,
        "trace.wall_s": 1500e-9,
    }
    for name, value in expected.items():
        assert math.isclose(metrics[name], value), (name, metrics[name])
    layers = ("runtime.self_s", "prelude.intrinsics_self_s", "simulator.dense1.s")
    assert math.isclose(sum(metrics[k] for k in layers) + metrics["other.s"],
                        metrics["trace.wall_s"])


def test_gate_classifier_on_the_real_gate_matrices():
    expected = {"H": "dense1", "X": "dense1", "Y": "dense1",
                "I": "diag1", "Z": "diag1", "T": "diag1"}
    for name, matrix in GATE_MATRICES.items():
        assert tracing.gate_class(matrix, ()) == expected[name], name
        assert tracing.gate_class(matrix.conj().T, ()) == expected[name], name
        controlled = "ctl_" + expected[name][:-1]
        assert tracing.gate_class(matrix, (3,)) == controlled, name
    for numerator, power in ((1, 1), (1, 5), (-1, 15), (3, 2)):
        matrix = r1frac_matrix(numerator, power)
        assert tracing.gate_class(matrix, ()) == "diag1"
        assert tracing.gate_class(matrix, (0, 1)) == "ctl_diag"


def test_traced_simulator_calls_record_class_and_live_amplitudes():
    tracer = tracing.Tracer()
    original = StateVectorSimulator.apply
    with tracer.installed():
        assert StateVectorSimulator.apply is not original
        sim = StateVectorSimulator()
        for q in range(3):
            sim.allocate(q)
        sim.apply(GATE_MATRICES["H"], 0)
        sim.apply(GATE_MATRICES["T"], 1)
        sim.apply(GATE_MATRICES["X"], 2, [0])
        sim.apply(r1frac_matrix(1, 3), 2, [1])
    assert StateVectorSimulator.apply is original
    log = tracer.log
    recorded = [(log.names[log.name[i]], log.amps[i]) for i in range(len(log))]
    assert recorded == [
        ("simulator.allocate", 1), ("simulator.allocate", 2),
        ("simulator.allocate", 4), ("simulator.dense1", 8),
        ("simulator.diag1", 8), ("simulator.ctl_dense", 8),
        ("simulator.ctl_diag", 8),
    ]


def _shots(workload, count: int) -> list:
    workload.start_round()
    handlers = intrinsic_handlers()
    return [workload.run_op(handlers) for _ in range(count)]


def test_qft_check_rejects_a_wrong_answer():
    with _workdir() as tmp:
        work = harness.QftShots(7, Path(tmp))
        (value,) = _shots(work, 1)
        assert work.check_op(value) is None
        assert harness.check_qft_value(value, work.k ^ 1) is not None
        cli = harness.spawn(work.cli_args(), Path(tmp))
        assert cli.problem() is None and work.check_cli(cli.stdout) is None
        work.k ^= 1 << 15
        assert work.check_cli(cli.stdout) is not None


def test_coin_checks_reject_a_wrong_answer():
    with _workdir() as tmp:
        work = harness.CoinShots(7, Path(tmp))
        values = _shots(work, 200)
        assert all(work.check_op(v) is None for v in values)
        assert harness.check_coin_mean(values) is None
        assert harness.check_coin_mean(values, expected_mean=2.5) is not None
        assert harness.check_coin_tries(harness.COIN_ROUNDS - 1) is not None
        assert harness.check_coin_mean([harness.COIN_ROUNDS] * 200) is not None


def test_corpus_verdict_check_rejects_a_wrong_answer():
    with _workdir() as tmp:
        work = harness.CompileCorpus(7, Path(tmp))
        assert len(work.files) == 46
        codes = sorted({f.expected for f in work.files if f.expected})
        for _ in work.files:
            file, diagnostics = work.run_op({})
            assert harness.check_verdict(file, diagnostics) is None
            wrong = next(c for c in codes if c != file.expected)
            assert harness.check_verdict(
                dataclasses.replace(file, expected=wrong), diagnostics) is not None
        cli = harness.spawn(work.cli_args(), Path(tmp))
        assert cli.problem(work.cli_exit_code) is None
        assert work.check_cli(cli.stdout) is None
        work.cli_file = dataclasses.replace(work.cli_file, expected=None)
        assert work.check_cli(cli.stdout) is not None


def test_identical_output_check_rejects_differing_bytes():
    assert harness.check_identical([b"{}", b"{}"]) is None
    assert harness.check_identical([b"{}", b"{} "]) is not None


def test_reference_clock_scales_by_the_readings_near_the_work():
    clock = harness.ReferenceClock()
    clock.readings = [(0.0, 0.002), (2.0, 0.003), (4.0, 0.005), (10.0, 0.004)]
    ref = harness.REF_PASS_S
    assert math.isclose(clock.factor(1.0), ref / 0.003)  # readings at 0, 2 and 4 s
    assert math.isclose(clock.factor(-0.5), ref / 0.0025)  # readings at 0 and 2 s
    assert math.isclose(clock.factor(30.0), ref / 0.004)  # none near: the nearest
    clock.tick()
    assert len(clock.readings) == 5 and clock.readings[-1][1] > 0


def test_spawn_reports_the_child_peak_rss_not_the_parent_one():
    ballast = bytearray(64 << 20)  # the parent grows by 64 MiB
    with _workdir() as tmp:
        bare = harness.spawn(["-c", "pass"], Path(tmp))
        grown = harness.spawn(["-c", "x = bytearray(64 << 20)"], Path(tmp))
    assert bare.problem() is None and grown.problem() is None
    assert bare.max_rss_mb < 32, bare
    assert grown.max_rss_mb > bare.max_rss_mb + 48, grown
    del ballast


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads(SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert harness.UNITS[metric["name"]] == metric["unit"], metric


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
