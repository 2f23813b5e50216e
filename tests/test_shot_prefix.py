"""Shots of one entry point share the simulator work before the first draw.

The first shot of an entry records its simulator operations up to its first
random draw, the next shot that repeats them copies the state they leave, and
later shots check their operations against the record and load that copy
(see `simulator.ShotPrefix`). None of it may show: every shot must give the
value, messages, `RunStats` and dumped amplitudes, byte for byte, that it
gives on an entry compiled afresh, which has nothing recorded.
"""

from __future__ import annotations

import os

import pytest

import qdsl.simulator
from qdsl.compiler import compile_units, resolve_entry
from qdsl.prelude import intrinsic_handlers
from qdsl.runtime import QdslFailure, RunOptions, run_shots
from qdsl.simulator import GATE_MATRICES
from test_corpus import load_accept
from test_golden_runs import CASES, SEEDS, SHOTS, TRACE_CASES

HANDLERS = intrinsic_handlers()

# Every runnable accept-corpus program and every golden program.
PROGRAMS = {**CASES, "borrow_topup": TRACE_CASES["borrow_topup"]}

# The benchmark's repeat-until-success coin on one qubit: its prefix ends
# with a snapshot small enough for list storage.
RUS_COIN = """
namespace Bench {
    open Microsoft.Quantum.Primitive;

    operation Main () : Int {
        body {
            mutable tries = 0;
            using (q = Qubit()) {
                for (round in 1 .. 20) {
                    repeat {
                        H(q);
                        let outcome = Measure([PauliZ], [q]);
                        set tries = tries + 1;
                    } until outcome == One
                    fixup {
                    }
                    X(q);
                }
            }
            return tries;
        }
    }
}
"""

# A strict release, a gate sequence and a probe come before the first draw.
PREFIXED = """
namespace Demo {
    open Microsoft.Quantum.Primitive;
    open Microsoft.Quantum.Canon;

    operation Main () : Int {
        body {
            mutable value = 0;
            using (scratch = Qubit()) {
                X(scratch);
                X(scratch);
            }
            using (qs = Qubit[3]) {
                H(qs[0]);
                CNOT(qs[0], qs[1]);
                T(qs[2]);
                AssertProb([PauliZ; PauliZ], [qs[0]; qs[1]], Zero, 1.0, 1e-9);
                H(qs[2]);
                Message("prepared");
                for (i in 0 .. 2) {
                    if (Measure([PauliZ], [qs[i]]) == One) {
                        set value = value + (1 << i);
                        X(qs[i]);
                    }
                }
            }
            return value;
        }
    }
}
"""
PREFIXED_QUBITS = 3  # live when the prefix ends


def _source(path: str) -> tuple[str, tuple[str, ...]]:
    if os.path.dirname(path).endswith(os.path.join("corpus", "accept")):
        return load_accept(os.path.basename(path))
    with open(path, encoding="utf-8") as handle:
        return handle.read(), ()


def compile_entry(text: str, exclude: tuple[str, ...] = (), name=None):
    """A freshly compiled entry point, with no shot prefix recorded."""
    result = compile_units([("<test>", text)], prelude_exclude=exclude)
    assert result.ok, [d.message for d in result.errors]
    entry, err = resolve_entry(result, name)
    assert err is None, err
    return entry


def summary(shot) -> tuple:
    dumps = [(ids, amps.tobytes()) for ids, amps in shot.state_dumps]
    return shot.value, shot.messages, shot.stats, dumps


def shot_by_shot(entries, seed: int, options: RunOptions, handlers=HANDLERS):
    """One-shot calls, shot i on the i-th entry: its summaries, then the
    message of the shot that failed, or None."""
    out = []
    for shot, entry in zip(range(SHOTS), entries):
        try:
            [result] = run_shots(handlers, entry, 1, seed ^ shot, options)
        except QdslFailure as failure:
            return out, failure.message
        out.append(summary(result))
    return out, None


def fresh_entries(text: str, exclude: tuple[str, ...] = (), name=None):
    """The uncached reference: a new compile for every shot."""
    return (compile_entry(text, exclude, name) for _ in range(SHOTS))


def one_call(entry, seed: int, options: RunOptions, handlers=HANDLERS):
    try:
        results = run_shots(handlers, entry, SHOTS, seed, options)
    except QdslFailure as failure:
        return None, failure.message
    return [summary(r) for r in results], None


@pytest.mark.parametrize("name", sorted([*PROGRAMS, "rus_coin"]))
def test_cached_shots_match_uncached_reference(name):
    if name == "rus_coin":
        text, exclude, extra = RUS_COIN, (), []
    else:
        path, extra = PROGRAMS[name]
        text, exclude = _source(path)
    entry_name = extra[extra.index("--entry") + 1] if "--entry" in extra else None
    strict = "--permissive-release" not in extra
    for seed in SEEDS:
        dumped = shot_by_shot(
            fresh_entries(text, exclude, entry_name), seed,
            RunOptions(strict_release=strict, dump_state=True),
        )
        assert dumped[1] is None, dumped[1]
        for dump in (False, True):
            # Dumping the state changes nothing else about a shot.
            expected = dumped if dump else ([(*s[:3], []) for s in dumped[0]], None)
            options = RunOptions(strict_release=strict, dump_state=dump)
            entry = compile_entry(text, exclude, entry_name)
            assert one_call(entry, seed, options) == expected, (dump, seed)
            entries = [compile_entry(text, exclude, entry_name)] * SHOTS
            assert shot_by_shot(entries, seed, options) == expected, (dump, seed)


@pytest.mark.parametrize("dump", [False, True], ids=["plain", "dump"])
def test_prefix_with_probe_and_strict_release_is_reused(dump):
    # A dump before the strict release ends the reuse in every shot.
    options = RunOptions(dump_state=dump)
    entry = compile_entry(PREFIXED)
    for seed in SEEDS:
        expected = shot_by_shot(fresh_entries(PREFIXED), seed, options)
        assert shot_by_shot([entry] * SHOTS, seed, options) == expected
    prefix = entry.shot_prefix
    ops = [key[0] for key, _ in prefix.log]
    assert ops.count("probe") == 1 and ops.count("release") == 1
    assert prefix.snapshot is not None
    assert len(prefix.snapshot) == 1 << PREFIXED_QUBITS


def test_later_shots_leave_a_small_snapshot_unchanged():
    storages = []

    def spy(interp, arg, adjoint, controls):
        storages.append(type(interp.simulator.state))
        return HANDLERS["Measure"](interp, arg, adjoint, controls)

    entry = compile_entry(RUS_COIN)
    run_shots(HANDLERS, entry, 2, 1, RunOptions())
    snapshot = entry.shot_prefix.snapshot
    assert len(snapshot) == 2 and not snapshot.flags.writeable
    stored = snapshot.tobytes()
    # Each later shot loads the snapshot, then gates and measures in place.
    run_shots({**HANDLERS, "Measure": spy}, entry, 5, 2, RunOptions())
    assert entry.shot_prefix.snapshot is snapshot
    assert snapshot.tobytes() == stored
    assert set(storages) == {list}


def test_one_shot_records_a_log_and_copies_no_state():
    entry = compile_entry(PREFIXED)
    run_shots(HANDLERS, entry, 1, 7, RunOptions())
    assert entry.shot_prefix.log
    assert entry.shot_prefix.snapshot is None
    run_shots(HANDLERS, entry, 1, 8, RunOptions())
    assert entry.shot_prefix.snapshot is not None


def test_different_gate_matrix_does_not_reuse_the_prefix():
    entry = compile_entry(PREFIXED)
    run_shots(HANDLERS, entry, 3, 1, RunOptions())
    assert entry.shot_prefix.snapshot is not None
    # H applies X: every outcome becomes certain, unlike with the real H.
    altered = dict(HANDLERS)
    altered["H"] = intrinsic_handlers()["X"]
    for seed in SEEDS:
        expected = shot_by_shot(fresh_entries(PREFIXED), seed, RunOptions(), altered)
        assert one_call(entry, seed, RunOptions(), altered) == expected
        assert shot_by_shot([entry] * SHOTS, seed, RunOptions(), altered) == expected
    assert {value for value, *_ in expected[0]} == {0b111}


def test_smaller_qubit_limit_fails_as_uncached():
    entry = compile_entry(PREFIXED)
    run_shots(HANDLERS, entry, 3, 1, RunOptions())
    assert entry.shot_prefix.snapshot is not None
    options = RunOptions(max_qubits=PREFIXED_QUBITS - 1)
    expected = shot_by_shot(fresh_entries(PREFIXED), 1, options)
    assert expected == ([], "cannot allocate more than 2 qubits "
                            "(raise the limit with --max-qubits)")
    assert shot_by_shot([entry] * SHOTS, 1, options) == expected
    assert one_call(entry, 1, options) == (None, expected[1])


def test_failing_shot_stores_nothing():
    entry = compile_entry(PREFIXED)
    small = RunOptions(max_qubits=PREFIXED_QUBITS - 1)
    with pytest.raises(QdslFailure):
        run_shots(HANDLERS, entry, 1, 1, small)
    assert entry.shot_prefix.log is None

    def measure_then_fail(interp, arg, adjoint, controls):
        HANDLERS["Measure"](interp, arg, adjoint, controls)
        interp.fail("stop after the first draw")

    with pytest.raises(QdslFailure, match="stop"):
        run_shots({**HANDLERS, "Measure": measure_then_fail}, entry, 1, 1, RunOptions())
    assert entry.shot_prefix.log is None
    expected = shot_by_shot(fresh_entries(PREFIXED), 1, RunOptions())
    assert shot_by_shot([entry] * SHOTS, 1, RunOptions()) == expected
    # A failure part-way through the cached prefix leaves later shots right.
    with pytest.raises(QdslFailure):
        run_shots(HANDLERS, entry, 1, 1, small)
    assert shot_by_shot([entry] * SHOTS, 1, RunOptions()) == expected


def test_no_snapshot_beyond_the_memory_budget(monkeypatch):
    # Allocating the third qubit needs 4 x 16 x 2^2 = 256 bytes, so the
    # program still runs; holding a snapshot next to it needs 3 x 16 x 2^3.
    budget = 3 * 16 * (1 << PREFIXED_QUBITS) - 1
    monkeypatch.setattr(qdsl.simulator, "MEMORY_BUDGET", budget)
    entry = compile_entry(PREFIXED)
    for seed in SEEDS:
        expected = shot_by_shot(fresh_entries(PREFIXED), seed, RunOptions())
        assert shot_by_shot([entry] * SHOTS, seed, RunOptions()) == expected
    assert entry.shot_prefix.log
    assert entry.shot_prefix.snapshot is None


NEVER_DRAWS = """
namespace Demo {
    open Microsoft.Quantum.Primitive;

    operation Main () : Int {
        body {
            using (qs = Qubit[2]) {
                X(qs[0]);
                CNOT(qs[0], qs[1]);
                H(qs[1]);
                H(qs[1]);
                CNOT(qs[0], qs[1]);
                X(qs[0]);
            }
            return 1;
        }
    }
}
"""


def test_shot_that_never_draws_stores_a_log_only_at_the_length_limit(monkeypatch):
    options = RunOptions(dump_state=True)
    expected = shot_by_shot(fresh_entries(NEVER_DRAWS), 1, options)
    entry = compile_entry(NEVER_DRAWS)
    assert shot_by_shot([entry] * SHOTS, 1, options) == expected
    assert entry.shot_prefix.log is None
    monkeypatch.setattr(qdsl.simulator, "_MAX_LOG", 4)
    entry = compile_entry(NEVER_DRAWS)
    assert shot_by_shot([entry] * SHOTS, 1, options) == expected
    assert len(entry.shot_prefix.log) == 4
    assert entry.shot_prefix.snapshot is not None


def test_lower_memory_budget_fails_as_uncached(monkeypatch):
    entry = compile_entry(PREFIXED)
    run_shots(HANDLERS, entry, 3, 1, RunOptions())
    assert entry.shot_prefix.snapshot is not None
    # Too little for the third qubit, which needs 4 x 16 x 2^2 bytes.
    monkeypatch.setattr(qdsl.simulator, "MEMORY_BUDGET", 255)
    expected = shot_by_shot(fresh_entries(PREFIXED), 1, RunOptions())
    assert expected[0] == [] and "needs 256 bytes" in expected[1]
    assert shot_by_shot([entry] * SHOTS, 1, RunOptions()) == expected


def test_simulator_is_handed_back_after_the_prefix():
    """Past the prefix the interpreter calls the simulator itself."""
    seen = []

    def spy(interp, arg, adjoint, controls):
        outcome = HANDLERS["Measure"](interp, arg, adjoint, controls)
        seen.append(type(interp.simulator))
        return outcome

    entry = compile_entry(PREFIXED)
    run_shots({**HANDLERS, "Measure": spy}, entry, 3, 1, RunOptions())
    assert set(seen) == {qdsl.simulator.StateVectorSimulator}
    assert GATE_MATRICES["H"].tobytes() in {key[1] for key, _ in entry.shot_prefix.log}
