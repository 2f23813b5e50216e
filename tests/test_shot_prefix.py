"""Shots of one entry point share the simulator work they have in common.

The first shot of an entry records its simulator operations, draws included
(the log). Every later shot follows the log as a cursor: it draws where the
log drew and computes no amplitude while its calls and outcomes are the
logged ones. A shot that leaves the log at or after its first draw starts
from the state there (the snapshot), which the first such shot copies (see
`simulator.ShotPrefix`). None of it may show: every shot must give the value,
messages, `RunStats`, dumped amplitudes and trace lines, byte for byte, that
it gives on an entry compiled afresh, which has nothing recorded.
"""

from __future__ import annotations

import os
import struct

import pytest

import qdsl.simulator
from qdsl.compiler import compile_units, resolve_entry
from qdsl.prelude import _gate_handler, intrinsic_handlers
from qdsl.runtime import QdslFailure, RunOptions, run_shots
from qdsl.simulator import (
    GATE_ADJOINTS,
    GATE_MATRICES,
    StateVectorSimulator,
    _PrefixStandIn,
    r1frac_matrix,
)
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
    # The log holds the whole first shot; the snapshot holds the state at its
    # first draw, after the probe and the strict release.
    before = ops[: prefix.first_draw]
    assert before.count("probe") == 1 and before.count("release") == 1
    assert "measure" not in before and ops[prefix.first_draw] == "measure"
    assert ops.count("measure") == PREFIXED_QUBITS
    assert ops.count("release") == 1 + PREFIXED_QUBITS
    if dump:  # every shot leaves the log before its first draw
        assert prefix.snapshot is None
        return
    state, positions = prefix.snapshot
    assert len(state) == 1 << PREFIXED_QUBITS
    assert sorted(positions.values()) == list(range(PREFIXED_QUBITS))


def _bits(amplitudes) -> list[bytes]:
    """The bits of each part of each amplitude, the sign of a zero included."""
    return [struct.pack("<dd", x.real, x.imag) for x in amplitudes]


def test_later_shots_leave_a_small_snapshot_unchanged():
    storages = []

    def spy(interp, arg, adjoint, controls):
        outcome = HANDLERS["Measure"](interp, arg, adjoint, controls)
        if interp.simulator.measure == interp.simulator.sim.measure:  # it left
            storages.append(type(interp.simulator.sim.state))
        return outcome

    entry = compile_entry(RUS_COIN)
    run_shots(HANDLERS, entry, 2, 1, RunOptions())
    snapshot = entry.shot_prefix.snapshot
    state, positions = snapshot
    # A one-qubit snapshot is an immutable tuple, which loads without numpy.
    assert type(state) is tuple and len(state) == 2 and positions == {0: 0}
    assert all(type(x) is complex for x in state)
    stored = _bits(state)
    # Each later shot leaves the log at an outcome of its own, loads the
    # snapshot, replays its draws and then gates and measures in place.
    run_shots({**HANDLERS, "Measure": spy}, entry, 5, 2, RunOptions())
    assert entry.shot_prefix.snapshot is snapshot
    assert _bits(state) == stored and positions == {0: 0}
    assert len(storages) >= 5 and set(storages) == {list}


def test_one_shot_records_a_log_and_copies_no_state():
    entry = compile_entry(PREFIXED)
    run_shots(HANDLERS, entry, 1, 7, RunOptions())
    assert entry.shot_prefix.log
    assert entry.shot_prefix.snapshot is None
    run_shots(HANDLERS, entry, 1, 8, RunOptions())  # leaves at a measurement
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
        raise QdslFailure("stop after the first draw")

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


@pytest.mark.parametrize("dump", [False, True], ids=["plain", "dump"])
def test_shot_that_never_draws_stores_its_log(monkeypatch, dump):
    options = RunOptions(dump_state=dump)
    expected = shot_by_shot(fresh_entries(NEVER_DRAWS), 1, options)
    entry = compile_entry(NEVER_DRAWS)
    assert shot_by_shot([entry] * SHOTS, 1, options) == expected
    log = entry.shot_prefix.log
    assert [key[0] for key, _ in log] == ["allocate"] * 2 + ["apply"] * 6 + ["release"] * 2
    assert entry.shot_prefix.first_draw == len(log)
    # Later shots follow the log to its end, or leave it at the dump, before
    # its releases: never at or after the end of the log, its first draw.
    assert entry.shot_prefix.snapshot is None
    monkeypatch.setattr(qdsl.simulator, "_MAX_LOG", 4)
    entry = compile_entry(NEVER_DRAWS)
    assert shot_by_shot([entry] * SHOTS, 1, options) == expected
    assert len(entry.shot_prefix.log) == entry.shot_prefix.first_draw == 4
    assert len(entry.shot_prefix.snapshot[0]) == 4  # two qubits live


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
    """Once a shot leaves the log its calls go to the simulator itself."""
    seen: list[list[bool]] = []  # per shot, per measurement: the real simulator?

    def spy(interp, arg, adjoint, controls):
        outcome = HANDLERS["Measure"](interp, arg, adjoint, controls)
        seen[-1].append(interp.simulator.measure == interp.simulator.sim.measure)
        return outcome

    entry = compile_entry(PREFIXED)
    for shot in range(SHOTS):
        seen.append([])
        run_shots({**HANDLERS, "Measure": spy}, entry, 1, 1 ^ shot, RunOptions())
    assert seen[0] == [False] * PREFIXED_QUBITS  # it records them all
    for flags in seen[1:]:
        assert flags == sorted(flags)  # never taken back once handed back
    assert [] != [f for f in seen[1:] if f[0] is False and f[-1] is True]
    assert [] != [f for f in seen[1:] if not any(f)]
    assert any(value is GATE_MATRICES["H"] for _, value in entry.shot_prefix.log)


@pytest.fixture
def departures(monkeypatch):
    """Where shots that follow the log leave it, as (operations
    matched, the log's first draw, the logged call there or None past the
    end, whether the shot left to dump its state)."""
    seen = []
    leave, amplitudes = _PrefixStandIn._leave, _PrefixStandIn.amplitudes
    dumping = []

    def spy_leave(self):
        if self.log is not None:
            at, log = self.at, self.log
            kind = log[at][0][0] if at < len(log) else None
            seen.append((at, self.prefix.first_draw, kind, bool(dumping)))
        leave(self)

    def spy_amplitudes(self):
        dumping.append(True)
        try:
            return amplitudes(self)
        finally:
            dumping.pop()

    monkeypatch.setattr(_PrefixStandIn, "_leave", spy_leave)
    monkeypatch.setattr(_PrefixStandIn, "amplitudes", spy_amplitudes)
    return seen


def assert_matches_reference(text: str, options: RunOptions, seeds=SEEDS):
    entry = compile_entry(text)
    for seed in seeds:
        expected = shot_by_shot(fresh_entries(text), seed, options)
        assert shot_by_shot([entry] * SHOTS, seed, options) == expected, seed
    return entry


def test_departure_at_an_even_measurement_replays_its_own_draws(departures):
    entry = assert_matches_reference(PREFIXED, RunOptions())
    first = entry.shot_prefix.first_draw
    # Some shots match the first draw and leave at a later p = 1/2 outcome,
    # so they load the snapshot and replay what they matched after it.
    assert any(at > first and kind == "measure" for at, first, kind, _ in departures)
    assert any(at == first and kind == "measure" for at, first, kind, _ in departures)


# Dirty permissive releases, one with p = 1/2, then more work on the state
# that they leave, on a qubit id that one of them freed.
DIRTY_RELEASE = """
namespace Demo {
    open Microsoft.Quantum.Primitive;

    operation Main () : Int {
        body {
            mutable value = 0;
            using (qs = Qubit[3]) {
                H(qs[0]);
                if (Measure([PauliZ], [qs[0]]) == One) {
                    set value = 1;
                }
                H(qs[1]);
                CNOT(qs[1], qs[2]);
                X(qs[2]);
            }
            using (rs = Qubit[2]) {
                H(rs[1]);
                T(rs[1]);
                H(rs[1]);
                if (Measure([PauliZ], [rs[1]]) == One) {
                    set value = value + 2;
                    X(rs[1]);
                }
            }
            return value;
        }
    }
}
"""


@pytest.mark.parametrize("dump", [False, True], ids=["plain", "dump"])
def test_departure_at_a_dirty_permissive_release(departures, dump):
    options = RunOptions(strict_release=False, dump_state=dump)
    entry = assert_matches_reference(DIRTY_RELEASE, options)
    drawn = [value for key, value in entry.shot_prefix.log
             if key[0] == "release" and value is not None]
    assert 0.5 in [round(p, 9) for p, _ in drawn]
    if not dump:
        assert any(kind == "release" for _, _, kind, _ in departures)


def test_log_cut_off_after_a_draw(monkeypatch, departures):
    entry = compile_entry(PREFIXED)
    run_shots(HANDLERS, entry, 1, 1, RunOptions())
    cut = entry.shot_prefix.first_draw + 2
    monkeypatch.setattr(qdsl.simulator, "_MAX_LOG", cut)
    entry = assert_matches_reference(PREFIXED, RunOptions())
    assert len(entry.shot_prefix.log) == cut
    assert entry.shot_prefix.first_draw == cut - 2
    assert any(kind is None and at == cut for at, _, kind, _ in departures)


# The benchmark's QFT workload at 5 qubits: every outcome is certain.
QFT_ROUND_TRIP = """
namespace Demo {
    open Microsoft.Quantum.Primitive;
    open Microsoft.Quantum.Canon;

    operation Main () : Int {
        body {
            mutable value = 0;
            using (qs = Qubit[5]) {
                X(qs[0]);
                X(qs[3]);
                QFT(BigEndian(qs));
                (Adjoint QFT)(BigEndian(qs));
                for (i in 0 .. 4) {
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


@pytest.mark.parametrize(
    "text", [QFT_ROUND_TRIP, DIRTY_RELEASE], ids=["qft", "dirty_release"]
)
def test_dump_after_the_first_draw(departures, text):
    # Each program's first qubit block measures before its dump.
    options = RunOptions(strict_release=False, dump_state=True)
    assert_matches_reference(text, options)
    assert any(dump and at > first for at, first, _, dump in departures)


def test_gate_matrix_with_the_logged_entries_leaves_the_log(departures):
    """A logged gate matches only its own matrix object."""
    entry = compile_entry(PREFIXED)
    run_shots(HANDLERS, entry, 1, 1, RunOptions())
    first_h = next(at for at, (_, value) in enumerate(entry.shot_prefix.log)
                   if value is GATE_MATRICES["H"])
    copied = {**HANDLERS, "H": _gate_handler(
        "H", GATE_MATRICES["H"].copy(), GATE_ADJOINTS["H"].copy())}
    for seed in SEEDS:
        expected = shot_by_shot(fresh_entries(PREFIXED), seed, RunOptions(), copied)
        assert expected == shot_by_shot(fresh_entries(PREFIXED), seed, RunOptions())
        departures.clear()
        assert shot_by_shot([entry] * SHOTS, seed, RunOptions(), copied) == expected
        assert {(at, kind) for at, _, kind, _ in departures} == {(first_h, "apply")}


def test_clearing_the_r1frac_cache_between_shots_changes_no_output(departures):
    for seed in SEEDS:
        expected = shot_by_shot(fresh_entries(QFT_ROUND_TRIP), seed, RunOptions())
        entry, found = compile_entry(QFT_ROUND_TRIP), []
        for shot in range(SHOTS):
            r1frac_matrix.cache_clear()
            [result] = run_shots(HANDLERS, entry, 1, seed ^ shot, RunOptions())
            found.append(summary(result))
        assert (found, None) == expected
    # Each shot after the first passed new R1Frac matrices and left the log.
    assert departures and all(kind == "apply" for _, _, kind, _ in departures)


# A strict release after a measurement, clean only when the outcome is Zero.
DIRTY_LATER = """
namespace Demo {
    open Microsoft.Quantum.Primitive;

    operation Main () : Result {
        body {
            mutable r = Zero;
            using (q = Qubit()) {
                H(q);
                set r = Measure([PauliZ], [q]);
            }
            return r;
        }
    }
}
"""


def test_strict_release_dirty_only_in_a_later_shot(departures):
    # Seed 9 measures Zero in shots 0 to 2 and One in shot 3, which leaves
    # the log at that outcome; its strict release then fails.
    expected = shot_by_shot(fresh_entries(DIRTY_LATER), 9, RunOptions())
    assert len(expected[0]) == 3
    assert "released with probability 1 of being |1>" in expected[1]
    entry = compile_entry(DIRTY_LATER)
    assert shot_by_shot([entry] * SHOTS, 9, RunOptions()) == expected
    assert [kind for _, _, kind, _ in departures] == ["measure"]
    [logged] = [value for key, value in entry.shot_prefix.log if key[0] == "release"]
    assert logged is None
    # A permissive first shot that measures One logs a release that drew;
    # a strict shot leaves the log there and fails as it does uncached.
    entry = compile_entry(DIRTY_LATER)
    run_shots(HANDLERS, entry, 2, 2, RunOptions(strict_release=False))
    [logged] = [value for key, value in entry.shot_prefix.log if key[0] == "release"]
    assert logged is not None and entry.shot_prefix.snapshot is not None
    departures.clear()
    for seed in SEEDS:
        expected = shot_by_shot(fresh_entries(DIRTY_LATER), seed, RunOptions())
        assert shot_by_shot([entry] * SHOTS, seed, RunOptions()) == expected
    assert "release" in [kind for _, _, kind, _ in departures]


@pytest.fixture
def simulator_calls(monkeypatch):
    """The names of the simulator's kernels, weights, entry points and checks,
    in the order they are called, nested calls included."""
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("_weight", "_small_weight"):
        counted(qdsl.simulator, name)
    for name in ("_apply_at", "_apply_small", "_target_slices", "measure",
                 "release", "allocate", "apply", "load", "probe_zero_probability",
                 "_conjugation", "_position_of", "_check_limits"):
        counted(StateVectorSimulator, name)
    return calls


def test_repeated_outcomes_do_no_amplitude_arithmetic(simulator_calls):
    # From the second shot on, a shot that follows the whole log runs only
    # the checks that its matched calls leave open, once per allocation.
    entry = compile_entry(QFT_ROUND_TRIP)
    run_shots(HANDLERS, entry, 1, 3, RunOptions())
    simulator_calls.clear()
    results = run_shots(HANDLERS, entry, 10, 3, RunOptions())
    assert {r.value for r in results} == {0b01001}
    assert simulator_calls == ["_check_limits"] * 5 * 10
    reference = shot_by_shot(fresh_entries(QFT_ROUND_TRIP), 3, RunOptions())[0]
    assert [r.stats for r in results] == [stats for _, _, stats, _ in reference[:10]]
    assert entry.shot_prefix.snapshot is None  # no shot left the log


@pytest.mark.parametrize("fits", [True, False], ids=["snapshot", "over_budget"])
def test_departures_after_the_first_draw_share_one_snapshot(
    monkeypatch, simulator_calls, fits
):
    # Five qubits are live at the first draw; holding a snapshot next to
    # their state needs 3 x 16 x 2^5 bytes.
    if not fits:
        monkeypatch.setattr(qdsl.simulator, "MEMORY_BUDGET", 3 * 16 * (1 << 5) - 1)
    entry = compile_entry(QFT_ROUND_TRIP)
    run_shots(HANDLERS, entry, 1, 3, RunOptions())
    log, first = entry.shot_prefix.log, entry.shot_prefix.first_draw
    # A dump, after the measurements and before the releases, leaves the log.
    at = [key[0] for key, _ in log].index("release")
    applies = [key[0] for key, _ in log[:at]].count("apply")
    after = [key[0] for key, _ in log[first:at]]
    for shot in range(3):
        simulator_calls.clear()
        run_shots(HANDLERS, entry, 1, 3, RunOptions(dump_state=True))
        snapshot = entry.shot_prefix.snapshot
        if not fits:  # every departure replays the log from |0...0>
            assert snapshot is None
            assert "load" not in simulator_calls
            assert simulator_calls.count("apply") == applies
        elif shot == 0:  # the first departure replays and copies
            assert len(snapshot[0]) == 1 << 5 and not snapshot[0].flags.writeable
            assert "load" not in simulator_calls
            assert simulator_calls.count("apply") == applies
        else:  # later ones load it and replay only what follows
            assert entry.shot_prefix.snapshot is snapshot
            assert simulator_calls.count("load") == 1
            assert simulator_calls.count("apply") == after.count("apply") == 2
            assert simulator_calls.count("measure") == after.count("measure") == 5
            assert simulator_calls.count("allocate") == 0
        assert simulator_calls.count("release") == 5
    expected = shot_by_shot(fresh_entries(QFT_ROUND_TRIP), 3, RunOptions(dump_state=True))
    assert shot_by_shot([entry] * SHOTS, 3, RunOptions(dump_state=True)) == expected


def trace_lines(entries, seed: int, options: RunOptions) -> list:
    """The trace lines of one-shot calls, shot i on the i-th entry."""
    lines = []
    for shot, entry in zip(range(SHOTS), entries):
        run_shots(HANDLERS, entry, 1, seed ^ shot, options,
                  trace=lambda _, line: lines.append((shot, line)))
    return lines


@pytest.mark.parametrize("name", sorted([*PROGRAMS, "rus_coin"]))
def test_cached_shots_trace_as_uncached(name):
    if name == "rus_coin":
        text, exclude, extra = RUS_COIN, (), []
    else:
        path, extra = PROGRAMS[name]
        text, exclude = _source(path)
    entry_name = extra[extra.index("--entry") + 1] if "--entry" in extra else None
    strict = "--permissive-release" not in extra
    for seed in SEEDS:
        for dump in (False, True):
            options = RunOptions(strict_release=strict, dump_state=dump)
            expected = trace_lines(fresh_entries(text, exclude, entry_name), seed, options)
            entry = compile_entry(text, exclude, entry_name)
            assert trace_lines([entry] * SHOTS, seed, options) == expected, (dump, seed)


# Identity measurements, which give Zero with no draw, before and between
# p = 1/2 measurements.
IDENTITIES = """
namespace Demo {
    open Microsoft.Quantum.Primitive;

    operation Main () : Int {
        body {
            mutable value = 0;
            using (qs = Qubit[2]) {
                if (Measure([PauliI], [qs[0]]) == One) {
                    set value = 100;
                }
                H(qs[0]);
                if (Measure([PauliZ], [qs[0]]) == One) {
                    set value = value + 1;
                    X(qs[0]);
                }
                if (Measure([PauliI; PauliI], [qs[0]; qs[1]]) == One) {
                    set value = value + 100;
                }
                H(qs[1]);
                if (Measure([PauliZ], [qs[1]]) == One) {
                    set value = value + 2;
                    X(qs[1]);
                }
            }
            return value;
        }
    }
}
"""


@pytest.mark.parametrize("dump", [False, True], ids=["plain", "dump"])
def test_identity_measurements_match_uncached_reference(dump):
    assert_matches_reference(IDENTITIES, RunOptions(dump_state=dump))


def test_identity_measurements_are_logged_without_a_draw():
    entry = compile_entry(IDENTITIES)
    run_shots(HANDLERS, entry, 1, 1, RunOptions())
    log, first = entry.shot_prefix.log, entry.shot_prefix.first_draw
    measured = [(key[1], value is None) for key, value in log if key[0] == "measure"]
    assert measured == [
        (("I",), True), (("Z",), False), (("I", "I"), True), (("Z",), False)
    ]
    assert log[first][0] == ("measure", ("Z",), (0,))
