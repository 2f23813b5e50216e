"""Semantics of the closure-compiled runtime that the golden runs do not pin.

Covers the call-depth limit (reachable as documented, and Python's own
recursion limit restored after a run), returns that unwind through loops,
borrowing reachability computed from the bindings in scope, one compile
result shared by runs with different options, failure spans, values
captured by partial application, and the number of `Interpreter.invoke`
calls, which the benchmark's tracer counts by patching that method.
"""

import sys

import pytest

from qdsl.compiler import resolve_entry
from qdsl.prelude import intrinsic_handlers
from qdsl.runtime import Interpreter, QdslFailure, RunOptions, run_shots
from conftest import compile_ok, run_main

DEFAULT_LIMIT = RunOptions().recursion_limit


def countdown_program(depth: int) -> str:
    """Main plus Down(depth - 2) .. Down(0): exactly `depth` nested calls."""
    return f"""
namespace T {{
    function Down (n : Int) : Int {{
        if (n == 0) {{ return 0; }}
        return 1 + Down(n - 1);
    }}
    operation Main () : Int {{
        body {{ return Down({depth - 2}); }}
    }}
}}"""


# ── Call depth ───────────────────────────────────────────────────────────────


@pytest.mark.parametrize("limit", [DEFAULT_LIMIT, 7])
def test_call_depth_one_below_the_limit_runs(limit):
    [shot] = run_main(countdown_program(limit - 1), recursion_limit=limit)
    assert shot.value == limit - 3


@pytest.mark.parametrize("limit", [DEFAULT_LIMIT, 7])
def test_call_depth_one_above_the_limit_fails(limit):
    with pytest.raises(
        QdslFailure, match=f"call depth exceeded the limit of {limit}$"
    ):
        run_main(countdown_program(limit + 1), recursion_limit=limit)


def test_python_recursion_limit_is_restored_after_a_failing_run():
    before = sys.getrecursionlimit()
    with pytest.raises(QdslFailure, match="call depth exceeded"):
        run_main(countdown_program(DEFAULT_LIMIT + 1))
    assert sys.getrecursionlimit() == before
    [shot] = run_main(countdown_program(5))
    assert shot.value == 3
    assert sys.getrecursionlimit() == before


# ── Return unwinds by value ──────────────────────────────────────────────────

EARLY_RETURNS = """
namespace T {
    open Microsoft.Quantum.Primitive;

    operation FirstOne (qs : Qubit[]) : Int {
        body {
            for (i in 0 .. Length(qs) - 1) {
                if (Measure([PauliZ], [qs[i]]) == One) {
                    return i;
                }
            }
            Message("no One found");
            return -1;
        }
    }

    function CountTo (limit : Int) : Int {
        mutable n = 0;
        repeat {
            set n = n + 1;
            if (n == limit) {
                for (k in 0 .. 2) {
                    return n * 10 + k;
                }
            }
        } until false
        fixup { }
        Message("after the repeat");
        return -1;
    }

    operation Main () : (Int, Int) {
        body {
            mutable found = -1;
            mutable counted = -1;
            using (qs = Qubit[3]) {
                X(qs[1]);
                set found = FirstOne(qs);
                set counted = CountTo(4);
                X(qs[1]);
            }
            return (found, counted);
        }
    }
}"""


def test_early_return_inside_loops_under_using_releases_every_qubit():
    [shot] = run_main(EARLY_RETURNS, strict_release=True)
    assert shot.value == (1, 40)
    assert shot.messages == []  # no statement after a return ran
    assert shot.stats.allocations == 3
    assert shot.stats.releases == 3
    assert shot.stats.resets_on_release == 0


# ── Borrowing reachability ───────────────────────────────────────────────────


def test_borrowing_ignores_bindings_of_finished_blocks():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Inner () : () {
        body {
            borrowing (first = Qubit()) {
                Message($"{first}");
            }
            if (true) {
                borrowing (second = Qubit()) {
                    let kept = second;
                    Message($"{kept}");
                }
            }
            borrowing (third = Qubit()) {
                Message($"{third}");
            }
        }
    }
    operation Main () : () {
        body {
            using (outer = Qubit[2]) {
                Inner();
            }
        }
    }
}"""
    [shot] = run_main(text)
    # `first`, `second` and `kept` are out of scope when the next block
    # borrows, so the caller's q0 is lent every time.
    assert shot.messages == ["q0", "q0", "q0"]
    assert shot.stats.borrowed_existing == 3
    assert shot.stats.borrowed_fresh == 0


# ── One compile result, several option sets ──────────────────────────────────


def test_one_compile_result_follows_each_runs_elision_option():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    function Note (n : Int) : () { Message($"note {n}"); }
    operation Main () : Int {
        body {
            for (i in 1 .. 2) { Note(i); }
            return 7;
        }
    }
}"""
    result = compile_ok(text)
    entry, _ = resolve_entry(result, None)
    handlers = intrinsic_handlers()

    def messages(elide: bool) -> list[str]:
        [shot] = run_shots(handlers, entry, 1, 1, RunOptions(elide_diagnostics=elide))
        assert shot.value == 7
        return shot.messages

    assert messages(True) == []
    assert messages(False) == ["note 1", "note 2"]
    assert messages(True) == []
    body = next(iter(entry.specializations.values()))
    assert body.compiled is not None  # compiled once, reused by every run


# ── Failure spans ────────────────────────────────────────────────────────────


def test_failure_deep_in_a_call_chain_keeps_the_innermost_call_span():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    function Inner (values : Int[]) : Int[] {
        return Updated(values, 5, 0);
    }
    function Middle (values : Int[]) : Int[] { return Inner(values); }
    operation Main () : Int[] {
        body { return Middle([1; 2; 3]); }
    }
}"""
    with pytest.raises(QdslFailure, match="index 5 is out of range") as info:
        run_main(text)
    span = info.value.span
    assert span is not None
    assert text[span.start : span.end] == "Updated(values, 5, 0)"


# ── Partial application ──────────────────────────────────────────────────────


def test_partial_application_captures_the_value_at_capture_time():
    text = """
namespace T {
    function Add (a : Int, b : Int) : Int { return a + b; }
    operation Main () : (Int, Int) {
        body {
            mutable x = 1;
            let addX = Add(x, _);
            set x = 100;
            let addLater = Add(_, x);
            set x = 5000;
            return (addX(10), addLater(10));
        }
    }
}"""
    [shot] = run_main(text)
    assert shot.value == (11, 110)


# ── The tracing seam ─────────────────────────────────────────────────────────

SEAM_PROGRAM = """
namespace T {
    open Microsoft.Quantum.Primitive;
    open Microsoft.Quantum.Canon;

    function Double (n : Int) : Int { return 2 * n; }

    operation Main () : Int {
        body {
            mutable total = 0;
            using (qs = Qubit[4]) {
                X(qs[1]);
                QFT(BigEndian(qs));
                (Adjoint QFT)(BigEndian(qs));
                ApplyToEach(H, qs);
                ApplyToEach(H, qs);
                for (i in 0 .. 3) {
                    if (Measure([PauliZ], [qs[i]]) == One) {
                        set total = total + Double(i);
                        X(qs[i]);
                    }
                }
                repeat {
                    H(qs[0]);
                    let coin = Measure([PauliZ], [qs[0]]);
                    set total = total + 1;
                } until coin == One
                fixup { }
                X(qs[0]);
            }
            return total;
        }
    }
}"""


def test_invoke_count_seen_by_a_class_level_wrapper(monkeypatch):
    calls = 0
    invoke = Interpreter.invoke

    def counting_invoke(interp, closure, arg):
        nonlocal calls
        calls += 1
        return invoke(interp, closure, arg)

    monkeypatch.setattr(Interpreter, "invoke", counting_invoke)
    shots = run_main(SEAM_PROGRAM, shots=3, seed=11)
    assert [shot.value for shot in shots] == [3, 3, 4]
    assert calls == 272
