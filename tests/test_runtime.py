"""Interpreter semantics: classical evaluation, control flow, qubit
lifecycle accounting, failure paths, tracing, and diagnostic elision.

Classical arithmetic is checked against Python's own big-int arithmetic
reduced mod 2^64 (an independent formulation of two's-complement wrapping)
and against hand-computed truncated-division cases.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsl.runtime import QdslFailure, QubitLedger, RunOptions, run_shots
from qdsl.values import RangeValue, Result, render_value, wrap64
from qdsl.prelude import intrinsic_handlers
from qdsl.compiler import resolve_entry
from conftest import compile_ok, run_main, run_statements

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def eval_expr(expr: str, result_type: str = "Int", prologue: str = ""):
    text = f"""
namespace T {{
    open Microsoft.Quantum.Primitive;
    open Microsoft.Quantum.Canon;
    operation Main () : {result_type} {{
        body {{
            {prologue}
            return {expr};
        }}
    }}
}}"""
    [shot] = run_main(text)
    return shot.value


# ── 64-bit integer arithmetic ────────────────────────────────────────────────


def ref_wrap(v: int) -> int:
    """Independent two's-complement reduction."""
    return (v - INT64_MIN) % 2**64 + INT64_MIN


@given(st.integers(-(2**70), 2**70))
def test_wrap64_matches_reference(v):
    assert wrap64(v) == ref_wrap(v)


def test_wrap64_fixed_points():
    assert wrap64(INT64_MAX) == INT64_MAX
    assert wrap64(INT64_MIN) == INT64_MIN
    assert wrap64(INT64_MAX + 1) == INT64_MIN
    assert wrap64(INT64_MIN - 1) == INT64_MAX
    assert wrap64(2**64) == 0


def test_addition_wraps():
    assert eval_expr("9223372036854775807 + 1") == INT64_MIN


def test_multiplication_wraps():
    assert eval_expr("4611686018427387904 * 2") == INT64_MIN


def test_negation_of_min_wraps():
    assert eval_expr("0 - (-9223372036854775807 - 1)") == INT64_MIN


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("7 / 2", 3),
        ("-7 / 2", -3),       # truncation toward zero, not floor
        ("7 / -2", -3),
        ("-7 / -2", 3),
        ("7 % 2", 1),
        ("-7 % 2", -1),       # remainder takes the dividend's sign
        ("7 % -2", 1),
        ("-7 % -2", -1),
    ],
)
def test_truncated_division_and_remainder(expr, expected):
    assert eval_expr(expr) == expected


@given(a=st.integers(INT64_MIN, INT64_MAX), b=st.integers(INT64_MIN, INT64_MAX))
def test_division_identity(a, b):
    if b == 0:
        return
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    r = a - b * q
    assert ref_wrap(q * b + r) == a
    assert abs(r) < abs(b)


def test_shifts():
    assert eval_expr("1 << 3") == 8
    assert eval_expr("1 << 63") == INT64_MIN
    assert eval_expr("1 << 64") == 0
    assert eval_expr("-8 >> 1") == -4   # arithmetic shift keeps the sign
    assert eval_expr("-1 >> 200") == -1
    assert eval_expr("5 >> 1") == 2


def test_bitwise_operators():
    assert eval_expr("12 & 10") == 8
    assert eval_expr("12 | 10") == 14
    assert eval_expr("12 ^ 10") == 6
    assert eval_expr("~0") == -1


def test_double_arithmetic_stays_floating():
    assert eval_expr("1.5 + 2.25", "Double") == 3.75
    assert eval_expr("7.0 / 2.0", "Double") == 3.5


def test_comparisons_and_logic():
    assert eval_expr("(3 < 4) && (4 <= 4) && (5 > 4) && (5 >= 5)", "Bool") is True
    assert eval_expr("(3 == 3) != (3 == 4)", "Bool") is True
    assert eval_expr("!false || false", "Bool") is True


def test_logical_operators_short_circuit():
    # The right side would divide by zero if evaluated.
    assert eval_expr("false && (1 / 0 == 0)", "Bool") is False
    assert eval_expr("true || (1 / 0 == 0)", "Bool") is True


@pytest.mark.parametrize("expr", ["1 / 0", "1 % 0", "1.0 / 0.0", "-5 / 0"])
def test_division_by_zero_fails(expr):
    result_type = "Double" if "." in expr else "Int"
    with pytest.raises(QdslFailure, match="division by zero"):
        eval_expr(expr, result_type)


def test_negative_shift_fails():
    with pytest.raises(QdslFailure, match="negative shift"):
        eval_expr("1 << -1")


# ── Ranges ───────────────────────────────────────────────────────────────────


def test_range_value_iteration():
    assert list(RangeValue(1, 1, 4)) == [1, 2, 3, 4]
    assert list(RangeValue(0, 2, 5)) == [0, 2, 4]
    assert list(RangeValue(5, -2, 0)) == [5, 3, 1]
    assert list(RangeValue(3, 1, 2)) == []
    assert list(RangeValue(2, -1, 3)) == []
    assert list(RangeValue(4, 1, 4)) == [4]


def counted_range(start: int, step: int, end: int):
    """Each value from `start` by `step` that has not passed `end`."""
    value = start
    while (value <= end) if step > 0 else (value >= end):
        yield value
        value += step


INT_MIN, INT_MAX = -(1 << 63), (1 << 63) - 1


@pytest.mark.parametrize("start, step, end", [
    (INT_MAX - 4, 1, INT_MAX), (INT_MAX - 7, 3, INT_MAX), (INT_MAX, 1, INT_MAX),
    (INT_MIN + 4, -1, INT_MIN), (INT_MIN + 7, -3, INT_MIN), (INT_MIN, -1, INT_MIN),
    (INT_MIN, INT_MAX, INT_MAX), (INT_MAX, INT_MIN, INT_MIN), (INT_MIN, 1 << 62, INT_MAX),
    (INT_MAX, 1, INT_MIN), (INT_MIN, -1, INT_MAX), (0, -1, 1), (1, 1, 0),
    (10, -3, 0), (0, 4, 10), (-5, 2, 5), (7, -7, -7), (3, 5, 4),
])
def test_range_value_iterates_as_counting_does(start, step, end):
    assert list(RangeValue(start, step, end)) == list(counted_range(start, step, end))


def test_range_reversed_visits_same_values_backwards():
    for start, step, end in [(1, 1, 4), (0, 2, 5), (5, -2, 0), (3, 1, 2), (7, 3, 7)]:
        r = RangeValue(start, step, end)
        assert list(r.reversed()) == list(reversed(list(r)))


@given(
    start=st.integers(-50, 50),
    step=st.integers(-7, 7).filter(lambda s: s != 0),
    end=st.integers(-50, 50),
)
def test_range_matches_python_range_semantics(start, step, end):
    # inclusive end: same as Python's range with the end nudged past by one step-sign
    expected = list(range(start, end + (1 if step > 0 else -1), step))
    r = RangeValue(start, step, end)
    assert list(r) == expected


def test_for_over_ranges():
    # for iterates Ranges only; element loops go through an index range
    [shot] = run_statements("""
            mutable total = 0;
            for (i in 1 .. 5) { set total = total + i; }
            let vs = [10; 20; 30];
            for (j in 0 .. Length(vs) - 1) { set total = total + vs[j]; }
            Message($"{total}");
    """)
    assert shot.messages == ["75"]


def test_zero_step_range_fails():
    with pytest.raises(QdslFailure, match="step"):
        run_statements("for (i in 1 .. 0 .. 5) { }")


def test_range_slicing_and_reversal_of_arrays():
    [shot] = run_statements("""
            let xs = [10; 11; 12; 13; 14];
            Message($"{xs[1 .. 3]}");
            Message($"{xs[4 .. -2 .. 0]}");
    """)
    assert shot.messages == ["[11; 12; 13]", "[14; 12; 10]"]


def test_index_out_of_range_fails():
    with pytest.raises(QdslFailure, match="out of range"):
        run_statements("let xs = [1; 2]; let y = xs[5];")


# ── Bindings, mutation, scoping ──────────────────────────────────────────────


def test_deconstructing_let_binds_nested_parts():
    [shot] = run_statements("""
            let (a, (b, c)) = (1, (2, 3));
            Message($"{a} {b} {c}");
    """)
    assert shot.messages == ["1 2 3"]


def test_set_updates_innermost_matching_binding():
    [shot] = run_statements("""
            mutable x = 1;
            if (true) { set x = 42; }
            Message($"{x}");
    """)
    assert shot.messages == ["42"]


def test_let_shadowing_in_nested_scope_restores_after():
    [shot] = run_statements("""
            let x = 1;
            if (true) {
                let x = 99;
                Message($"{x}");
            }
            Message($"{x}");
    """)
    assert shot.messages == ["99", "1"]


def test_repeat_body_bindings_reach_condition_and_fixup():
    [shot] = run_statements("""
            mutable tries = 0;
            repeat {
                set tries = tries + 1;
                let done = tries >= 3;
            } until done
            fixup {
                Message($"retry after {tries}");
            }
            Message($"took {tries}");
    """)
    assert shot.messages == ["retry after 1", "retry after 2", "took 3"]


def test_updated_returns_modified_copy():
    [shot] = run_statements("""
            let xs = [1; 2; 3];
            let ys = Updated(xs, 1, 20);
            Message($"{xs} {ys}");
    """)
    assert shot.messages == ["[1; 2; 3] [1; 20; 3]"]


def test_fail_raises_with_message():
    with pytest.raises(QdslFailure, match="boom 7"):
        run_statements('let n = 7; fail $"boom {n}";')


def test_return_exits_early():
    [shot] = run_statements("""
            for (i in 1 .. 10) {
                if (i == 2) { return (); }
            }
            Message("unreachable");
    """)
    assert shot.messages == []


def test_repeat_iteration_limit():
    with pytest.raises(QdslFailure, match="iterations"):
        run_statements(
            "repeat { } until false fixup { }",
            max_iterations=50,
        )


FOR_LOOP = """
namespace T {
    operation Main () : Int {
        body {
            mutable n = 0;
            for (i in 1 .. COUNT) { set n = n + 1; }
            return n;
        }
    }
}"""


def test_for_loop_runs_exactly_at_the_iteration_limit():
    [shot] = run_main(FOR_LOOP.replace("COUNT", "50"), max_iterations=50)
    assert shot.value == 50


def test_for_loop_past_the_iteration_limit_fails_at_the_loop():
    text = FOR_LOOP.replace("COUNT", "51")
    with pytest.raises(QdslFailure, match="^for loop exceeded 50 iterations$") as info:
        run_main(text, max_iterations=50)
    span = info.value.span
    assert text[span.start:].startswith("for (i in 1 .. 51)")


def test_iteration_limit_counts_each_for_loop_on_its_own():
    [shot] = run_statements("""
            mutable n = 0;
            for (i in 1 .. 10) {
                for (j in 1 .. 10) { set n = n + 1; }
            }
            Message($"{n}");
    """, max_iterations=10)
    assert shot.messages == ["100"]


def test_for_loop_that_returns_before_the_limit_runs():
    text = """
namespace T {
    function FirstAbove (floor : Int) : Int {
        for (i in 0 .. 1000000000) {
            if (i > floor) { return i; }
        }
        return -1;
    }
    operation Main () : Int {
        body { return FirstAbove(7); }
    }
}"""
    [shot] = run_main(text, max_iterations=10)
    assert shot.value == 8


def test_recursion_limit():
    text = """
namespace T {
    operation Spin (n : Int) : Int {
        body { return Spin(n + 1); }
    }
    operation Main () : Int {
        body { return Spin(0); }
    }
}"""
    with pytest.raises(QdslFailure, match="depth|recursion"):
        run_main(text, recursion_limit=100)


def test_functions_participate_in_recursion():
    # A function may recurse; well-founded recursion terminates normally.
    text = """
namespace T {
    function Fact (n : Int) : Int {
        if (n <= 1) { return 1; }
        return n * Fact(n - 1);
    }
    operation Main () : Int {
        body { return Fact(10); }
    }
}"""
    [shot] = run_main(text)
    assert shot.value == 3628800


# ── Qubit lifecycle ──────────────────────────────────────────────────────────


def test_ledger_hands_out_lowest_free_id():
    ledger = QubitLedger()
    ids = [ledger.allocate() for _ in range(4)]
    assert ids == [0, 1, 2, 3]
    ledger.release(1)
    ledger.release(2)
    assert ledger.allocate() == 1
    assert ledger.allocate() == 2
    assert ledger.allocate() == 4


def test_sequential_using_blocks_reuse_ids():
    [shot] = run_statements("""
            using (a = Qubit[2]) {
                Message($"{a}");
            }
            using (b = Qubit[3]) {
                Message($"{b}");
            }
    """)
    assert shot.messages == ["[q0; q1]", "[q0; q1; q2]"]


def test_nested_using_blocks_stack_ids():
    [shot] = run_statements("""
            using (a = Qubit[2]) {
                using (b = Qubit[1]) {
                    Message($"{b}");
                }
            }
    """)
    assert shot.messages == ["[q2]"]


def test_single_qubit_form_binds_a_ref_not_an_array():
    [shot] = run_statements("""
            using (q = Qubit()) {
                Message($"{q}");
            }
    """)
    assert shot.messages == ["q0"]


def test_allocation_stats_balance():
    [shot] = run_statements("""
            using (a = Qubit[3]) {
                using (b = Qubit[2]) {
                    H(b[0]);
                    let r = Measure([PauliZ], [b[0]]);
                }
            }
    """)
    stats = shot.stats
    assert stats.allocations == 5
    assert stats.releases == 5
    assert stats.peak_live == 5
    assert stats.measurements == 1


def test_interpreter_reports_no_live_qubits_after_run():
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body {
            using (qs = Qubit[4]) {
                X(qs[1]);
                let r = Measure([PauliZ], [qs[1]]);
                X(qs[1]);
            }
        }
    }
}""")
    sym, err = resolve_entry(result, None)
    assert err is None
    from conftest import fresh_interpreter

    interp = fresh_interpreter(seed=5)
    interp.run(sym)
    assert interp.ledger.live == {}
    assert interp.simulator.num_qubits == 0


def test_strict_release_of_dirty_qubit_fails_shot():
    with pytest.raises(QdslFailure, match="released"):
        run_statements("using (q = Qubit()) { X(q); }", strict_release=True)


def test_permissive_release_resets_and_counts():
    [shot] = run_statements(
        "using (q = Qubit()) { X(q); }",
        strict_release=False,
    )
    assert shot.stats.resets_on_release == 1


def test_release_after_fail_is_permissive():
    # The failure propagates; cleanup must not mask it with a release error.
    with pytest.raises(QdslFailure, match="deliberate"):
        run_statements(
            'using (q = Qubit()) { X(q); fail "deliberate"; }',
            strict_release=True,
        )


def test_negative_allocation_count_fails():
    with pytest.raises(QdslFailure, match="-2"):
        run_statements("using (qs = Qubit[0 - 2]) { }")


def test_zero_count_allocation_is_empty():
    [shot] = run_statements("""
            using (qs = Qubit[0]) {
                Message($"{Length(qs)}");
            }
    """)
    assert shot.messages == ["0"]


def test_max_qubits_enforced():
    with pytest.raises(QdslFailure, match="max-qubits"):
        run_statements("using (qs = Qubit[5]) { }", max_qubits=4)


# A released qubit's id goes to the next allocation; a reference that
# escaped its block must fail at its use, not act on the new qubit. Each case:
# (statements of `Main` between `mutable r = Zero;` and `return r;`, the
# failing use, the stale qubit).
STALE_QUBIT_ESCAPES = {
    "mutable array": (
        """
            using (outer = Qubit()) {
                mutable saved = [outer];
                using (inner = Qubit()) { set saved = [inner]; }
                using (fresh = Qubit()) {
                    X(saved[0]);
                    set r = Measure([PauliZ], [fresh]);
                    if (r == One) { X(fresh); }
                }
            }
        """,
        "X(saved[0])",
        "q1",
    ),
    "returned value": (
        """
            using (outer = Qubit()) {
                let stale = Leak(outer);
                using (fresh = Qubit()) { H(stale); H(fresh); }
            }
        """,
        "H(stale)",
        "q1",
    ),
    "tuple": (
        """
            using (outer = Qubit()) {
                mutable pair = (0, outer);
                using (inner = Qubit()) { set pair = (1, inner); }
                using (fresh = Qubit()) {
                    let (n, q) = pair;
                    Y(q);
                }
            }
        """,
        "Y(q)",
        "q1",
    ),
    "partial application": (
        """
            using (outer = Qubit()) {
                mutable m = Measure(_, [outer]);
                using (inner = Qubit()) { set m = Measure(_, [inner]); }
                using (fresh = Qubit()) { set r = m([PauliZ]); }
            }
        """,
        "m([PauliZ])",
        "q1",
    ),
}


def stale_qubit_program(stmts: str) -> str:
    return f"""
namespace T {{
    open Microsoft.Quantum.Primitive;
    operation Leak (q : Qubit) : Qubit {{
        body {{
            mutable kept = q;
            using (a = Qubit()) {{ set kept = a; }}
            return kept;
        }}
    }}
    operation Main () : Result {{
        body {{
            mutable r = Zero;
            {stmts}
            return r;
        }}
    }}
}}"""


@pytest.mark.parametrize("case", sorted(STALE_QUBIT_ESCAPES))
def test_a_released_qubit_fails_at_its_use(case):
    stmts, use, stale = STALE_QUBIT_ESCAPES[case]
    text = stale_qubit_program(stmts)
    with pytest.raises(QdslFailure) as info:
        run_main(text, shots=3)
    assert info.value.message == f"qubit {stale} was used after its release"
    span = info.value.span
    assert span is not None and text[span.start : span.end] == use


# ── Borrowing ────────────────────────────────────────────────────────────────


def test_borrowing_prefers_unreferenced_live_qubits():
    [shot] = run_statements("""
            using (outer = Qubit[4]) {
                let pinned = outer[0];
                borrowing (b = Qubit[2]) {
                    Message($"{b}");
                }
            }
    """)
    # outer itself is in scope, so all four ids are reachable; a fresh pair
    # is created instead.
    assert shot.stats.borrowed_fresh == 2
    assert shot.stats.borrowed_existing == 0


def test_borrowing_takes_qubits_hidden_from_the_current_frame():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Inner () : () {
        body {
            borrowing (b = Qubit[2]) {
                Message($"{b}");
            }
        }
    }
    operation Main () : () {
        body {
            using (outer = Qubit[3]) {
                Inner();
            }
        }
    }
}"""
    [shot] = run_main(text)
    # The callee cannot reach the caller's register, so it borrows from it.
    assert shot.messages == ["[q0; q1]"]
    assert shot.stats.borrowed_existing == 2
    assert shot.stats.borrowed_fresh == 0
    assert shot.stats.allocations == 3  # only the outer register was created


def test_borrowing_does_not_count_a_stale_reference_as_reachable():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Leak (qs : Qubit[]) : Qubit[] {
        body {
            mutable kept = qs;
            using (a = Qubit[1]) { set kept = a; }
            return kept;
        }
    }
    operation Inner (stale : Qubit[]) : () {
        body {
            borrowing (b = Qubit()) {
                Message($"{b}");
            }
        }
    }
    operation Main () : () {
        body {
            using (none = Qubit[0]) {
                let stale = Leak(none);
                using (fresh = Qubit()) {
                    Inner(stale);
                }
            }
        }
    }
}"""
    [shot] = run_main(text)
    # `stale` names the released q0, not `fresh`, which now has its id.
    assert shot.messages == ["q0"]
    assert shot.stats.borrowed_existing == 1
    assert shot.stats.borrowed_fresh == 0


def test_borrowing_tops_up_with_fresh_when_short():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Inner () : () {
        body {
            borrowing (b = Qubit[3]) {
                Message($"{b}");
            }
        }
    }
    operation Main () : () {
        body {
            using (outer = Qubit[1]) {
                Inner();
            }
        }
    }
}"""
    [shot] = run_main(text)
    assert shot.messages == ["[q0; q1; q2]"]
    assert shot.stats.borrowed_existing == 1
    assert shot.stats.borrowed_fresh == 2
    assert shot.stats.releases == shot.stats.allocations


# ── Messages, interpolation, diagnostics elision ─────────────────────────────


def test_message_collects_in_order():
    [shot] = run_statements("""
            Message("first");
            Message($"second {1 + 1}");
    """)
    assert shot.messages == ["first", "second 2"]


def test_interpolation_renders_values_canonically():
    [shot] = run_statements("""
            Message($"{(true, 1.5, [One; Zero], PauliX, 1 .. 2 .. 9)}");
    """)
    assert shot.messages == ["(true, 1.5, [One; Zero], PauliX, 1..2..9)"]


def test_assert_passes_on_certain_outcome():
    run_statements("""
            using (q = Qubit()) {
                Assert([PauliZ], [q], Zero);
                X(q);
                Assert([PauliZ], [q], One);
                X(q);
            }
    """)


def test_assert_fails_on_uncertain_outcome():
    with pytest.raises(QdslFailure, match="assertion failed"):
        run_statements("""
            using (q = Qubit()) {
                H(q);
                Assert([PauliZ], [q], Zero);
            }
        """, strict_release=False)


def test_assert_prob_tolerance():
    run_statements("""
            using (q = Qubit()) {
                H(q);
                AssertProb([PauliZ], [q], Zero, 0.5, 0.01);
                H(q);
            }
    """)
    with pytest.raises(QdslFailure, match="assertion failed"):
        run_statements("""
            using (q = Qubit()) {
                H(q);
                AssertProb([PauliZ], [q], Zero, 0.75, 0.01);
                H(q);
            }
        """, strict_release=False)


def test_elision_skips_diagnostics_but_not_operations():
    failing = """
            using (q = Qubit()) {
                H(q);
                Assert([PauliZ], [q], Zero);
                Message("made it");
                H(q);
            }
    """
    with pytest.raises(QdslFailure):
        run_statements(failing)
    [shot] = run_statements(failing, elide_diagnostics=True)
    assert shot.messages == []  # Message is elidable too
    assert shot.stats.gates == 2  # the real gates still ran


def test_elision_skips_unit_functions_entirely():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    function Check (n : Int) : () {
        if (n > 0) { fail "positive"; }
    }
    operation Main () : () {
        body { Check(5); }
    }
}"""
    with pytest.raises(QdslFailure, match="positive"):
        run_main(text)
    [shot] = run_main(text, elide_diagnostics=True)
    assert shot.messages == []


def test_elision_keeps_value_returning_functions():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    function Pick (n : Int) : Int { return n * 2; }
    operation Main () : Int {
        body { return Pick(21); }
    }
}"""
    [shot] = run_main(text, elide_diagnostics=True)
    assert shot.value == 42


# ── Result values and rendering ──────────────────────────────────────────────


def test_measurement_returns_result_enum():
    [shot] = run_statements("""
            using (q = Qubit()) {
                let r = Measure([PauliZ], [q]);
                Message($"{r}");
            }
    """)
    assert shot.messages == ["Zero"]


def test_result_comparison_drives_branches():
    [shot] = run_statements("""
            using (q = Qubit()) {
                X(q);
                let r = Measure([PauliZ], [q]);
                if (r == One) { Message("one"); }
                else { Message("zero"); }
                X(q);
            }
    """)
    assert shot.messages == ["one"]


def test_render_value_forms():
    assert render_value(True) == "true"
    assert render_value(False) == "false"
    assert render_value(3) == "3"
    assert render_value(2.5) == "2.5"
    assert render_value("s") == "s"
    assert render_value(Result.One) == "One"
    assert render_value([1, 2]) == "[1; 2]"
    assert render_value((1, (2, 3))) == "(1, (2, 3))"
    assert render_value(RangeValue(0, 1, 5)) == "0..1..5"


# ── Shots, seeding, tracing ──────────────────────────────────────────────────


def test_shots_are_independent_and_seeded():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Main () : Result {
        body {
            mutable r = Zero;
            using (q = Qubit()) {
                H(q);
                set r = Measure([PauliZ], [q]);
                if (r == One) { X(q); }
            }
            return r;
        }
    }
}"""
    result = compile_ok(text)
    sym, _ = resolve_entry(result, None)
    first = run_shots(intrinsic_handlers(), sym, 20, 7, RunOptions())
    second = run_shots(intrinsic_handlers(), sym, 20, 7, RunOptions())
    third = run_shots(intrinsic_handlers(), sym, 20, 8, RunOptions())
    as_bits = lambda shots: [s.value for s in shots]
    assert as_bits(first) == as_bits(second)
    assert as_bits(first) != as_bits(third)  # overwhelmingly likely
    assert len(set(as_bits(first))) == 2     # both outcomes appear in 20 shots


def test_trace_records_lifecycle_and_gates():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body {
            using (q = Qubit()) {
                H(q);
                (Adjoint T)(q);
                let r = Measure([PauliZ], [q]);
                if (r == One) { X(q); }
            }
        }
    }
}"""
    result = compile_ok(text)
    sym, _ = resolve_entry(result, None)
    lines: list[tuple[int, str]] = []
    run_shots(
        intrinsic_handlers(), sym, 1, 3, RunOptions(),
        trace=lambda shot, line: lines.append((shot, line)),
    )
    text_lines = [line for _, line in lines]
    assert text_lines[0] == "allocate q0"
    assert "gate H q0" in text_lines
    assert "gate Adjoint T q0" in text_lines
    assert any(line.startswith("measure [Z] [q0] ->") for line in text_lines)
    assert text_lines[-1] == "release q0"


def test_trace_marks_controlled_gates():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body {
            using (qs = Qubit[2]) {
                (Controlled X)([qs[0]], qs[1]);
            }
        }
    }
}"""
    result = compile_ok(text)
    sym, _ = resolve_entry(result, None)
    lines = []
    run_shots(
        intrinsic_handlers(), sym, 1, 0, RunOptions(),
        trace=lambda shot, line: lines.append(line),
    )
    assert "gate X q1 ctl[q0]" in lines
