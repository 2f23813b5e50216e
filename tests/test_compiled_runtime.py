"""Semantics of the closure-compiled runtime that the golden runs do not pin.

Covers the call-depth limit (reachable as documented, and Python's own
recursion limit restored after a run), returns that unwind through loops,
borrowing reachability computed from the bindings in scope, one compile
result shared by runs with different options, failure spans, values
captured by partial application, and the number of `Interpreter.invoke`
calls, which the benchmark's tracer counts by patching that method.
"""

import functools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdsl.compiler import resolve_entry
from qdsl.prelude import intrinsic_handlers
from qdsl.runtime import Interpreter, QdslFailure, RunOptions, run_shots
from qdsl.values import Closure, RangeValue, wrap64
from conftest import compile_ok, fresh_interpreter, get_symbol, run_main

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


# ── Fused operands and static callees ────────────────────────────────────────
#
# A binary operator or index reads a local operand from its frame slot in
# place, and a global callee under functors is bound when the body is
# compiled. These tests run each shape of those closures against a plain
# Python reference.

INT_MIN, INT_MAX = -(1 << 63), (1 << 63) - 1
ARITHMETIC = ["+", "-", "*"]
COMPARISONS = ["<", "<=", "==", "!="]
# Each shape of a binary expression: a local or a call on either side.
SHAPES = ["a {op} b", "a {op} Id(b)", "Id(a) {op} b", "Id(a) {op} Id(b)"]


def operator_program(type_name: str) -> str:
    arithmetic = [shape.format(op=op) for op in ARITHMETIC for shape in SHAPES]
    comparisons = [shape.format(op=op) for op in COMPARISONS for shape in SHAPES]
    return f"""
namespace T {{
    function Id (x : {type_name}) : {type_name} {{ return x; }}
    function Ops (a : {type_name}, b : {type_name}) : ({type_name}[], Bool[]) {{
        return ([{"; ".join(arithmetic)}], [{"; ".join(comparisons)}]);
    }}
}}"""


@functools.cache
def operator_symbol(type_name: str):
    return get_symbol(compile_ok(operator_program(type_name)), "T.Ops")


def python_reference(a, b) -> tuple[list, list]:
    fit = wrap64 if type(a) is int else (lambda value: value)
    arithmetic = [fit(a + b), fit(a - b), fit(a * b)]
    comparisons = [a < b, a <= b, a == b, a != b]
    return (
        [value for value in arithmetic for _ in SHAPES],
        [value for value in comparisons for _ in SHAPES],
    )


def same_values(actual: list, expected: list) -> bool:
    return len(actual) == len(expected) and all(
        type(x) is type(y) and (x == y or x != x and y != y)  # NaN is NaN
        for x, y in zip(actual, expected)
    )


EDGE_INTS = [INT_MIN, -INT_MAX, -1, 0, 1, INT_MAX - 1, INT_MAX]
ints = st.one_of(st.sampled_from(EDGE_INTS), st.integers(INT_MIN, INT_MAX))


@settings(max_examples=300, deadline=None)
@given(a=ints, b=ints)
def test_int_operators_in_every_shape_match_wrap64(a, b):
    arithmetic, comparisons = fresh_interpreter().invoke(
        Closure(operator_symbol("Int")), (a, b)
    )
    expected = python_reference(a, b)
    assert same_values(arithmetic, expected[0]), (a, b, arithmetic)
    assert same_values(comparisons, expected[1]), (a, b, comparisons)
    assert all(INT_MIN <= value <= INT_MAX for value in arithmetic)


def test_int_operators_wrap_at_the_64_bit_edges():
    # The results 2^63 and -2^63 - 1 wrap; -2^63 and 2^63 - 1 stay.
    def on_locals(a: int, b: int) -> tuple[int, int, int]:
        arithmetic, _ = fresh_interpreter().invoke(Closure(operator_symbol("Int")), (a, b))
        return arithmetic[0], arithmetic[4], arithmetic[8]  # a + b, a - b, a * b

    assert on_locals(INT_MAX, 1)[0] == INT_MIN
    assert on_locals(INT_MIN, 1)[1] == INT_MAX
    assert on_locals(INT_MIN, -1) == (INT_MAX, INT_MIN + 1, INT_MIN)
    assert on_locals(INT_MAX, -1) == (INT_MAX - 1, INT_MIN, -INT_MAX)
    assert on_locals(INT_MAX, 0) == (INT_MAX, INT_MAX, 0)
    assert on_locals(INT_MIN, 0) == (INT_MIN, INT_MIN, 0)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(allow_nan=True, allow_infinity=True),
    b=st.floats(allow_nan=True, allow_infinity=True),
)
def test_double_operators_in_every_shape_match_python(a, b):
    arithmetic, comparisons = fresh_interpreter().invoke(
        Closure(operator_symbol("Double")), (a, b)
    )
    expected = python_reference(a, b)
    assert same_values(arithmetic, expected[0]), (a, b, arithmetic)
    assert same_values(comparisons, expected[1]), (a, b, comparisons)


def test_array_concatenation_in_every_shape():
    text = """
namespace T {
    function Id (x : Int[]) : Int[] { return x; }
    function Join (a : Int[], b : Int[]) : Int[][] {
        return [a + b; a + Id(b); Id(a) + b; Id(a) + Id(b); a + [7]; [7] + b];
    }
}"""
    join = Closure(get_symbol(compile_ok(text), "T.Join"))
    a, b = [1, INT_MAX], [INT_MIN]
    joined = fresh_interpreter().invoke(join, (a, b))
    assert joined == [a + b] * 4 + [a + [7], [7] + b]
    assert a == [1, INT_MAX] and b == [INT_MIN]  # the operands are not changed


INDEXING = """
namespace T {
    function Id (x : Int[]) : Int[] { return x; }
    function At (xs : Int[], i : Int) : Int { return xs[i]; }
    function AtSum (xs : Int[], i : Int) : Int { return xs[i + 0]; }
    function AtCall (xs : Int[], i : Int) : Int { return Id(xs)[i]; }
    function Slice (xs : Int[], r : Range) : Int[] { return xs[r]; }
    function SliceCall (xs : Int[], r : Range) : Int[] { return Id(xs)[r]; }
}"""


@functools.cache
def indexing():
    return compile_ok(INDEXING)


@pytest.mark.parametrize(
    "name, index_text",
    [("At", "xs[i]"), ("AtSum", "xs[i + 0]"), ("AtCall", "Id(xs)[i]")],
)
@pytest.mark.parametrize("index", [-1, -3, 3, 4, INT_MIN, INT_MAX])
def test_index_out_of_range_on_the_fused_path(name, index_text, index):
    sym = get_symbol(indexing(), f"T.{name}")
    with pytest.raises(QdslFailure) as info:
        fresh_interpreter().invoke(Closure(sym), ([10, 20, 30], index))
    assert info.value.message == (
        f"index {index} is out of range for an array of length 3"
    )
    span = info.value.span
    assert INDEXING[span.start : span.end] == index_text


@pytest.mark.parametrize("name", ["At", "AtSum", "AtCall"])
def test_index_in_range_on_the_fused_path(name):
    sym = Closure(get_symbol(indexing(), f"T.{name}"))
    values = [10, 20, 30]
    assert [fresh_interpreter().invoke(sym, (values, i)) for i in range(3)] == values


@pytest.mark.parametrize("name, index_text", [("Slice", "xs[r]"), ("SliceCall", "Id(xs)[r]")])
def test_range_index_on_the_fused_path(name, index_text):
    sym = Closure(get_symbol(indexing(), f"T.{name}"))
    values = [10, 20, 30, 40]
    run = fresh_interpreter().invoke
    assert run(sym, (values, RangeValue(0, 2, 3))) == [10, 30]
    assert run(sym, (values, RangeValue(3, -1, 1))) == [40, 30, 20]
    assert run(sym, (values, RangeValue(2, 1, 1))) == []
    with pytest.raises(QdslFailure) as info:
        run(sym, (values, RangeValue(2, 1, 4)))
    assert info.value.message == "index 4 is out of range for an array of length 4"
    span = info.value.span
    assert INDEXING[span.start : span.end] == index_text


STATIC_CALLEES = """
namespace T {
    open Microsoft.Quantum.Primitive;

    operation Rot (q : Qubit) : () {
        body { T(q); R1Frac(1, 3, q); H(q); }
        adjoint auto
        controlled auto
        controlled adjoint auto
    }

    operation Static (q : Qubit, c : Qubit) : () {
        body {
            (Adjoint T)(q);
            (Controlled T)([c], q);
            (Adjoint Controlled T)([c], q);
            (Controlled Adjoint T)([c], q);
            (Adjoint Adjoint R1Frac)(1, 2, q);
            (Adjoint Controlled R1Frac)([c], (3, 2, q));
            (Adjoint Rot)(q);
            (Controlled Rot)([c], q);
            (Adjoint Controlled Rot)([c], q);
        }
    }

    operation ThroughLocals (q : Qubit, c : Qubit) : () {
        body {
            let t = T;
            let r1 = R1Frac;
            let rot = Rot;
            (Adjoint t)(q);
            (Controlled t)([c], q);
            (Adjoint Controlled t)([c], q);
            (Controlled Adjoint t)([c], q);
            (Adjoint Adjoint r1)(1, 2, q);
            (Adjoint Controlled r1)([c], (3, 2, q));
            (Adjoint rot)(q);
            (Controlled rot)([c], q);
            (Adjoint Controlled rot)([c], q);
        }
    }

    operation Main (useLocals : Bool) : () {
        body {
            using (qs = Qubit[2]) {
                X(qs[1]);
                if (useLocals) { ThroughLocals(qs[0], qs[1]); }
                else { Static(qs[0], qs[1]); }
                ResetAll(qs);
            }
        }
    }
}"""


def test_static_callees_trace_as_the_same_callables_through_locals():
    main = get_symbol(compile_ok(STATIC_CALLEES), "T.Main")

    def trace(use_locals: bool) -> list[str]:
        lines = []
        interp = Interpreter(
            intrinsic_handlers(), RunOptions(), random.Random(3), lines.append
        )
        interp.invoke(Closure(main), use_locals)
        return lines

    static = trace(False)
    assert static == trace(True)
    assert static[2:18] == [
        "gate Adjoint T q0",
        "gate T q0 ctl[q1]",
        "gate Adjoint T q0 ctl[q1]",
        "gate Adjoint T q0 ctl[q1]",
        "gate R1Frac(1,2) q0",
        "gate R1Frac(-3,2) q0 ctl[q1]",
        # Adjoint Rot: its body reversed, each gate inverted.
        "gate Adjoint H q0",
        "gate R1Frac(-1,3) q0",
        "gate Adjoint T q0",
        "gate T q0 ctl[q1]",
        "gate R1Frac(1,3) q0 ctl[q1]",
        "gate H q0 ctl[q1]",
        "gate Adjoint H q0 ctl[q1]",
        "gate R1Frac(-1,3) q0 ctl[q1]",
        "gate Adjoint T q0 ctl[q1]",
        "measure [Z] [q0] -> Zero",
    ]


def test_failure_of_a_static_call_under_functors_has_its_span():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body {
            using (q = Qubit()) {
                (Adjoint Controlled X)([q], q);
            }
        }
    }
}"""
    with pytest.raises(QdslFailure) as info:
        run_main(text)
    span = info.value.span
    assert span is not None
    assert text[span.start : span.end] == "(Adjoint Controlled X)([q], q)"


def failure_of(statements: str, **options) -> tuple[QdslFailure, str]:
    """The failure of Main with these body statements, and the span's text."""
    text = f"""
namespace T {{
    open Microsoft.Quantum.Primitive;
    operation Main () : () {{
        body {{
            {statements}
        }}
    }}
}}"""
    with pytest.raises(QdslFailure) as info:
        run_main(text, **options)
    span = info.value.span
    assert span is not None
    return info.value, text[span.start : span.end]


@pytest.mark.parametrize("keyword", ["using", "borrowing"])
def test_allocation_past_the_qubit_limit_fails_at_its_block(keyword):
    block = f"{keyword} (qs = Qubit[2]) {{ H(qs[0]); }}"
    failure, text = failure_of(f"using (q = Qubit()) {{ {block} }}", max_qubits=2)
    assert "cannot allocate more than 2 qubits" in failure.message
    assert text == block


def test_strict_release_of_a_dirty_qubit_fails_at_its_block():
    block = "using (q = Qubit()) { X(q); }"
    failure, text = failure_of(block)
    assert "released with probability 1 of being |1>" in failure.message
    assert text == block


def test_gate_with_a_repeated_qubit_fails_at_its_call():
    call = "(Controlled X)([q], q)"
    failure, text = failure_of(f"using (q = Qubit()) {{ {call}; }}")
    assert "a qubit may appear only once" in failure.message
    assert text == call


@pytest.mark.parametrize("bases", ["[PauliZ; PauliZ]", "[PauliI; PauliI]"])
def test_measurement_with_a_basis_per_qubit_mismatch_fails_at_its_call(bases):
    call = f"Measure({bases}, [q])"
    failure, text = failure_of(f"using (q = Qubit()) {{ let r = {call}; }}")
    assert "one Pauli basis per qubit" in failure.message
    assert text == call
