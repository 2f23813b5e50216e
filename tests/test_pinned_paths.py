"""Paths that programs reach and that are pinned here exactly: ranges at the
64-bit edges, value identity, the output kept and the Python frames given in
direct runs, probes that conjugate nothing, the text of callable values, and
checker and runtime branches that no other test runs.
"""

import random
import sys
import tracemalloc

import pytest

from qdsl.ast_nodes import SpecKind
from qdsl.compiler import compile_snippet, resolve_entry, wrap_statement_snippet
from qdsl.prelude import intrinsic_handlers
from qdsl.pretty import pretty_print
from qdsl.runtime import Interpreter, QdslFailure, RunOptions, _held
from qdsl.simulator import BYTES_PER_AMPLITUDE, GATE_MATRICES, StateVectorSimulator
from qdsl.values import Pauli, QubitRef, RangeValue, Result, render_value
from conftest import compile_ok, get_symbol, run_main

INT_MIN, INT_MAX = -(1 << 63), (1 << 63) - 1


# ── Ranges and identity ──────────────────────────────────────────────────────


@pytest.mark.parametrize("start, step, end, last", [
    (0, 1, INT_MAX, INT_MAX),
    (INT_MIN, 1, INT_MAX, INT_MAX),
    (INT_MAX, -1, INT_MIN, INT_MIN),
    (INT_MIN, 7, INT_MAX, INT_MAX - 1),
])
def test_reversing_a_range_longer_than_sys_maxsize_is_exact(start, step, end, last):
    r = RangeValue(start, step, end)
    assert next(iter(r), None) == start
    back = r.reversed()
    assert (back.start, back.step, back.end) == (last, -step, start)
    assert next(iter(back)) == last
    assert render_value(back) == f"{last}..{-step}..{start}"


def test_reversed_range_of_the_whole_positive_half_runs():
    [shot] = run_main(wrap_statement_snippet(
        'Message($"{ReversedRange(0 .. 9223372036854775807)}");'
    ))
    assert shot.messages == ["9223372036854775807..-1..0"]


def test_adjoint_of_a_loop_over_a_huge_range_stops_at_the_iteration_limit():
    text = """
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Loop (q : Qubit) : () {
        body {
            for (i in 0 .. 9223372036854775807) { X(q); }
        }
        adjoint auto
    }
    operation Main () : () {
        body {
            using (q = Qubit()) { (Adjoint Loop)(q); }
        }
    }
}"""
    with pytest.raises(QdslFailure, match="^for loop exceeded 10 iterations$"):
        run_main(text, max_iterations=10)


def test_values_compare_by_identity():
    assert QubitRef(0) != QubitRef(0)
    assert RangeValue(0, 1, 3) != RangeValue(0, 1, 3)
    q = QubitRef(0)
    assert q == q
    assert len({QubitRef(0), QubitRef(0)}) == 2


# ── Direct runs ──────────────────────────────────────────────────────────────


def test_each_directly_built_interpreter_starts_its_own_kept_output(monkeypatch):
    import qdsl.simulator

    monkeypatch.setattr(qdsl.simulator, "MEMORY_BUDGET", 2**16)
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body {
            for (i in 1 .. 100) { Message("a message kept until printing"); }
        }
    }
}""")
    entry, err = resolve_entry(result, None)
    assert err is None
    # Each run keeps about a third of the 32,768 bytes it may keep.
    for seed in range(5):
        interp = Interpreter(intrinsic_handlers(), RunOptions(), random.Random(seed))
        interp.run(entry)
        assert len(interp.messages) == 100


def test_interpreters_built_before_either_runs_keep_their_own_output(monkeypatch):
    import qdsl.simulator

    monkeypatch.setattr(qdsl.simulator, "MEMORY_BUDGET", 2**16)
    result = compile_ok("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body {
            for (i in 1 .. 200) { Message("a message kept until printing"); }
        }
    }
}""")
    entry, err = resolve_entry(result, None)
    assert err is None
    # Each run keeps about two thirds of the 32,768 bytes it may keep, so the
    # second passes the limit if it counts on from the first.
    interps = [Interpreter(intrinsic_handlers(), RunOptions(), random.Random(seed))
               for seed in range(2)]
    for interp in interps:
        interp.run(entry)
        assert len(interp.messages) == 200


def test_a_direct_run_gets_the_documented_python_frames():
    result = compile_ok("""
namespace T {
    function Down (n : Int) : Int { if (n == 0) { return 0; } return Down(n - 1) + 1; }
    operation Main () : Int { body { return Down(900); } }
}""")
    entry, err = resolve_entry(result, None)
    assert err is None
    interp = Interpreter(intrinsic_handlers(), RunOptions(), random.Random(1))
    assert interp.run(entry) == 900


# ── Sizing a shot's value ───────────────────────────────────────────────────


def _held_by_recursion(value) -> int:
    """The per-object definition that `_held` computes without recursion."""
    size = sys.getsizeof(value) + 16
    if value.__class__ is list or value.__class__ is tuple:
        size += sum(map(_held_by_recursion, value))
    return size


class _ListSubclass(list):
    """Not an exact list, so sized as one object, its items not walked."""


def _seeded_value(rng: random.Random, depth: int):
    leaves = [
        lambda: rng.randrange(-(1 << 70), 1 << 70),
        lambda: rng.random() < 0.5,
        lambda: rng.uniform(-1e9, 1e9),
        lambda: "x" * rng.randrange(40) + "é" * rng.randrange(2),
        lambda: rng.choice(list(Result) + list(Pauli)),
        lambda: QubitRef(rng.randrange(8)),
        lambda: RangeValue(0, 1, rng.randrange(9)),
        lambda: _ListSubclass(range(rng.randrange(4))),
        lambda: None,
    ]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)()
    if rng.random() < 0.5:  # a homogeneous array, as qdsl arrays are
        make = rng.choice(leaves[:4] + [lambda: _seeded_value(rng, depth - 1)])
        items = [make() for _ in range(rng.randrange(6))]
    else:
        items = [_seeded_value(rng, depth - 1) for _ in range(rng.randrange(6))]
    if items and rng.random() < 0.3:
        items.append(items[0])  # held twice, counted twice
    return items if rng.random() < 0.6 else tuple(items)


@pytest.mark.parametrize("seed", range(40))
def test_held_counts_what_the_recursive_definition_counts(seed):
    rng = random.Random(seed)
    value = [_seeded_value(rng, rng.randrange(6)) for _ in range(rng.randrange(1, 9))]
    assert _held(value) == _held_by_recursion(value)


def test_held_walks_deeper_than_the_python_frames():
    value = [1.5]
    for _ in range(5000):
        value = (value, "a")
    pair = sys.getsizeof((None, "a")) + sys.getsizeof("a") + 32
    assert _held(value) == 5000 * pair + sys.getsizeof([1.5]) + sys.getsizeof(1.5) + 32


def test_held_copies_no_level_of_shared_rows():
    row = list(range(1000))
    value = [row] * 1000  # a million items held through 1,000 pointers
    tracemalloc.start()
    try:
        size = _held(value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size == _held_by_recursion(value)
    assert peak < 64 * 1024  # a copy of the rows' items would take 8 MB


# ── Probes ───────────────────────────────────────────────────────────────────


def test_a_probe_that_conjugates_nothing_does_not_copy_the_state():
    n = 20
    sim = StateVectorSimulator(capacity=n)
    for qid in range(n):
        sim.allocate(qid)
    sim.apply(GATE_MATRICES["H"], 3)
    state_bytes = BYTES_PER_AMPLITUDE << n
    tracemalloc.start()
    try:
        p_zero = sim.probe_zero_probability(["Z"], [3])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p_zero == pytest.approx(0.5)
    assert peak < state_bytes


# ── Text of callable values ──────────────────────────────────────────────────


def test_interpolated_callables_name_their_kind_functors_and_base():
    [shot] = run_main("""
namespace T {
    open Microsoft.Quantum.Primitive;
    function Id (x : Int) : Int { return x; }
    operation Main () : () {
        body { Message($"{H} {Adjoint T} {Controlled X} {Id} {CNOT(_, _)}"); }
    }
}""")
    assert shot.messages == [
        "<operation Microsoft.Quantum.Primitive.H> "
        "<operation Adjoint Microsoft.Quantum.Primitive.T> "
        "<operation Controlled Microsoft.Quantum.Primitive.X> "
        "<function T.Id> "
        "<operation Microsoft.Quantum.Primitive.CNOT>"
    ]


# ── Checker diagnostics ──────────────────────────────────────────────────────


def diagnostics(text: str) -> list[tuple[str, str]]:
    return [(d.code, d.message) for d in compile_snippet(text, file="<test>").errors]


def statements(stmts: str) -> list[tuple[str, str]]:
    return diagnostics(wrap_statement_snippet(stmts))


def test_passing_an_operation_for_a_function_parameter():
    assert diagnostics("""
namespace T {
    operation Inc (x : Int) : Int { body { return x + 1; } }
    function Apply (f : (Int -> Int), x : Int) : Int { return f(x); }
    operation Main () : Int { body { return Apply(Inc, 1); } }
}""") == [("type-mismatch", "cannot use value of type (Int => Int) where (Int -> Int) "
           "is expected (operation vs function)")]


def test_passing_a_plain_operation_for_an_adjointable_parameter():
    assert diagnostics("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Plain (q : Qubit) : () { body { X(q); } }
    operation Use (op : (Qubit => () : Adjoint), q : Qubit) : () {
        body { (Adjoint op)(q); }
    }
    operation Main () : () { body { using (q = Qubit()) { Use(Plain, q); } } }
}""") == [("type-mismatch", "cannot use value of type (Qubit => ()) where "
           "(Qubit => () : Adjoint) is expected (missing functor support: Adjoint)")]


@pytest.mark.parametrize("stmts, expected", [
    ("set x = 1;", [("name-not-found", "name 'x' is not defined")]),
    ("let a = [1; true];",
     [("type-mismatch", "array elements have incompatible types Int and Bool")]),
    ("let n = 3; let b = n[0];",
     [("type-mismatch", "only arrays can be indexed, found Int")]),
    ("let a = [1; 2]; let b = a[true];",
     [("type-mismatch", "an index must be an Int or a Range, found Bool")]),
    ("let b = -true;", [("type-mismatch", "operator - is not defined for Bool")]),
], ids=["set-unbound", "mixed-array", "index-int", "index-bool", "negate-bool"])
def test_checker_diagnostic(stmts, expected):
    assert statements(stmts) == expected


def test_an_interpolation_hole_left_open_at_the_end_of_the_line():
    # The string ends at the quote in its hole, so the rest of the line is code.
    assert statements('Message($"{x");') == [
        ("unexpected-token", "unterminated interpolation hole"),
    ]
    text = 'namespace T { function F () : String { return $"{x"; } }'
    assert diagnostics(text) == [("unexpected-token", "unterminated interpolation hole")]


def test_an_unknown_functor_in_a_signature():
    assert diagnostics("""
namespace T {
    function F (op : (Qubit => () : Foo)) : () { }
}""") == [("unexpected-token", "unknown functor 'Foo'")]


# ── Generated specializations and borrowing ──────────────────────────────────


CONTROLLED_FAIL = """
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Boom (q : Qubit) : () {
        body { X(q); fail "boom"; }
        controlled auto
    }
    operation Main () : () {
        body {
            using (qs = Qubit[2]) { (Controlled Boom)([qs[0]], qs[1]); }
        }
    }
}"""


def test_controlled_auto_keeps_a_fail(tmp_path, capsys):
    from qdsl import cli

    result = compile_ok(CONTROLLED_FAIL)
    block = get_symbol(result, "T.Boom").specializations[SpecKind.CONTROLLED].block
    assert pretty_print(block).splitlines()[-1].strip() == 'fail "boom";'
    path = tmp_path / "boom.qds"
    path.write_text(CONTROLLED_FAIL)
    assert cli.main(["run", "--entry", "T.Main", str(path)]) == 3
    assert capsys.readouterr().err == "runtime error: boom\n"


def test_borrowing_skips_a_qubit_given_to_a_partial_application():
    [shot] = run_main("""
namespace T {
    open Microsoft.Quantum.Primitive;
    operation Inner (op : (Qubit => ())) : () {
        body {
            borrowing (b = Qubit()) { Message($"{b}"); }
        }
    }
    operation Main () : () {
        body {
            using (qs = Qubit[2]) { Inner(CNOT(qs[0], _)); }
        }
    }
}""")
    # `op` reaches q0 through its given argument, so q1 is borrowed.
    assert shot.messages == ["q1"]
    assert shot.stats.borrowed_existing == 1
