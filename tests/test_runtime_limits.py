"""Programs whose shape is extreme for Python, not for qdsl.

Deep nesting, long chains and odd names must run as any other program does:
a limit of the Python that runs the runtime (nested blocks, indentation,
parentheses, frames) must never become a limit of qdsl. Program text, names
included, must never change what the runtime does. A recursive call
inside nested loops meets the qdsl call-depth limit, not Python's recursion
limit. And how deeply a program may nest does not depend on the stack of
whoever compiles it. Compiling and running on several threads at once never
changes Python's recursion limit under a thread that is deep in a run.
"""

from __future__ import annotations

import subprocess
import sys
import threading

import pytest

from qdsl.compiler import compile_snippet
from qdsl.diagnostics import NESTING_TOO_DEEP
from qdsl.runtime import QdslFailure
from conftest import run_main


def main_program(body: str, output: str = "Int", decls: str = "") -> str:
    return f"""
namespace T {{
    open Microsoft.Quantum.Primitive;
{decls}
    operation Main () : {output} {{
        body {{
            {body}
        }}
    }}
}}"""


PRED = """
    function Pred (n : Int) : Bool {
        Message($"Pred {n}");
        return n % 2 == 0;
    }
"""


def nested_for(depth: int) -> str:
    loops = "".join(f"for (i{k} in 0 .. 0) {{ " for k in range(depth))
    return main_program(
        f"mutable n = 0; {loops}set n = n + 1 + i{depth - 1};{' }' * depth} return n;"
    )


def nested_if(depth: int) -> str:
    ifs = "".join(f"if (k >= {j}) {{ " for j in range(depth))
    return main_program(f"let k = {depth - 1}; {ifs}return {depth};{' }' * depth} return -1;")


def elif_chain(branches: int) -> str:
    chain = " ".join(
        f"{'elif' if j else 'if'} (k == {j}) {{ set r = {7 * j}; }}" for j in range(branches)
    )
    return main_program(f"let k = {branches - 2}; mutable r = -1; {chain} else {{ set r = -2; }} return r;")


def right_nested(op: str, depth: int) -> str:
    """`a op (b op (... op Pred(k)))`: every operand but the innermost call
    lets the evaluation go on."""
    leaf = (lambda j: f"k < {j + 10}") if op == "&&" else (lambda j: f"k > {j + 10}")
    text = "Pred(k)"
    for j in reversed(range(depth - 1)):
        text = f"{leaf(j)} {op} ({text})"
    return main_program(f"let k = 4; return {text};", "Bool", PRED)


def nested_using(depth: int) -> str:
    """Every other block allocates one qubit, so the state stays small."""
    blocks = "".join(f"using (q{k} = Qubit[{k % 2}]) {{ " for k in range(depth))
    body = f"X(q{depth - 1}[0]); set n = n + Length(q{depth - 2}) + 1; X(q{depth - 1}[0]);"
    return main_program(f"mutable n = 0; {blocks}{body}{' }' * depth} return n;")


def long_sum(terms: int) -> str:
    return main_program("return " + " + ".join(str(j) for j in range(1, terms + 1)) + ";")


def nested_repeat(depth: int) -> str:
    heads = "repeat { " * depth
    tails = "".join(f" }} until (c >= {k}) fixup {{ }}" for k in range(depth))
    return main_program(f"mutable c = 0; {heads}set c = c + 1;{tails} return c;")


@pytest.mark.parametrize(
    "text, value, messages",
    [
        (nested_for(324), 1, 0),
        (nested_if(196), 196, 0),
        (elif_chain(300), 7 * 298, 0),
        (right_nested("&&", 140), True, 1),
        (right_nested("||", 140), True, 1),
        (nested_using(24), 1, 0),
        (long_sum(328), 328 * 329 // 2, 0),
        (nested_repeat(40), 39, 0),
    ],
    ids=["for-324", "if-196", "elif-300", "and-140", "or-140", "using-24", "sum-328", "repeat-40"],
)
def test_deep_nesting_runs_as_any_program(text, value, messages):
    [shot] = run_main(text)
    assert shot.value == value
    assert shot.messages == ["Pred 4"] * messages


# ── The front end's nesting limit ───────────────────────────────────────────

# The deepest nesting of each shape in a function body that README and
# docs/grammar.md document.
FRONT_END_LIMITS = {"parentheses": 180, "terms": 364, "ifs": 218}


def front_end_shape(shape: str, depth: int) -> str:
    body = {
        "parentheses": "return " + "(" * depth + "1" + ")" * depth + ";",
        "terms": "return " + " + ".join(["1"] * depth) + ";",
        "ifs": "if (true) { " * depth + "}" * depth + " return 1;",
    }[shape]
    return f"namespace T {{ function F () : Int {{ {body} }} }}"


def verdicts(text: str) -> list[bool]:
    """Whether `text` compiles without `nesting-too-deep`: called from this
    thread, from a new thread and from 200 frames deeper."""
    def compiles() -> bool:
        return all(d.code != NESTING_TOO_DEEP for d in compile_snippet(text).diagnostics)

    def deeper(frames: int) -> bool:
        return compiles() if frames == 0 else deeper(frames - 1)

    found: list[bool] = []
    thread = threading.Thread(target=lambda: found.append(compiles()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return [compiles(), *found, deeper(200)]


@pytest.mark.parametrize("shape", sorted(FRONT_END_LIMITS))
def test_the_nesting_limit_does_not_depend_on_the_callers_stack(shape):
    limit = FRONT_END_LIMITS[shape]
    assert verdicts(front_end_shape(shape, limit)) == [True] * 3
    assert verdicts(front_end_shape(shape, limit + 1)) == [False] * 3


# ── Program text never reaches the runtime's code ───────────────────────────

NAMES_AND_TEXT = r"""
namespace T {
    open Microsoft.Quantum.Primitive;

    function run (frame : Int, interp : Int) : Int {
        let value = frame * 10 + interp;
        return value;
    }

    operation Main () : (String, Int, String) {
        body {
            let t1 = "say \"hi\" \\ {} \"\"\" \n end";
            let k1 = $"<{t1}> \{\} \"\"\" \\n {run(1, 2)}";
            mutable frame = run(3, 4);
            let interp = [frame; 2];
            let f1 = run;
            let value = f1(interp[1], frame);
            set frame = frame + value;
            using (run = Qubit()) {
                let r = Measure([PauliZ], [run]);
                Message($"{r} {run} {t1}");
            }
            Message(k1);
            Message($"\"\"\"{value}\"\"\"");
            return (t1, frame, k1);
        }
    }
}"""

TEXT = 'say "hi" \\ {} """ \n end'


def test_program_text_and_names_do_not_reach_the_runtime():
    [shot] = run_main(NAMES_AND_TEXT)
    kept = f'<{TEXT}> {{}} """ \\n 12'
    assert shot.value == (TEXT, 34 + 54, kept)
    assert shot.messages == [f"Zero q0 {TEXT}", kept, '"""54"""']


def test_a_failure_message_with_program_text_is_kept():
    text = main_program('fail $"\\"\\"\\" {3} \\{\\} \\\\ \\n";')
    with pytest.raises(QdslFailure) as info:
        run_main(text)
    assert info.value.message == '""" 3 {} \\ \n'


# ── Recursion inside nested loops ────────────────────────────────────────────


def recursion_in_loops(depth: int) -> str:
    """Main, then Down(depth) .. Down(0), each call inside 10 nested `for`
    loops: `depth + 2` nested calls, returning `depth`."""
    loops = "".join(f"for (i{k} in 0 .. 0) {{ " for k in range(10))
    return f"""
namespace T {{
    function Down (n : Int) : Int {{
        {loops}if (n == 0) {{ return i9; }}
        return 1 + Down(n - 1);{" }" * 10}
        return -1;
    }}
    operation Main () : Int {{
        body {{ return Down({depth}); }}
    }}
}}"""


def test_recursion_inside_nested_loops_runs_below_the_call_depth_limit():
    [shot] = run_main(recursion_in_loops(997))
    assert shot.value == 997


def test_recursion_inside_nested_loops_meets_the_call_depth_limit():
    with pytest.raises(QdslFailure) as info:
        run_main(recursion_in_loops(1000))
    assert info.value.message == "call depth exceeded the limit of 1000"


# ── Blocks at the emitter's inline depth ────────────────────────────────────

# qdsl nesting from below to above the depth at which the emitted source
# stops indenting a block in place and makes it a function. An `elif` branch
# indents its suite two levels, the others one.
BOUNDARY_DEPTHS = range(2, 10)

NESTINGS = {
    "if": (lambda k: f"if (n >= {k}) {{ set n = n + 1; ", " }"),
    "elif": (lambda k: f"if (n < 0) {{ }} elif (n >= {k}) {{ set n = n + 1; ", " }"),
    "for": (lambda k: f"for (i{k} in 0 .. 0) {{ set n = n + 1 + i{k}; ", " }"),
    "repeat": (lambda k: "repeat { set n = n + 1; ", " } until (true) fixup { }"),
}

# Statements run at the innermost level, where `n` is the nesting depth.
INNERMOST = {
    "return": "return n;",
    "fail": 'fail $"deep {n}";',
    "index": "let a = [1; 2]; set n = n + a[n];",
    "released target": "H(s);",
    "released control": "using (t = Qubit()) { (Controlled X)([s], t); }",
    "and": "let b = n > 100 || Pred(n) && n > 1; if (b) { return 1000 + n; } return -n;",
    "empty suite": "let u = (); if (true) { u; } return n;",
}


def nested_at(kind: str, depth: int, innermost: str) -> str:
    """`Deep` nests `depth` blocks of `kind` around `innermost`, with `s` a
    reference to a released qubit."""
    opens, close = NESTINGS[kind]
    heads = "".join(opens(k) for k in range(depth))
    return f"""
namespace T {{
    open Microsoft.Quantum.Primitive;
{PRED}
    operation Deep (q : Qubit) : Int {{
        body {{
            mutable s = q;
            using (b = Qubit()) {{ set s = b; }}
            mutable n = 0;
            {heads}{innermost}{close * depth}
            return -1;
        }}
    }}
    operation Main () : Int {{
        body {{
            mutable r = 0;
            using (q = Qubit()) {{ set r = Deep(q); }}
            return r;
        }}
    }}
}}"""


def boundary_outcome(depth: int, case: str):
    """The value and messages, or the failure's message and span text, of
    the program `nested_at` builds with INNERMOST[case], whatever the kind."""
    if case in ("return", "empty suite"):
        return ("value", depth, [])
    if case == "and":
        return ("value", 1000 + depth if depth % 2 == 0 else -depth, [f"Pred {depth}"])
    if case == "fail":
        return ("failure", f"deep {depth}", 'fail $"deep {n}";')
    if case == "index":
        return ("failure", f"index {depth} is out of range for an array of length 2", "a[n]")
    use = "H(s)" if case == "released target" else "(Controlled X)([s], t)"
    return ("failure", "qubit q1 was used after its release", use)


@pytest.mark.parametrize("case", sorted(INNERMOST))
@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_blocks_around_the_inline_depth_run_as_any_block(kind, case):
    for depth in BOUNDARY_DEPTHS:
        text = nested_at(kind, depth, INNERMOST[case])
        expected = boundary_outcome(depth, case)
        try:
            [shot] = run_main(text)
        except QdslFailure as failure:
            span = failure.span
            assert span is not None, (depth, failure.message)
            assert span.start == text.index(expected[2]), depth
            assert ("failure", failure.message, text[span.start : span.end]) == expected
        else:
            assert ("value", shot.value, shot.messages) == expected, depth


# ── One recursion budget for compiling and running ──────────────────────────

# Python's recursion limit is one setting of the process. Each case runs in a
# fresh interpreter, so that an abort for a stack overflow fails the test
# instead of killing the test process. `Down(900)` is 902 nested qdsl calls.
THREADED = '''
import sys, threading
from qdsl.compiler import compile_snippet, resolve_entry
from qdsl.prelude import intrinsic_handlers
from qdsl.runtime import RunOptions, run_shots

DOWN = """
namespace T {
    function Down (n : Int) : Int {
        if (n == 0) { return 0; }
        return 1 + Down(n - 1);
    }
    operation Main () : Int { body { return Down(900); } }
}"""
entry, _ = resolve_entry(compile_snippet(DOWN), None)
limit = sys.getrecursionlimit()
failures = []

def guarded(work):
    def run(*args):
        try:
            work(*args)
        except BaseException as error:
            failures.append(repr(error))
    return run

@guarded
def shots(count):
    for shot in range(count):
        [result] = run_shots(intrinsic_handlers(), entry, 1, shot, RunOptions())
        if result.value != 900:
            failures.append(result.value)

@guarded
def compile_until(done):
    while not done.is_set():
        result = compile_snippet("namespace U { function F () : Int { return 1; } }")
        if not result.ok:
            failures.append(str(result.diagnostics))

CASE
print(failures, sys.getrecursionlimit() == limit)
'''

THREAD_CASES = {
    "compile while running": """
done = threading.Event()
compiling = threading.Thread(target=compile_until, args=(done,))
compiling.start()
shots(30)
done.set()
compiling.join()
""",
    "two runs": """
for _ in range(10):  # rounds, so that some shots of the two threads overlap
    runs = [threading.Thread(target=shots, args=(20,)) for _ in range(2)]
    for run in runs:
        run.start()
    for run in runs:
        run.join()
""",
}


@pytest.mark.parametrize("case", sorted(THREAD_CASES))
def test_threads_that_compile_and_run_share_one_recursion_limit(case):
    script = THREADED.replace("CASE", THREAD_CASES[case])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[] True"


# ── Runaway arrays and strings ──────────────────────────────────────────────

# A new array or string is refused before it is built when its length times
# 32 bytes exceeds the memory budget that also bounds the state vector.
DOUBLING = {
    "array": ("mutable m = [1; 2; 3];", "m + m", "Length(m)"),
    "string": ('mutable m = "abc";', '$"{m}{m}"', "0"),
}


def doubling(kind: str, times: int) -> str:
    start, doubled, length = DOUBLING[kind]
    return main_program(
        f"{start} for (i in 1 .. {times}) {{ set m = {doubled}; }} "
        f"return ({length} + 1 + 2, 1.5 + 2.0);",
        "(Int, Double)",
    )


@pytest.mark.parametrize("kind", sorted(DOUBLING))
def test_a_runaway_array_or_string_fails_at_its_expression(kind, monkeypatch):
    import qdsl.simulator

    monkeypatch.setattr(qdsl.simulator, "MEMORY_BUDGET", 32 * 3 * 2**10)
    [shot] = run_main(doubling(kind, 10))  # 3 * 2**10 items fit
    assert shot.value == ((3 * 2**10 if kind == "array" else 0) + 3, 3.5)
    text = doubling(kind, 11)
    with pytest.raises(QdslFailure) as info:
        run_main(text)
    assert info.value.message == (
        f"a new {kind} of length {3 * 2**11} is longer than the {3 * 2**10} "
        "that fit in the memory budget"
    )
    span = info.value.span
    assert text[span.start : span.end] == DOUBLING[kind][1]


def test_int_and_double_sums_are_not_bounded_by_the_memory_budget(monkeypatch):
    import qdsl.simulator

    monkeypatch.setattr(qdsl.simulator, "MEMORY_BUDGET", 0)
    [shot] = run_main(main_program("return (1 + 2, 1.5 + 2.0);", "(Int, Double)"))
    assert shot.value == (3, 3.5)


def test_rendering_stops_at_the_memory_budget_before_later_items(monkeypatch):
    import qdsl.simulator
    from qdsl.runtime import render

    class Unrenderable:
        def __str__(self):
            raise AssertionError("rendered an item past the memory budget")

    monkeypatch.setattr(qdsl.simulator, "MEMORY_BUDGET", 32 * 8)
    assert render(["ab", [1, 2]]) == "ab[1; 2]"  # 8 characters fit
    with pytest.raises(QdslFailure) as info:
        render(["abc", ["defgh", Unrenderable()]])
    assert info.value.message == (
        "a new string of length 9 is longer than the 8 that fit in the memory budget"
    )


def test_an_interpolated_array_past_the_memory_budget_fails_at_its_span(monkeypatch):
    import qdsl.simulator

    monkeypatch.setattr(qdsl.simulator, "MEMORY_BUDGET", 32 * 3 * 2**10)
    text = main_program(
        'mutable m = [1]; for (i in 1 .. 10) { set m = m + m; } Message($"m: {m}");',
        "()",
    )
    with pytest.raises(QdslFailure) as info:
        run_main(text)
    assert info.value.message.startswith("a new string of length 3073 is longer than the 3072")
    span = info.value.span
    assert (info.value.file, text[span.start : span.end]) == ("<test>", '$"m: {m}"')
