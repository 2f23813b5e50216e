"""Programs whose shape is extreme for Python, not for qdsl.

Deep nesting, long chains and odd names must run as any other program does:
a limit of the Python that runs the runtime (nested blocks, indentation,
parentheses, frames) must never become a limit of qdsl. Program text, names
included, must never change what the runtime does. And a recursive call
inside nested loops meets the qdsl call-depth limit, not Python's recursion
limit.
"""

from __future__ import annotations

import sys

import pytest

from qdsl.compiler import resolve_entry
from qdsl.prelude import intrinsic_handlers
from qdsl.runtime import QdslFailure, RunOptions, run_shots
from conftest import compile_ok, run_main


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


def run_compiled_with_headroom(text: str):
    """The shot of `text`, compiled with Python's recursion limit raised.

    The front end reports nesting deeper than Python's recursion limit
    allows as `nesting-too-deep`, counted from wherever the stack already
    is. These programs are at that edge, so they are compiled with
    headroom; the run itself gets none.
    """
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(previous + 2000)
    try:
        result = compile_ok(text)
    finally:
        sys.setrecursionlimit(previous)
    entry, error = resolve_entry(result, None)
    assert error is None, error
    [shot] = run_shots(intrinsic_handlers(), entry, 1, 1, RunOptions())
    return shot


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
    shot = run_compiled_with_headroom(text)
    assert shot.value == value
    assert shot.messages == ["Pred 4"] * messages


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
