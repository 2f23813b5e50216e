"""Command-line interface, exercised through real subprocesses.

Every test but one shells out to `python -m qdsl` the way a user would, so
argument parsing, environment-variable fallbacks, exit codes, and the exact
output formats are all covered end to end. The memory-budget test runs the
CLI in process, because it patches the budget down.
"""

import json
import os
import subprocess
import sys

import pytest

from test_runtime import STALE_QUBIT_ESCAPES, stale_qubit_program

GOOD_PROGRAM = """
namespace Demo {
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
}
"""

BAD_PROGRAM = """
namespace Demo {
    function F (n : Int) : Int {
        return n + true;
    }
}
"""

FAILING_PROGRAM = """
namespace Demo {
    operation Main () : () {
        body {
            fail "deliberate failure";
        }
    }
}
"""


def qdsl(*argv, env_extra=None, cwd=None, timeout=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("QDSL_")}
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qdsl", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.qds"
    path.write_text(GOOD_PROGRAM)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.qds"
    path.write_text(BAD_PROGRAM)
    return str(path)


@pytest.fixture
def failing_file(tmp_path):
    path = tmp_path / "failing.qds"
    path.write_text(FAILING_PROGRAM)
    return str(path)


# ── check ────────────────────────────────────────────────────────────────────


def test_check_clean_file(good_file):
    proc = qdsl("check", good_file)
    assert proc.returncode == 0
    assert "ok: 1 file(s) checked" in proc.stdout


def test_check_reports_diagnostics_with_positions(bad_file):
    proc = qdsl("check", bad_file)
    assert proc.returncode == 1
    assert "bad.qds:4:" in proc.stderr
    assert "[type-mismatch]" in proc.stderr


def test_check_diagnostic_line_format(bad_file):
    """README documents this exact form: file:line:col: severity: message [code]."""
    proc = qdsl("check", bad_file)
    assert proc.stderr == (
        f"{bad_file}:4:16: error: operator + is not defined for Int and Bool "
        "[type-mismatch]\n"
    )


def test_check_json_payload(bad_file):
    proc = qdsl("check", "--json", bad_file)
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["version"] == 1
    assert payload["command"] == "check"
    assert payload["ok"] is False
    [diag] = [d for d in payload["diagnostics"] if d["code"] == "type-mismatch"]
    assert diag["file"].endswith("bad.qds")
    assert diag["line"] == 4
    assert diag["severity"] == "error"


def test_check_json_clean(good_file):
    proc = qdsl("check", "--json", good_file)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert payload["diagnostics"] == []


def test_check_multiple_files(tmp_path):
    a = tmp_path / "a.qds"
    a.write_text("namespace A { function Single () : Int { return 1; } }")
    b = tmp_path / "b.qds"
    b.write_text("""
namespace B {
    open A;
    function Two () : Int { return Single() + Single(); }
}""")
    proc = qdsl("check", str(a), str(b))
    assert proc.returncode == 0
    assert "ok: 2 file(s) checked" in proc.stdout


def test_check_emit_specializations(tmp_path):
    path = tmp_path / "spec.qds"
    path.write_text("""
namespace Demo {
    open Microsoft.Quantum.Primitive;
    operation Prep (a : Qubit, b : Qubit) : () {
        body {
            H(a);
            CNOT(a, b);
        }
        adjoint auto
        controlled auto
        controlled adjoint auto
    }
}""")
    proc = qdsl("check", "--emit-specializations", str(path))
    assert proc.returncode == 0
    assert "// Demo.Prep" in proc.stdout
    assert "(Adjoint CNOT)(a, b);" in proc.stdout
    assert "(Controlled H)(ctls, a);" in proc.stdout


def test_check_json_emit_specializations_is_one_json_document(tmp_path):
    path = tmp_path / "spec.qds"
    path.write_text("""
namespace Demo {
    open Microsoft.Quantum.Primitive;
    operation Prep (a : Qubit, b : Qubit) : () {
        body {
            H(a);
            CNOT(a, b);
        }
        adjoint auto
        controlled auto
        controlled adjoint auto
    }
    operation Flip (q : Qubit) : () {
        body { X(q); }
        adjoint self
        controlled auto
        controlled adjoint self
    }
}""")
    proc = qdsl("check", "--json", "--emit-specializations", str(path))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["version"] == 1 and payload["ok"] is True
    specs = payload["specializations"]
    assert [(s["callable"], s["kind"]) for s in specs] == [
        ("Demo.Prep", "adjoint"),
        ("Demo.Prep", "controlled"),
        ("Demo.Prep", "controlled adjoint"),
        ("Demo.Flip", "controlled"),
    ]
    text = qdsl("check", "--emit-specializations", str(path)).stdout
    blocks = "".join(f"// {s['callable']}\n{s['source']}\n" for s in specs)
    assert text == "ok: 1 file(s) checked\n" + blocks
    # Without the flag the envelope has no such field.
    plain = json.loads(qdsl("check", "--json", str(path)).stdout)
    assert "specializations" not in plain


def test_emit_specializations_prints_a_self_variant_once(tmp_path):
    # `controlled adjoint self` runs the generated controlled block; that
    # block is printed once, as the controlled specialization.
    path = tmp_path / "mirror.qds"
    path.write_text("""
namespace Demo {
    open Microsoft.Quantum.Primitive;
    operation Mirror (a : Qubit, b : Qubit) : () {
        body {
            CNOT(a, b);
        }
        adjoint self
        controlled auto
        controlled adjoint self
    }
}""")
    proc = qdsl("check", "--emit-specializations", str(path))
    assert proc.returncode == 0
    assert proc.stdout == (
        "ok: 1 file(s) checked\n"
        "// Demo.Mirror\n"
        "controlled (ctls) {\n"
        "    (Controlled CNOT)(ctls, (a, b));\n"
        "}\n"
        "\n"
    )


def test_missing_file_is_usage_error(tmp_path):
    proc = qdsl("check", str(tmp_path / "nope.qds"))
    assert proc.returncode == 2
    assert proc.stdout == ""


# ── run ──────────────────────────────────────────────────────────────────────


def test_run_single_shot_text(good_file):
    proc = qdsl("run", "--seed", "7", good_file)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] in ("shot 0: Zero", "shot 0: One")
    assert "histogram" not in proc.stdout  # single shot: no histogram block


def test_run_histogram_over_shots(good_file):
    proc = qdsl("run", "--shots", "40", "--seed", "3", good_file)
    assert proc.returncode == 0
    assert "histogram:" in proc.stdout
    assert "  Zero:" in proc.stdout
    assert "  One:" in proc.stdout


def test_run_json_deterministic_with_seed(good_file):
    first = qdsl("run", "--shots", "25", "--seed", "11", "--json", good_file)
    second = qdsl("run", "--shots", "25", "--seed", "11", "--json", good_file)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout  # byte identical
    payload = json.loads(first.stdout)
    assert payload["version"] == 1
    assert payload["entry"] == "Demo.Main"
    assert payload["shots"] == 25
    assert payload["seed"] == 11
    assert len(payload["results"]) == 25
    assert sum(payload["histogram"].values()) == 25


# Sixteen qubits entangled in a ladder: measuring one sums the weight of
# 2^15 amplitudes, more than OpenBLAS sums on one thread.
LADDER_PROGRAM = """
namespace Demo {
    open Microsoft.Quantum.Primitive;

    operation Main () : Result {
        body {
            mutable r = Zero;
            using (qs = Qubit[16]) {
                for (i in 0 .. 15) {
                    H(qs[i]);
                    T(qs[i]);
                    H(qs[i]);
                }
                for (i in 0 .. 14) {
                    CNOT(qs[i], qs[i + 1]);
                    T(qs[i + 1]);
                    H(qs[i + 1]);
                }
                set r = Measure([PauliZ], [qs[7]]);
                ResetAll(qs);
            }
            return r;
        }
    }
}
"""


def test_run_fails_on_a_released_qubit(tmp_path):
    # The stale `saved[0]` is q1; without the check it flips `fresh`, which
    # also gets q1, and every shot prints One with exit 0.
    path = tmp_path / "stale.qds"
    path.write_text(stale_qubit_program(STALE_QUBIT_ESCAPES["mutable array"][0]))
    proc = qdsl("run", "--shots", "3", "--seed", "1", str(path))
    assert proc.stdout == ""
    assert proc.returncode == 3
    assert proc.stderr == "runtime error: qubit q1 was used after its release\n"


def test_run_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    path = tmp_path / "ladder.qds"
    path.write_text(LADDER_PROGRAM)
    argv = ("run", "--seed", "5", "--shots", "1", "--json", "--dump-state", str(path))
    outputs = [qdsl(*argv, env_extra={"OPENBLAS_NUM_THREADS": n}) for n in "12"]
    assert [p.returncode for p in outputs] == [0, 0]
    assert outputs[0].stdout == outputs[1].stdout


def test_run_seeds_change_outcomes(good_file):
    a = qdsl("run", "--shots", "25", "--seed", "1", "--json", good_file)
    b = qdsl("run", "--shots", "25", "--seed", "2", "--json", good_file)
    assert json.loads(a.stdout)["results"] != json.loads(b.stdout)["results"]


def test_run_compile_errors_exit_1(bad_file):
    proc = qdsl("run", bad_file)
    assert proc.returncode == 1
    assert "[type-mismatch]" in proc.stderr


def test_run_runtime_failure_exit_3(failing_file):
    proc = qdsl("run", failing_file)
    assert proc.returncode == 3
    assert "runtime error: deliberate failure" in proc.stderr


def test_run_entry_flag(tmp_path):
    path = tmp_path / "two.qds"
    path.write_text("""
namespace Demo {
    operation Main () : Int { body { return 1; } }
    operation Other () : Int { body { return 2; } }
}""")
    default = qdsl("run", str(path))
    picked = qdsl("run", "--entry", "Other", str(path))
    qualified = qdsl("run", "--entry", "Demo.Other", str(path))
    assert "shot 0: 1" in default.stdout
    assert "shot 0: 2" in picked.stdout
    assert "shot 0: 2" in qualified.stdout


def test_run_unknown_entry_is_usage_error(good_file):
    proc = qdsl("run", "--entry", "Nowhere", good_file)
    assert proc.returncode == 2
    assert "Nowhere" in proc.stderr


def test_run_messages_printed_per_shot(tmp_path):
    path = tmp_path / "msg.qds"
    path.write_text("""
namespace Demo {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body { Message("hello"); }
    }
}""")
    proc = qdsl("run", "--shots", "2", str(path))
    assert "[0] hello" in proc.stdout
    assert "[1] hello" in proc.stdout


def test_env_variable_defaults(good_file):
    proc = qdsl(
        "run", "--json", good_file,
        env_extra={"QDSL_SHOTS": "5", "QDSL_SEED": "21"},
    )
    payload = json.loads(proc.stdout)
    assert payload["shots"] == 5
    assert payload["seed"] == 21


def test_explicit_flags_beat_environment(good_file):
    proc = qdsl(
        "run", "--shots", "3", "--seed", "9", "--json", good_file,
        env_extra={"QDSL_SHOTS": "50", "QDSL_SEED": "1"},
    )
    payload = json.loads(proc.stdout)
    assert payload["shots"] == 3
    assert payload["seed"] == 9


def test_bad_env_value_is_usage_error(good_file):
    proc = qdsl("run", good_file, env_extra={"QDSL_SHOTS": "many"})
    assert proc.returncode == 2
    assert "QDSL_SHOTS" in proc.stderr


def test_zero_shots_rejected(good_file):
    proc = qdsl("run", "--shots", "0", good_file)
    assert proc.returncode == 2


@pytest.mark.parametrize("limit", ["max-qubits", "max-iterations"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_run_limit_is_usage_error(good_file, limit, source):
    if source == "flag":
        proc = qdsl("run", f"--{limit}", "-1", good_file)
    else:
        env = "QDSL_" + limit.replace("-", "_").upper()
        proc = qdsl("run", good_file, env_extra={env: "-1"})
    assert proc.returncode == 2
    assert f"--{limit} must not be negative" in proc.stderr


def test_dump_state_text(tmp_path):
    path = tmp_path / "bell.qds"
    path.write_text("""
namespace Demo {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body {
            using (qs = Qubit[2]) {
                H(qs[0]);
                CNOT(qs[0], qs[1]);
                ResetAll(qs);
            }
        }
    }
}""")
    proc = qdsl(
        "run", "--dump-state", "--permissive-release", "--seed", "4", str(path)
    )
    assert proc.returncode == 0
    assert "state dump (q0 q1):" in proc.stdout
    # after ResetAll the register is |00>
    assert "|00> +1.000000000000+0.000000000000i" in proc.stdout


def test_dump_state_json_amplitudes(tmp_path):
    path = tmp_path / "bell.qds"
    path.write_text("""
namespace Demo {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body {
            using (qs = Qubit[2]) {
                H(qs[0]);
                CNOT(qs[0], qs[1]);
            }
        }
    }
}""")
    proc = qdsl(
        "run", "--dump-state", "--permissive-release", "--seed", "4",
        "--json", str(path),
    )
    payload = json.loads(proc.stdout)
    [[dump]] = payload["state_dumps"]
    assert dump["qubits"] == [0, 1]
    amps = dump["amplitudes"]
    assert len(amps) == 4
    from math import isclose, sqrt

    assert isclose(amps[0][0], 1 / sqrt(2), abs_tol=1e-12)
    assert isclose(amps[3][0], 1 / sqrt(2), abs_tol=1e-12)
    assert isclose(amps[1][0], 0, abs_tol=1e-12) and isclose(
        amps[2][0], 0, abs_tol=1e-12
    )


def test_strict_release_failure_exit_3(tmp_path):
    path = tmp_path / "dirty.qds"
    path.write_text("""
namespace Demo {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body {
            using (q = Qubit()) { X(q); }
        }
    }
}""")
    strict = qdsl("run", str(path))
    assert strict.returncode == 3
    assert "released" in strict.stderr
    permissive = qdsl("run", "--permissive-release", str(path))
    assert permissive.returncode == 0


def test_max_qubits_flag(tmp_path):
    path = tmp_path / "wide.qds"
    path.write_text("""
namespace Demo {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body { using (qs = Qubit[6]) { } }
    }
}""")
    capped = qdsl("run", "--max-qubits", "4", str(path))
    assert capped.returncode == 3
    assert "max-qubits" in capped.stderr
    roomy = qdsl("run", "--max-qubits", "8", str(path))
    assert roomy.returncode == 0


def test_memory_budget_fails_the_run_with_a_message(tmp_path, monkeypatch, capsys):
    # In process, so that the budget can be patched down: a real run would
    # have to request more than the machine's physical memory.
    import qdsl.simulator
    from qdsl import cli

    path = tmp_path / "huge.qds"
    path.write_text("""
namespace Demo {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body { using (qs = Qubit[40]) { } }
    }
}""")
    monkeypatch.setattr(qdsl.simulator, "MEMORY_BUDGET", 2**16)
    assert cli.main(["run", "--max-qubits", "40", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: allocating qubit 12 needs 131072 bytes")
    assert "Traceback" not in err


def test_max_iterations_flag(tmp_path):
    path = tmp_path / "spin.qds"
    path.write_text("""
namespace Demo {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body {
            repeat { } until false
            fixup { }
        }
    }
}""")
    proc = qdsl("run", "--max-iterations", "100", str(path))
    assert proc.returncode == 3
    assert "iterations" in proc.stderr


@pytest.mark.parametrize("count, code", [(100, 0), (101, 3)])
def test_max_iterations_bounds_for_loops(tmp_path, count, code):
    path = tmp_path / "count.qds"
    path.write_text("""
namespace Demo {
    operation Main () : Int {
        body {
            mutable n = 0;
            for (i in 1 .. %d) { set n = n + 1; }
            return n;
        }
    }
}""" % count)
    proc = qdsl("run", "--max-iterations", "100", str(path))
    assert proc.returncode == code
    if code == 0:
        assert proc.stdout == f"shot 0: {count}\n"
    else:
        assert proc.stderr == "runtime error: for loop exceeded 100 iterations\n"


def test_huge_r1frac_power_runs_without_a_traceback(tmp_path):
    path = tmp_path / "tiny_phase.qds"
    path.write_text("""
namespace Demo {
    open Microsoft.Quantum.Primitive;
    operation Main () : Result {
        body {
            mutable r = Zero;
            using (q = Qubit()) {
                H(q);
                R1Frac(1, 2000, q);
                H(q);
                set r = Measure([PauliZ], [q]);
            }
            return r;
        }
    }
}""")
    proc = qdsl("run", "--shots", "20", "--seed", "1", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Zero: 20" in proc.stdout  # the phase is 1, so H undoes H


def test_documented_call_depth_runs_in_a_fresh_process(tmp_path):
    # Main plus Down(998) .. Down(0) nest exactly 1000 calls, the default
    # limit; one more call fails with exit 3 and a message.
    source = """
namespace Demo {{
    function Down (n : Int) : Int {{
        if (n == 0) {{ return 0; }}
        return 1 + Down(n - 1);
    }}
    operation Main () : Int {{
        body {{ return Down({}); }}
    }}
}}"""
    path = tmp_path / "deep.qds"
    path.write_text(source.format(998))
    proc = qdsl("run", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "998" in proc.stdout
    path.write_text(source.format(999))
    proc = qdsl("run", str(path))
    assert proc.returncode == 3
    assert "call depth exceeded the limit of 1000" in proc.stderr
    assert "Traceback" not in proc.stderr


NAMESPACE_IN_A_NAMESPACE = {
    "nested": (
        "namespace A {\n    namespace B {\n    }\n}\n",
        [
            "2:5: error: expected '}', found 'namespace' [unexpected-token]",
            "4:1: error: expected a declaration, found '}' [unexpected-token]",
        ],
    ),
    "unclosed": (
        "namespace A {\n    function F () : Int {\n        return 1;\n    }\n\n"
        "namespace B {\n    function G () : Int { return 2; }\n}\n",
        ["6:1: error: expected '}', found 'namespace' [unexpected-token]"],
    ),
}


@pytest.mark.parametrize("case", sorted(NAMESPACE_IN_A_NAMESPACE))
def test_a_namespace_keyword_ends_the_open_namespace(tmp_path, case):
    # The declaration loop used to stop at the keyword without consuming it,
    # so `qdsl check` looped forever, adding one diagnostic per turn.
    source, lines = NAMESPACE_IN_A_NAMESPACE[case]
    path = tmp_path / f"{case}.qds"
    path.write_text(source)
    proc = qdsl("check", str(path), timeout=10)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"{path}:{line}" for line in lines]


DEEP_PROGRAMS = {
    "parentheses": "return " + "(" * 400 + "1" + ")" * 400 + ";",
    "sum": "return " + " + ".join(["1"] * 1000) + ";",
    "ifs": "if (true) { " * 250 + "}" * 250 + " return 1;",
}


@pytest.mark.parametrize("name", sorted(DEEP_PROGRAMS))
def test_nesting_past_the_recursion_limit_is_a_diagnostic(tmp_path, name):
    path = tmp_path / f"{name}.qds"
    path.write_text(
        "namespace Deep { operation Main () : Int { body { "
        + DEEP_PROGRAMS[name]
        + " } } }"
    )
    proc = qdsl("check", str(path))
    assert proc.returncode == 1
    assert proc.stderr == (
        f"{path}:1:1: error: expressions or blocks are nested too deeply "
        "to compile [nesting-too-deep]\n"
    )
    proc = qdsl("run", "--json", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    [found] = json.loads(proc.stdout)["diagnostics"]
    assert found["code"] == "nesting-too-deep"


def test_elide_diagnostics_flag(tmp_path):
    path = tmp_path / "asserting.qds"
    path.write_text("""
namespace Demo {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body {
            using (q = Qubit()) {
                H(q);
                Assert([PauliZ], [q], Zero);
                H(q);
            }
        }
    }
}""")
    plain = qdsl("run", str(path))
    assert plain.returncode == 3
    assert "assertion failed" in plain.stderr
    elided = qdsl("run", "--elide-diagnostics", str(path))
    assert elided.returncode == 0


# ── trace ────────────────────────────────────────────────────────────────────


def test_trace_prints_prefixed_events(good_file):
    proc = qdsl("trace", "--seed", "5", good_file)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert "[0] allocate q0" in lines
    assert "[0] gate H q0" in lines
    assert any(line.startswith("[0] measure [Z] [q0] ->") for line in lines)
    assert "[0] release q0" in lines


def test_trace_separates_shots(good_file):
    proc = qdsl("trace", "--shots", "2", "--seed", "5", good_file)
    assert "[0] gate H q0" in proc.stdout
    assert "[1] gate H q0" in proc.stdout


def test_trace_shows_controlled_and_adjoint_gates(tmp_path):
    path = tmp_path / "tagged.qds"
    path.write_text("""
namespace Demo {
    open Microsoft.Quantum.Primitive;
    operation Main () : () {
        body {
            using (qs = Qubit[2]) {
                (Adjoint T)(qs[0]);
                T(qs[0]);
                CNOT(qs[0], qs[1]);
            }
        }
    }
}""")
    proc = qdsl("trace", str(path))
    assert "[0] gate Adjoint T q0" in proc.stdout
    assert "[0] gate X q1 ctl[q0]" in proc.stdout


# ── top-level usage ──────────────────────────────────────────────────────────


def test_no_arguments_shows_usage():
    proc = qdsl()
    assert proc.returncode == 2


def test_unknown_subcommand_rejected():
    proc = qdsl("frobnicate")
    assert proc.returncode == 2
