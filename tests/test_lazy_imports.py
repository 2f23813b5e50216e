"""The compile-only paths never load numpy, the simulator or the runtime,
and a run whose state never holds two qubits never loads numpy.

Each case runs in a fresh interpreter, because this test process has long
since imported all three. A case prints the sorted list of the heavy modules
it found loaded on its last line of output.
"""

import json
import os
import subprocess
import sys

import pytest

import qdsl

HEAVY = ("numpy", "qdsl.runtime", "qdsl.simulator")
ACCEPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus", "accept")

GOOD = os.path.join(ACCEPT, "borrowing.qds")
AUTO = os.path.join(ACCEPT, "ccnot_listing.qds")
BAD = """
namespace Demo {
    function F (n : Int) : Int {
        return n + true;
    }
}
"""


def loaded_after(
    code: str, tmp_path, modules=HEAVY, flags=()
) -> tuple[int, list[str]]:
    """Run `code` in a fresh interpreter started with `flags`; its exit code
    and which of `modules` it loaded."""
    bad = tmp_path / "bad.qds"
    bad.write_text(BAD)
    script = (
        "import json, sys\n"
        f"GOOD, AUTO, BAD = {GOOD!r}, {AUTO!r}, {str(bad)!r}\n"
        f"MISSING = {str(tmp_path / 'missing.qds')!r}\n"
        f"{code}\n"
        f"print(json.dumps(sorted(m for m in {modules!r} if m in sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


COMPILE_ONLY = {
    "import": "import qdsl, qdsl.cli",
    "compile_units": (  # one cold call, which checks the prelude, then a warm one
        "from qdsl.compiler import compile_units\n"
        "assert compile_units([(GOOD, open(GOOD).read())]).ok\n"
        "assert compile_units([(AUTO, open(AUTO).read())]).ok"
    ),
    "check": "from qdsl import cli\nassert cli.main(['check', GOOD]) == 0",
    "check_json": "from qdsl import cli\nassert cli.main(['check', '--json', BAD]) == 1",
    "emit_specializations": (
        "from qdsl import cli\n"
        "assert cli.main(['check', '--emit-specializations', AUTO]) == 0"
    ),
    "run_not_compiling": "from qdsl import cli\nassert cli.main(['run', BAD]) == 1",
    "run_missing_file": "from qdsl import cli\nassert cli.main(['run', MISSING]) == 2",
    "run_zero_shots": (
        "from qdsl import cli\nassert cli.main(['run', GOOD, '--shots', '0']) == 2"
    ),
    "run_unknown_entry": (
        "from qdsl import cli\nassert cli.main(['run', GOOD, '--entry', 'No.Such']) == 2"
    ),
}


@pytest.mark.parametrize("name", sorted(COMPILE_ONLY))
def test_compile_only_paths_load_no_simulator(name, tmp_path):
    code, loaded = loaded_after(COMPILE_ONLY[name], tmp_path)
    assert code == 0
    assert loaded == []


@pytest.mark.parametrize("name", ["import", "check"])
def test_the_front_end_loads_no_dataclass_machinery(name, tmp_path):
    """Front-end objects are plain classes, so start-up skips `dataclasses`
    and the `inspect` it imports."""
    code, loaded = loaded_after(COMPILE_ONLY[name], tmp_path, ("dataclasses", "inspect"))
    assert code == 0
    assert loaded == []


def test_checking_a_file_loads_no_importlib_resources(tmp_path):
    """The prelude is read as plain files. Under `-S`, because a `site` may
    import `importlib.resources` itself, through a `.pth` file."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qdsl.__file__)))
    code, loaded = loaded_after(
        f"sys.path.insert(0, {src!r})\n{COMPILE_ONLY['check']}",
        tmp_path,
        ("importlib.resources",),
        flags=("-S",),
    )
    assert code == 0
    assert loaded == []


def test_running_a_program_loads_the_simulator(tmp_path):
    """The probe sees the modules once a shot runs, so an empty list means something."""
    code, loaded = loaded_after(
        "from qdsl import cli\nassert cli.main(['run', GOOD]) == 0", tmp_path
    )
    assert code == 0
    assert loaded == sorted(HEAVY)


COIN = os.path.join(ACCEPT, "repeat_until.qds")
COIN_GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "repeat_until.json"
)
# The one-qubit coin's shots run on the list kernels, so numpy stays unloaded.
ONE_QUBIT = {
    "run": ["run", COIN, "--entry", "Corpus.CoinUntilOne", "--shots", "100", "--json"],
    "trace_json": ["trace", "--json", COIN, "--entry", "Corpus.CoinUntilOne"],
}


def _cli_quietly(argv: list[str]) -> str:
    """Code that runs `qdsl <argv>`, asserts exit 0 and keeps its stdout in `out`."""
    return (
        "import contextlib, io\nfrom qdsl import cli\nout = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert cli.main({argv!r}) == 0"
    )


@pytest.mark.parametrize("name", sorted(ONE_QUBIT))
def test_a_one_qubit_program_runs_without_numpy(name, tmp_path):
    code, loaded = loaded_after(_cli_quietly(ONE_QUBIT[name]), tmp_path)
    assert code == 0
    assert loaded == ["qdsl.runtime", "qdsl.simulator"]


def test_intrinsic_handlers_load_no_numpy(tmp_path):
    code, loaded = loaded_after(
        "from qdsl.prelude import intrinsic_handlers\nintrinsic_handlers()", tmp_path
    )
    assert code == 0
    assert loaded == ["qdsl.simulator"]


def test_dumping_a_one_qubit_state_loads_numpy(tmp_path):
    """A dump is an ndarray. The shots are the golden ones, and each ends in
    |0>, dumped as exactly 1 and 0 with no negative zero."""
    argv = ["run", COIN, "--entry", "CoinUntilOne", "--json", "--shots", "20",
            "--seed", "1", "--dump-state"]
    ground = [{"qubits": [0], "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}]
    code, loaded = loaded_after(
        f"{_cli_quietly(argv)}\n"
        f"golden = json.load(open({COIN_GOLDEN!r}))['seed1-dump']['output']\n"
        "got = json.loads(out.getvalue())\n"
        "assert all(got[k] == golden[k] for k in ('results', 'histogram', 'messages'))\n"
        f"assert json.dumps(got['state_dumps']) == json.dumps([{ground!r}] * 20)",
        tmp_path,
    )
    assert code == 0
    assert loaded == sorted(HEAVY)


def test_qdsl_run_of_a_file_that_does_not_compile_exits_1(tmp_path):
    bad = tmp_path / "bad.qds"
    bad.write_text(BAD)
    # `-X importtime` lists every module the process imports on stderr.
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qdsl", "run", str(bad)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "[type-mismatch]" in proc.stderr
    assert "qdsl.cli" in proc.stderr
    assert " numpy" not in proc.stderr
    assert "qdsl.simulator" not in proc.stderr


def test_every_public_name_resolves():
    for name in qdsl.__all__:
        assert getattr(qdsl, name) is not None, name
    from qdsl import SimulationError, StateVectorSimulator, run_shots
    from qdsl.runtime import run_shots as runtime_run_shots
    from qdsl.simulator import SimulationError as simulator_error

    assert run_shots is runtime_run_shots
    assert SimulationError is simulator_error
    assert StateVectorSimulator(capacity=2).num_qubits == 0


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qdsl.no_such_name
