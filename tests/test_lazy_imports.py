"""The compile-only paths never load numpy, the simulator or the runtime.

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


def loaded_after(code: str, tmp_path) -> tuple[int, list[str]]:
    """Run `code` in a fresh interpreter; its exit code and the heavy modules."""
    bad = tmp_path / "bad.qds"
    bad.write_text(BAD)
    script = (
        "import json, sys\n"
        f"GOOD, AUTO, BAD = {GOOD!r}, {AUTO!r}, {str(bad)!r}\n"
        f"MISSING = {str(tmp_path / 'missing.qds')!r}\n"
        f"{code}\n"
        f"print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
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


def test_running_a_program_loads_the_simulator(tmp_path):
    """The probe sees the modules once a shot runs, so an empty list means something."""
    code, loaded = loaded_after(
        "from qdsl import cli\nassert cli.main(['run', GOOD]) == 0", tmp_path
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
