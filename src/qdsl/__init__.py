"""A typed DSL for quantum programs with a state-vector runtime.

The package compiles namespaced source files (operations with adjoint and
controlled specializations, functions, newtypes, generics) against a bundled
prelude, and executes them on a dense state-vector simulator with strict
qubit accounting. Compiling and checking never load the simulator or numpy.
"""

from importlib import import_module

from .compiler import (
    CompileResult,
    compile_files,
    compile_snippet,
    compile_units,
    resolve_entry,
    wrap_statement_snippet,
)
from .diagnostics import Diagnostic, Severity

# The runtime and the simulator (and with it numpy) load on first access
# (PEP 562), so importing the package to compile or check never loads them.
_LAZY = {
    "Interpreter": "runtime",
    "QdslFailure": "values",
    "RunOptions": "runtime",
    "RunStats": "runtime",
    "ShotResult": "runtime",
    "run_shots": "runtime",
    "SimulationError": "simulator",
    "StateVectorSimulator": "simulator",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value

__version__ = "0.1.0"

__all__ = [
    "CompileResult",
    "Diagnostic",
    "Interpreter",
    "QdslFailure",
    "RunOptions",
    "RunStats",
    "Severity",
    "ShotResult",
    "SimulationError",
    "StateVectorSimulator",
    "compile_files",
    "compile_snippet",
    "compile_units",
    "resolve_entry",
    "run_shots",
    "wrap_statement_snippet",
    "__version__",
]
