"""Compilation pipeline: parse, collect, check, generate specializations.

Source units are checked in layers, each over a copy of the symbol table
below it, so namespaces merge across units while the lower table stays as
it was. The bundled prelude is `primitive.qds` as a layer over the
intrinsics and the other files as a layer over that, checked once per
process for each set of excluded prelude files; the user's units are a layer
over it. Within a layer, body checking only runs when parsing produced no
errors, and specialization generation only runs on a fully checked program,
so later passes can rely on the annotations of the earlier ones.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
from typing import Iterator, Optional

from . import prelude, transform
from . import types as ty
from .ast_nodes import Program
from .checker import CallableSymbol, Checker, SymbolTable
from .diagnostics import NESTING_TOO_DEEP, Diagnostic, Severity, error
from .parser import parse_program
from .source import Span


class CompileResult:
    __slots__ = ("table", "units", "diagnostics", "user_files")

    def __init__(
        self,
        table: SymbolTable,
        units: list[tuple[str, Program]],
        diagnostics: list[Diagnostic],
        user_files: list[str],
    ) -> None:
        self.table, self.units, self.diagnostics = table, units, diagnostics
        self.user_files = user_files

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors

    def user_callables(self) -> list[CallableSymbol]:
        return [
            sym
            for sym in self.table.all_callables()
            if sym.file in self.user_files
        ]


def compile_units(
    units: list[tuple[str, str]], prelude_exclude: tuple[str, ...] = ()
) -> CompileResult:
    """Compile (file label, source text) units against the prelude.

    The prelude is checked once per process for each set of excluded files,
    and the units are checked as a layer over that table, so prelude names
    resolve to prelude declarations only.
    """
    excluded = frozenset(prelude_exclude).intersection(prelude.prelude_files())
    base, open_units = _checked_prelude(excluded)
    return _layer_passes(base, [*open_units, *units], [f for f, _ in units])


_PRIMITIVE = "primitive.qds"

# Python frames the passes of one layer may use, counted from the stack depth
# at which it is checked, so that how deeply a program may nest does not
# depend on the caller's stack. Each level of nesting takes a few frames, so
# this sets the nesting limits that README documents.
_FRONT_END_FRAMES = 1100
_RECURSION_LIMIT_LOCK = threading.RLock()


@contextlib.contextmanager
def recursion_budget(frames: int) -> Iterator[None]:
    """Run the `with` body, or the function it decorates, with Python's
    recursion limit `frames` above the depth that enters it, and restore
    the limit after. The limit is the process's, so compiling and running
    hold one reentrant lock.

    Python counts one per frame, and one more for each pending call that it
    counts twice, such as a call through a class's `__call__`. So the frames
    bound the depth from below, and the lowest limit Python accepts, one
    above the depth, finds the rest. This generator's frame counts twice,
    because `with` resumes it from C, so the depth found here is three above
    the entering frame's, counting `__enter__`.
    """
    with _RECURSION_LIMIT_LOCK:
        previous = sys.getrecursionlimit()
        frame, depth = sys._getframe(), 1
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        while True:
            try:
                sys.setrecursionlimit(depth + 1)
                break
            except RecursionError:
                depth += 1
        sys.setrecursionlimit(depth - 3 + frames)
        try:
            yield
        finally:
            sys.setrecursionlimit(previous)


@functools.cache
def _checked_prelude(
    excluded: frozenset[str],
) -> tuple[CompileResult, list[tuple[str, str]]]:
    """The checked prelude without the `excluded` files, and the units left open.

    A prelude that does not check on its own (it calls a name that the user's
    files supply in place of an excluded file) cannot be cached whole: its
    units are returned to be checked with the user's layer. They go over
    the checked `primitive.qds` alone, which needs only the intrinsics.
    """
    primitive_only = frozenset(prelude.prelude_files()) - {_PRIMITIVE}
    if excluded == primitive_only or _PRIMITIVE in excluded:
        table = SymbolTable()
        prelude.seed_table(table)
        base, units = CompileResult(table, [], [], []), []
    else:
        base, units = _checked_prelude(primitive_only)
        excluded |= {_PRIMITIVE}
    units = units + prelude.prelude_units(tuple(excluded))
    checked = _layer_passes(base, units, [])
    if checked.diagnostics:
        return base, units
    return checked, []


@recursion_budget(_FRONT_END_FRAMES)
def _layer_passes(
    base: CompileResult, units: list[tuple[str, str]], user_files: list[str]
) -> CompileResult:
    """Parse, check and generate `units` over a copy of `base`'s table.

    The layer's declarations go into the copy, so `base` is left as it was.
    Only the layer's programs are checked and only its callables get
    specialization tables; `base` symbols are shared, already finished.
    Each pass recurses once per level of nesting, so a program nested past
    Python's recursion limit gets one `nesting-too-deep` error on its file.
    """
    result = CompileResult(base.table.copy(), [*base.units], [], user_files)
    programs: list[tuple[str, Program]] = []
    file = ""
    try:
        for file, text in units:
            program, diags = parse_program(text, file)
            result.diagnostics.extend(diags)
            programs.append((file, program))
        result.units += programs
        if result.errors:
            return result

        checker = Checker(result.table)
        for check in (checker.collect, checker.resolve_signatures, checker.check_bodies):
            for file, program in programs:
                check(program, file)
        result.diagnostics.extend(checker.diagnostics)
        if result.errors:
            return result

        for file, program in programs:
            result.diagnostics.extend(transform.generate_all(checker.callables(program), checker))
    except RecursionError:
        result.diagnostics.append(
            error(
                NESTING_TOO_DEEP,
                "expressions or blocks are nested too deeply to compile",
                Span(0, 0),
                file,
            )
        )
    return result


def compile_files(paths: list[str], **kwargs) -> CompileResult:
    units = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            units.append((path, handle.read()))
    return compile_units(units, **kwargs)


def compile_snippet(text: str, file: str = "<snippet>", **kwargs) -> CompileResult:
    return compile_units([(file, text)], **kwargs)


def wrap_statement_snippet(text: str) -> str:
    """Wrap a bare statement sequence into a runnable Main operation."""
    return (
        "namespace Snippet {\n"
        "    open Microsoft.Quantum.Primitive;\n"
        "    open Microsoft.Quantum.Canon;\n"
        "    operation Main () : () {\n"
        "        body {\n"
        f"{text}\n"
        "        }\n"
        "    }\n"
        "}\n"
    )


def resolve_entry(
    result: CompileResult, name: Optional[str]
) -> tuple[Optional[CallableSymbol], Optional[str]]:
    """Find the entry callable; returns (symbol, error message)."""
    table = result.table
    wanted = name or "Main"
    candidates: list[CallableSymbol] = []
    if "." in wanted:
        sym = table.lookup_qualified(wanted)
        if isinstance(sym, CallableSymbol):
            candidates = [sym]
    else:
        for ns, members in table.namespaces.items():
            sym = members.get(wanted)
            if isinstance(sym, CallableSymbol):
                if name is None and sym.file not in result.user_files:
                    continue
                candidates.append(sym)
    if not candidates:
        hint = "" if name else " (define an operation named Main or pass --entry)"
        return None, f"entry point '{wanted}' was not found{hint}"
    if len(candidates) > 1:
        places = ", ".join(sorted(c.qualified for c in candidates))
        return None, f"entry point '{wanted}' is ambiguous: {places}"
    entry = candidates[0]
    if entry.input != ty.UNIT:
        return None, (
            f"entry point '{entry.qualified}' must take no arguments, "
            f"its input type is {ty.render(entry.input)}"
        )
    return entry, None
