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

import functools
from dataclasses import dataclass
from typing import Optional

from . import prelude, transform
from . import types as ty
from .ast_nodes import Program
from .checker import CallableSymbol, Checker, SymbolTable
from .diagnostics import Diagnostic, Severity
from .parser import parse_program


@dataclass
class CompileResult:
    table: SymbolTable
    units: list[tuple[str, Program]]
    diagnostics: list[Diagnostic]
    user_files: list[str]

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
    return _check_layer(base, [*open_units, *units], [f for f, _ in units])


_PRIMITIVE = "primitive.qds"


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
    checked = _check_layer(base, units, [])
    if checked.diagnostics:
        return base, units
    return checked, []


def _check_layer(
    base: CompileResult, units: list[tuple[str, str]], user_files: list[str]
) -> CompileResult:
    """Parse, check and generate `units` over a copy of `base`'s table.

    The layer's declarations go into the copy, so `base` is left as it was.
    Only the layer's programs are checked and only its callables get
    specialization tables; `base` symbols are shared, already finished.
    """
    diagnostics: list[Diagnostic] = []
    programs: list[tuple[str, Program]] = []
    for file, text in units:
        program, diags = parse_program(text, file)
        diagnostics.extend(diags)
        programs.append((file, program))

    table = base.table.copy()
    result = CompileResult(table, [*base.units, *programs], diagnostics, user_files)
    if result.errors:
        return result

    checker = Checker(table)
    for file, program in programs:
        checker.collect(program, file)
    for file, program in programs:
        checker.resolve_signatures(program, file)
    for file, program in programs:
        checker.check_bodies(program, file)
    diagnostics.extend(checker.diagnostics)
    if result.errors:
        return result

    layer = [
        sym
        for sym in table.all_callables()
        if base.table.lookup_qualified(sym.qualified) is not sym
    ]
    diagnostics.extend(transform.generate_all(layer, checker))
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
