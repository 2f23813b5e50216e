"""The prelude is checked once per process and shared by every compile.

`compile_units` checks the user's units as a layer over a cached, already
checked prelude table. Sharing it must not leak between compiles: a program
compiles the same whatever was compiled before it, a user declaration does
not rebind a call inside the prelude, and exclusion lists that exclude the
same prelude files share one cache entry.
"""

import os
import random

from qdsl import compiler
from qdsl import types as ty
from qdsl.compiler import compile_units
from qdsl.pretty import pretty_print
from qdsl.source import SourceFile
from qdsl.values import Result
from conftest import compile_ok, run_main
from test_corpus import load_accept
from test_golden_runs import GOLDEN, SPECIALIZATIONS, specialization_text

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")

# Declares `SWAP` into the prelude's own namespace, where the prelude's
# `SwapReverseRegister` calls `SWAP` unqualified. The user's `SWAP` has no
# controlled variant, so a prelude that resolved its calls against the
# user's declarations would fail to generate `controlled auto` for
# `SwapReverseRegister`.
USER_CANON_SWAP = """
namespace Microsoft.Quantum.Canon {
    open Microsoft.Quantum.Primitive;

    operation SWAP (a : Qubit, b : Qubit) : () {
        body {
            Message("user SWAP");
        }
    }
}

namespace Demo {
    open Microsoft.Quantum.Primitive;
    open Microsoft.Quantum.Canon;

    operation Main () : (Result, Result, Result) {
        body {
            mutable bits = (Zero, Zero, Zero);
            using (qs = Qubit[3]) {
                X(qs[0]);
                SwapReverseRegister(qs);
                set bits = (
                    Measure([PauliZ], [qs[0]]),
                    Measure([PauliZ], [qs[1]]),
                    Measure([PauliZ], [qs[2]])
                );
                ResetAll(qs);
            }
            return bits;
        }
    }
}
"""


def corpus_unit(kind: str, name: str) -> tuple[str, tuple[str, ...]]:
    """(compiled text, excluded prelude files) of one corpus file."""
    if kind == "accept":
        return load_accept(name)
    with open(os.path.join(CORPUS, kind, name), encoding="utf-8") as handle:
        return handle.read(), ()


def snapshot(name: str, text: str, exclude: tuple[str, ...] = ()) -> list[str]:
    """Every callable of the compiled table with its signature and
    specialization blocks, then the rendered diagnostics."""
    result = compile_units([(name, text)], prelude_exclude=exclude)
    lines = []
    for sym in result.table.all_callables():
        lines.append(
            f"{sym.qualified} {sym.file} {ty.render(sym.input)} -> "
            f"{ty.render(sym.output)} {sorted(sym.variants)}"
        )
        for kind, entry in sym.specializations.items():
            lines.append(f"  {kind.value} {entry.ctl_param} {entry.generated}")
            lines.append(pretty_print(entry.block))
    lines.extend(d.render(SourceFile(name, text)) for d in result.diagnostics)
    return lines


def test_compiles_in_between_do_not_change_a_program():
    """A, then units that declare into the prelude's namespaces and a reject
    file, then A again: A compiles to the same tables and diagnostics."""
    text, exclude = corpus_unit("accept", "functors_everywhere.qds")
    first = snapshot("functors_everywhere.qds", text, exclude)
    assert compile_ok(USER_CANON_SWAP).ok
    for kind, name in (
        ("accept", "approximate_qft.qds"),  # replaces a prelude file
        ("reject", "duplicate_definition.qds"),
        ("reject", "missing_variant.qds"),
    ):
        other, other_exclude = corpus_unit(kind, name)
        compile_units([(name, other)], prelude_exclude=other_exclude)
    assert snapshot("functors_everywhere.qds", text, exclude) == first


def test_corpus_verdicts_do_not_depend_on_compile_order():
    files = [
        (kind, name)
        for kind in ("accept", "reject")
        for name in sorted(os.listdir(os.path.join(CORPUS, kind)))
    ]

    def verdicts(seed: int) -> dict:
        order = list(files)
        random.Random(seed).shuffle(order)
        out = {}
        for kind, name in order:
            text, exclude = corpus_unit(kind, name)
            out[name] = snapshot(name, text, exclude)
        return out

    assert verdicts(1) == verdicts(2)
    # The golden, rebuilt after the whole corpus compiled twice.
    with open(os.path.join(GOLDEN, SPECIALIZATIONS), encoding="utf-8") as handle:
        assert specialization_text() == handle.read()


def test_user_declaration_does_not_rebind_a_prelude_call():
    result = compile_ok(USER_CANON_SWAP)
    canon = result.table.lookup_qualified("Microsoft.Quantum.Canon.SWAP")
    assert canon.file == "<test>"
    [shot] = run_main(USER_CANON_SWAP)
    # SwapReverseRegister still swaps with the prelude's SWAP: |100> -> |001>.
    assert shot.value == (Result.Zero, Result.Zero, Result.One)
    assert shot.messages == []


def test_equal_exclusions_share_one_cache_entry():
    """The key is the set of prelude files actually excluded: order,
    repeats and names of no prelude file do not make a new entry."""
    both = ("canon.qds", "canon_aqft.qds")
    tables = {
        exclude: compile_units([], exclude).table
        for exclude in ((), both, ("canon_aqft.qds",))
    }
    misses = compiler._checked_prelude.cache_info().misses
    same = {
        ("no_such.qds",): (),
        both[::-1]: both,
        (*both, *both, "no_such.qds"): both,
        ("no_such.qds", "canon_aqft.qds"): ("canon_aqft.qds",),
    }
    for exclude, key in same.items():
        table = compile_units([], exclude).table
        name = "Microsoft.Quantum.Primitive.SWAP"
        assert table.lookup_qualified(name) is tables[key].lookup_qualified(name)
    assert compiler._checked_prelude.cache_info().misses == misses


def test_open_prelude_keeps_primitive_closed():
    """Excluding canon_aqft.qds leaves canon.qds open, to be checked with the
    user's file on every compile, but primitive.qds stays a cached layer
    under it: its symbols are shared, the open file's are checked afresh."""
    text, exclude = corpus_unit("accept", "approximate_qft.qds")
    assert exclude == ("canon_aqft.qds",)
    first, second = (
        compile_units([("approximate_qft.qds", text)], prelude_exclude=exclude)
        for _ in range(2)
    )
    assert first.ok and second.ok
    misses = compiler._checked_prelude.cache_info().misses
    primitive = compile_units([], ("canon.qds", "canon_aqft.qds")).table
    for name in ("CNOT", "CCNOT", "SWAP", "Reset", "ResetAll"):
        name = f"Microsoft.Quantum.Primitive.{name}"
        sym = primitive.lookup_qualified(name)
        assert first.table.lookup_qualified(name) is sym
        assert second.table.lookup_qualified(name) is sym
    qft = "Microsoft.Quantum.Canon.QFT"
    assert first.table.lookup_qualified(qft) is not second.table.lookup_qualified(qft)
    assert compiler._checked_prelude.cache_info().misses == misses
