"""Corpus-driven accept/reject tests.

Accept files must compile with zero diagnostics; files starting with
`// statements` are bodies of a unit entry point, and a
`// prelude-exclude: <name>` directive drops that prelude file so a corpus
file may redefine it. Reject files carry `// expect: <code>` and must
produce exactly that diagnostic code first.
"""

import os

import pytest

from qdsl import diagnostics as diag
from qdsl.compiler import compile_units, wrap_statement_snippet
from qdsl.pretty import pretty_print
from qdsl.parser import parse_program
from qdsl.ast_nodes import structurally_equal

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
ACCEPT = sorted(os.listdir(os.path.join(CORPUS, "accept")))
REJECT = sorted(os.listdir(os.path.join(CORPUS, "reject")))

# Rejections built here rather than stored in the corpus, whose files are also
# the compile_corpus benchmark's input: code -> program.
GENERATED_REJECT = {
    diag.NESTING_TOO_DEEP: "namespace Deep { function F () : Int { return "
    + "(" * 400
    + "1"
    + ")" * 400
    + "; } }",
    diag.NUMBER_OUT_OF_RANGE: "namespace Big { function F () : Int { return "
    + "1" * 5000
    + "; } }",
}


def load_accept(name: str) -> tuple[str, tuple[str, ...]]:
    with open(os.path.join(CORPUS, "accept", name), encoding="utf-8") as handle:
        text = handle.read()
    first = text.splitlines()[0]
    exclude: tuple[str, ...] = ()
    if first.startswith("// prelude-exclude:"):
        exclude = tuple(first.split(":", 1)[1].split())
    if first.strip() == "// statements":
        text = wrap_statement_snippet(text)
    return text, exclude


@pytest.mark.parametrize("name", ACCEPT)
def test_accept_compiles_cleanly(name):
    text, exclude = load_accept(name)
    result = compile_units([(name, text)], prelude_exclude=exclude)
    assert result.ok, "\n".join(d.render() for d in result.diagnostics)


@pytest.mark.parametrize("name", REJECT)
def test_reject_produces_expected_code(name):
    with open(os.path.join(CORPUS, "reject", name), encoding="utf-8") as handle:
        text = handle.read()
    expected = text.splitlines()[0].split("// expect:")[1].strip()
    result = compile_units([(name, text)])
    codes = [d.code for d in result.errors]
    assert codes, f"{name} compiled cleanly, expected {expected}"
    assert codes[0] == expected, f"expected {expected} first, got {codes}"


def test_reject_corpus_is_large_enough():
    assert len(REJECT) >= 15


def test_reject_corpus_covers_every_error_code():
    expected = set()
    for name in REJECT:
        with open(os.path.join(CORPUS, "reject", name), encoding="utf-8") as handle:
            first = handle.read().splitlines()[0]
        expected.add(first.split("// expect:")[1].strip())
    assert expected | set(GENERATED_REJECT) == set(diag.ALL_CODES)


@pytest.mark.parametrize("code", sorted(GENERATED_REJECT))
def test_generated_reject_produces_its_code(code):
    result = compile_units([("generated.qds", GENERATED_REJECT[code])])
    assert [d.code for d in result.errors] == [code]


@pytest.mark.parametrize("name", ACCEPT)
def test_accept_round_trips_through_pretty_printer(name):
    text, _ = load_accept(name)
    program, diags = parse_program(text, name)
    assert not diags
    printed = pretty_print(program)
    reparsed, diags2 = parse_program(printed, name + "<printed>")
    assert not diags2, "\n".join(d.render() for d in diags2)
    assert structurally_equal(program, reparsed), (
        "pretty-printed program parsed to a different tree:\n" + printed
    )
