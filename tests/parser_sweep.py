"""Token-mutation sweep over the parser.

Parses every corpus and prelude file, and every copy of one with a single
token deleted, doubled, or replaced by another token of the same file (drawn
from a seeded generator), each parse bounded by a timer. It fails on a hang,
an uncaught exception, a diagnostic code outside ``diagnostics.ALL_CODES``,
a diagnostic span outside the text, or a clean parse whose
``pretty_print`` does not re-parse to a structurally equal tree.

Run it from the repository root (about 15 s; pytest does not collect it):

    PYTHONPATH=src python3 tests/parser_sweep.py

``tests/test_parser.py`` runs a sample of the same inputs under tier-1.
"""

from __future__ import annotations

import random
import signal
import sys
from pathlib import Path

from qdsl import diagnostics as diag
from qdsl.ast_nodes import structurally_equal
from qdsl.lexer import tokenize
from qdsl.parser import parse_program
from qdsl.pretty import pretty_print

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TIME_LIMIT_S = 1.0


def sources() -> list[tuple[str, str]]:
    """(label, text) of every corpus file and every prelude file."""
    paths = sorted((ROOT / "tests" / "corpus").rglob("*.qds"))
    paths += sorted((ROOT / "src" / "qdsl" / "prelude").glob("*.qds"))
    return [(str(p.relative_to(ROOT)), p.read_text(encoding="utf-8")) for p in paths]


def mutations(label: str, text: str) -> list[tuple[str, str]]:
    """The text itself, then each token deleted, doubled and replaced."""
    tokens = tokenize(text, label)[0][:-1]  # the EOF token has no text
    lexemes = [t.lexeme for t in tokens]
    rng = random.Random(f"{SEED}:{label}")
    out = [(label, text)]
    for i, tok in enumerate(tokens):
        start, end = tok.span.start, tok.span.end
        other = rng.choice([x for x in lexemes if x != tok.lexeme] or [";"])
        where = f"{label} token {i} {tok.lexeme!r}"
        out.append((f"{where} deleted", text[:start] + text[end:]))
        out.append((f"{where} doubled", f"{text[:end]} {tok.lexeme}{text[end:]}"))
        out.append((f"{where} -> {other!r}", f"{text[:start]} {other} {text[end:]}"))
    return out


def inputs() -> list[tuple[str, str]]:
    return [m for label, text in sources() for m in mutations(label, text)]


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout


def parse_bounded(text: str, file: str):
    """``parse_program(text, file)``, raising ``_Timeout`` after ``TIME_LIMIT_S``."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        return parse_program(text, file)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def problems(label: str, text: str) -> list[str]:
    """What is wrong with parsing ``text``; empty when nothing is."""
    try:
        program, diags = parse_bounded(text, "<sweep>")
    except _Timeout:
        return [f"{label}: no result within {TIME_LIMIT_S} s"]
    except Exception as exc:  # any exception that escapes is a finding
        return [f"{label}: {type(exc).__name__}: {exc}"]
    found = []
    for d in diags:
        if d.code not in diag.ALL_CODES:
            found.append(f"{label}: unknown code {d.code!r}")
        if not 0 <= d.span.start <= d.span.end <= len(text):
            found.append(f"{label}: span {d.span} outside the text")
    if not diags:
        printed = pretty_print(program)
        reparsed, rediags = parse_program(printed, "<sweep>")
        if rediags or not structurally_equal(program, reparsed):
            found.append(f"{label}: pretty_print does not round-trip")
    return found


def main() -> int:
    cases = inputs()
    found = [p for label, text in cases for p in problems(label, text)]
    for p in found:
        print(p)
    print(f"{len(cases)} inputs, {len(found)} problems")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
