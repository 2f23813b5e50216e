"""Lexer: one regular expression whose named groups are the token classes.

At each position ``_TOKEN`` tries its alternatives in order, and the first
that matches decides the token. A group named after a ``TokenKind`` gives a
token of that kind as matched; a lower-case group needs the loop's care:

* ``skip``: blanks (space, tab, CR, LF) and ``//`` line comments.
* ``KEYWORD``, ``IDENT``: ASCII words. ``_`` alone is not a word but the
  missing-argument placeholder symbol; identifiers may contain underscores
  anywhere else.
* ``DOUBLE``, ``INT``: a dot begins a fraction only when a digit follows
  it, so ``1..4`` lexes as a range and ``1.`` as an Int and a ``.``.
* ``STRING``: ``"..."``, in which a backslash escapes the next character,
  even a newline. ``open_string`` is one cut off by the end of its line or
  of the text; it is reported and still yields a token.
* ``interp_string``: ``$"...{expr}..."`` is one token, ended by
  ``scan_interp_string``; the parser splits out the embedded expressions
  at the holes that function finds.
* ``TYPE_PARAM``: ```T`` including the backtick. ``backtick`` is one
  with no name after it, reported and skipped.
* ``SYMBOL``: ``tokens.SYMBOLS``, tried in their order so the longest wins.
* ``illegal``: any other character, reported and skipped.
"""

from __future__ import annotations

import re

from . import diagnostics as diag
from .diagnostics import Diagnostic
from .source import Span
from .tokens import KEYWORDS, SYMBOLS, Token, TokenKind

_TOKEN = re.compile(
    "|".join(
        f"(?P<{group}>{pattern})"
        for group, pattern in (
            ("skip", r"(?:[ \t\r\n]|//[^\n]*)+"),
            ("KEYWORD", "(?:" + "|".join(sorted(KEYWORDS)) + r")\b"),
            ("IDENT", r"[A-Za-z]\w*|_\w+"),
            ("DOUBLE", r"\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+)"),
            ("INT", r"\d+"),
            ("STRING", r'"(?:[^"\\\n]|\\.)*"'),
            ("open_string", r'"(?:[^"\\\n]|\\.)*(?P<dangling>\\)?'),
            ("interp_string", r'\$"'),
            ("TYPE_PARAM", r"`[A-Za-z_]\w*"),
            ("backtick", "`"),
            ("SYMBOL", "|".join(map(re.escape, SYMBOLS))),
            ("illegal", "."),
        )
    ),
    re.ASCII | re.DOTALL,
)
_KINDS = {kind.name: kind for kind in TokenKind}


def scan_interp_string(
    text: str, pos: int
) -> tuple[int, bool, list[tuple[int, int | None]]]:
    """Scan the ``$"`` string whose body starts at ``pos``: its end, whether
    a quote closes it, and its holes as the offsets of each outermost ``{``
    and of the ``}`` that closes it (None for a hole left open).

    Braces nest inside its holes, which no regular expression can follow,
    so this one form is scanned by hand: a backslash skips the next
    character, a quote inside a hole does not close the string, and a
    newline cuts it off.
    """
    depth, holes = 0, []
    while pos < len(text):
        ch = text[pos]
        if ch == "\\":
            pos += 2
            continue
        if ch == "{":
            if not depth:
                holes.append((pos, None))
            depth += 1
        elif ch == "}" and depth:
            depth -= 1
            if not depth:
                holes[-1] = (holes[-1][0], pos)
        elif ch == '"' and not depth:
            return pos + 1, True, holes
        elif ch == "\n":
            break
        pos += 1
    return pos, False, holes


def lex(
    text: str, file: str = "<input>", offset: int = 0
) -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize ``text``, the part of ``file`` that starts at ``offset``;
    always returns a token list ending in EOF."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    match = _TOKEN.match
    pos = 0
    while pos < len(text):
        m = match(text, pos)
        start, pos = pos, m.end()
        kind = _KINDS.get(m.lastgroup)
        if kind is not None:
            tokens.append(Token(kind, m.group(), Span(start + offset, pos + offset)))
            continue
        group = m.lastgroup
        if group in ("open_string", "interp_string"):
            kind, closed = TokenKind.STRING, False
            if group == "interp_string":
                kind = TokenKind.INTERP_STRING
                pos, closed, _ = scan_interp_string(text, pos)
            elif m.group("dangling"):
                pos += 1  # an escape at the very end of the text skips past it
            span = Span(start + offset, pos + offset)
            tokens.append(Token(kind, text[start:pos], span))
            if not closed:
                diagnostics.append(
                    diag.error(
                        diag.UNTERMINATED_STRING, "unterminated string literal", span, file
                    )
                )
        elif group != "skip":
            message = (
                "expected a name after ` in type parameter"
                if group == "backtick"
                else f"illegal character {m.group()!r}"
            )
            span = Span(start + offset, pos + offset)
            diagnostics.append(diag.error(diag.ILLEGAL_CHARACTER, message, span, file))
    end = len(text) + offset
    tokens.append(Token(TokenKind.EOF, "", Span(end, end)))
    return tokens, diagnostics


def tokenize(text: str, file: str = "<input>") -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize the whole of ``text``; always returns a token list ending in EOF."""
    return lex(text, file)
