"""Token definitions shared by the lexer and parser."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from .source import Span


class TokenKind(Enum):
    KEYWORD = auto()
    IDENT = auto()
    INT = auto()
    DOUBLE = auto()
    STRING = auto()
    INTERP_STRING = auto()
    SYMBOL = auto()
    TYPE_PARAM = auto()  # lexeme includes the leading backtick
    EOF = auto()


KEYWORDS = frozenset(
    {
        # declarations
        "namespace",
        "open",
        "operation",
        "function",
        "newtype",
        "body",
        "adjoint",
        "controlled",
        "self",
        "auto",
        # statements (frozen set)
        "let",
        "mutable",
        "set",
        "if",
        "elif",
        "else",
        "for",
        "in",
        "repeat",
        "until",
        "fixup",
        "return",
        "fail",
        "using",
        "borrowing",
        # literals
        "true",
        "false",
    }
)

# The lexer's pattern tries the symbols in this order, so multi-character
# symbols come before their one-character prefixes and the longest wins.
SYMBOLS = (
    "..",
    "==",
    "!=",
    "<=",
    ">=",
    "<<",
    ">>",
    "&&",
    "||",
    "=>",
    "->",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ";",
    ":",
    ".",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    "&",
    "|",
    "^",
    "~",
    "_",
)


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    lexeme: str
    span: Span

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.lexeme == word

    def is_symbol(self, sym: str) -> bool:
        return self.kind is TokenKind.SYMBOL and self.lexeme == sym

    def __repr__(self) -> str:  # compact, for test failure output
        return f"{self.kind.name}({self.lexeme!r}@{self.span.start})"
