"""Lexer behavior: token classes, maximal munch, spans, error recovery.

Expected token streams were hand-derived from the lexical rules (comment
stripping, `..` never folding into a double, `_` as the placeholder
symbol, backtick type parameters, interpolated strings as one token).
"""

import os

from hypothesis import given
from hypothesis import strategies as st

from qdsl import diagnostics as diag
from qdsl.lexer import tokenize
from qdsl.tokens import KEYWORDS, TokenKind

GRAMMAR = os.path.join(os.path.dirname(__file__), "..", "docs", "grammar.md")


def kinds_and_lexemes(text):
    tokens, diags = tokenize(text)
    return [(t.kind, t.lexeme) for t in tokens[:-1]], diags


def lex_clean(text):
    pairs, diags = kinds_and_lexemes(text)
    assert diags == []
    return pairs


K = TokenKind


def test_keywords_vs_identifiers():
    assert lex_clean("adjoint adjointx x_ _x repeat Repeat") == [
        (K.KEYWORD, "adjoint"),
        (K.IDENT, "adjointx"),
        (K.IDENT, "x_"),
        (K.IDENT, "_x"),
        (K.KEYWORD, "repeat"),
        (K.IDENT, "Repeat"),
    ]


def test_underscore_alone_is_placeholder_symbol():
    assert lex_clean("f(_, _1)") == [
        (K.IDENT, "f"),
        (K.SYMBOL, "("),
        (K.SYMBOL, "_"),
        (K.SYMBOL, ","),
        (K.IDENT, "_1"),
        (K.SYMBOL, ")"),
    ]


def test_range_does_not_lex_as_double():
    assert lex_clean("1..4") == [
        (K.INT, "1"),
        (K.SYMBOL, ".."),
        (K.INT, "4"),
    ]
    assert lex_clean("0 .. 2 .. 10") == [
        (K.INT, "0"),
        (K.SYMBOL, ".."),
        (K.INT, "2"),
        (K.SYMBOL, ".."),
        (K.INT, "10"),
    ]


def test_double_literals():
    assert lex_clean("1.5 0.25 2e3 1.5e-2 7E+4") == [
        (K.DOUBLE, "1.5"),
        (K.DOUBLE, "0.25"),
        (K.DOUBLE, "2e3"),
        (K.DOUBLE, "1.5e-2"),
        (K.DOUBLE, "7E+4"),
    ]


def test_trailing_dot_stays_integer():
    # `1.` is an Int followed by `.`; only a digit continues a fraction.
    assert lex_clean("1.") == [(K.INT, "1"), (K.SYMBOL, ".")]


def test_maximal_munch_on_operators():
    assert lex_clean("a<<b>>c>=d==e!=f&&g||h") == [
        (K.IDENT, "a"),
        (K.SYMBOL, "<<"),
        (K.IDENT, "b"),
        (K.SYMBOL, ">>"),
        (K.IDENT, "c"),
        (K.SYMBOL, ">="),
        (K.IDENT, "d"),
        (K.SYMBOL, "=="),
        (K.IDENT, "e"),
        (K.SYMBOL, "!="),
        (K.IDENT, "f"),
        (K.SYMBOL, "&&"),
        (K.IDENT, "g"),
        (K.SYMBOL, "||"),
        (K.IDENT, "h"),
    ]
    assert lex_clean("a==b=c") == [
        (K.IDENT, "a"),
        (K.SYMBOL, "=="),
        (K.IDENT, "b"),
        (K.SYMBOL, "="),
        (K.IDENT, "c"),
    ]


def test_type_parameter_token_includes_backtick():
    assert lex_clean("`T `longName") == [
        (K.TYPE_PARAM, "`T"),
        (K.TYPE_PARAM, "`longName"),
    ]


def test_comments_are_stripped():
    assert lex_clean("x // the rest: \"no string\" 1..2\ny") == [
        (K.IDENT, "x"),
        (K.IDENT, "y"),
    ]


def test_plain_string_and_escapes():
    assert lex_clean('"hi \\"there\\""') == [(K.STRING, '"hi \\"there\\""')]


def test_interpolated_string_is_one_token():
    text = '$"value: {f(a, b)} and {x}"'
    assert lex_clean(text) == [(K.INTERP_STRING, text)]


def test_interpolated_string_with_nested_braces():
    text = '$"m: {Map(f, [1; 2])}"'
    assert lex_clean(text) == [(K.INTERP_STRING, text)]


def test_unterminated_string_recovers():
    pairs, diags = kinds_and_lexemes('let s = "oops\nlet t = 1;')
    assert [d.code for d in diags] == [diag.UNTERMINATED_STRING]
    # lexing continues on the next line
    assert (K.KEYWORD, "let") in pairs[3:]


def test_illegal_character_recovers():
    pairs, diags = kinds_and_lexemes("a # b")
    assert [d.code for d in diags] == [diag.ILLEGAL_CHARACTER]
    assert pairs == [(K.IDENT, "a"), (K.IDENT, "b")]


def test_backtick_without_a_name_is_illegal_and_yields_no_token():
    pairs, diags = kinds_and_lexemes("` x")
    assert [(d.code, d.message) for d in diags] == [
        (diag.ILLEGAL_CHARACTER, "expected a name after ` in type parameter")
    ]
    assert (diags[0].span.start, diags[0].span.end) == (0, 1)
    assert pairs == [(K.IDENT, "x")]


def test_unterminated_string_ends_before_its_newline():
    tokens, diags = tokenize('"ab\ny')
    assert (tokens[0].lexeme, tokens[0].span.end) == ('"ab', 3)
    assert (diags[0].span.start, diags[0].span.end) == (0, 3)
    assert tokens[1].lexeme == "y"


def test_escape_skips_the_next_character_even_a_newline():
    assert lex_clean('"a\\\nb"') == [(K.STRING, '"a\\\nb"')]
    for text in ('"a\\\nb" x', '$"a\\\nb" x'):
        pairs, diags = kinds_and_lexemes(text)
        assert diags == [] and pairs[-1] == (K.IDENT, "x")


def test_escape_at_the_end_of_the_text_ends_the_span_one_past_it():
    for text in ('"ab\\', '$"ab\\'):
        tokens, diags = tokenize(text)
        assert tokens[0].lexeme == text
        assert tokens[0].span.end == len(text) + 1
        assert [d.code for d in diags] == [diag.UNTERMINATED_STRING]
        assert diags[0].span.end == len(text) + 1
        assert tokens[-1].span.start == len(text)


def test_identifiers_are_ascii():
    pairs, diags = kinds_and_lexemes("caf\u00e9")
    assert pairs == [(K.IDENT, "caf")]
    assert [d.message for d in diags] == ["illegal character '\u00e9'"]


def test_grammar_doc_lists_exactly_the_keywords():
    with open(GRAMMAR, encoding="utf-8") as handle:
        listed = handle.read().split("Keywords: `", 1)[1].split("`", 1)[0].split()
    assert sorted(listed) == sorted(KEYWORDS)


def test_eof_token_always_present():
    tokens, _ = tokenize("")
    assert tokens[-1].kind is K.EOF
    tokens, _ = tokenize("x")
    assert tokens[-1].kind is K.EOF


SAMPLE = """
namespace A.B {
    open C.D;
    operation Op<`T> (q : Qubit, r : `T[]) : (Result, Int) {
        body {
            let x = 1..2..9;
            mutable y = [1; 5; 3];
            set y = y + [0];
            if (x == 1) { fail $"bad {x}"; } elif (true) {} else {}
            using (qs = Qubit[2]) { borrowing (b = Qubit[1]) {} }
            repeat { let r = Zero; } until r == One fixup { Reset(q); }
            return (Zero, 0x);
        }
        adjoint self
        controlled auto
    }
}
"""


def test_spans_slice_back_to_lexemes():
    tokens, _ = tokenize(SAMPLE)
    for t in tokens[:-1]:
        assert SAMPLE[t.span.start : t.span.end] == t.lexeme


def test_spans_are_ascending_and_disjoint():
    tokens, _ = tokenize(SAMPLE)
    for a, b in zip(tokens, tokens[1:]):
        assert a.span.end <= b.span.start


@given(
    st.lists(
        st.sampled_from(
            ["let", "x", "1", "2.5", "..", "==", "(", ")", "`T", '"s"', "_", "7"]
        ),
        max_size=30,
    )
)
def test_space_separated_fragments_round_trip(fragments):
    """Joining any fragments with spaces lexes cleanly to those lexemes."""
    text = " ".join(fragments)
    tokens, diags = tokenize(text)
    assert diags == []
    assert [t.lexeme for t in tokens[:-1]] == fragments


RAW_PIECES = ["\\", '"', '$"', "`", "{", "}", "/", ".", "e", "\n", "#", "\u00e9", " ", "x", "_"]


@given(st.lists(st.sampled_from(RAW_PIECES + list("0123456789")), max_size=40))
def test_any_text_lexes_to_spans_that_slice_back(pieces):
    """On any text: no exception, EOF at the end, ascending disjoint spans,
    each slicing back to its lexeme."""
    text = "".join(pieces)
    tokens, _ = tokenize(text)
    *body, eof = tokens
    assert eof.kind is K.EOF and (eof.span.start, eof.span.end) == (len(text), len(text))
    for a, b in zip(body, body[1:]):
        assert a.span.end <= b.span.start
    for t in body:
        assert text[t.span.start : t.span.end] == t.lexeme
        # only a string cut off by an escape at the very end runs one past
        assert t.span.end <= len(text) or t.span.end == len(text) + 1 == body[-1].span.end
