"""Recursive-descent parser with spans and statement-level error recovery.

Operator precedence, lowest to highest:

    range ``..``
    ``||``
    ``&&``
    ``|``
    ``^``
    ``&``
    ``==`` ``!=``
    ``<`` ``<=`` ``>`` ``>=``
    ``<<`` ``>>``
    ``+`` ``-``
    ``*`` ``/`` ``%``
    unary ``-`` ``!`` ``~``
    functor application (``Adjoint`` / ``Controlled``)
    call and index (postfix)

Functor application binds looser than call, which is why applied functors
are written parenthesized: ``(Controlled X)([c], t)``.
"""

from __future__ import annotations

import math
import re

from . import diagnostics as diag
from .ast_nodes import (
    AllocateStmt,
    ArrayExpr,
    ArrayTypeNode,
    BinaryExpr,
    Block,
    BoolLit,
    CallableDecl,
    CallableTypeNode,
    CallExpr,
    DoubleLit,
    Expr,
    ExprStmt,
    FailStmt,
    ForStmt,
    FunctorExpr,
    Hole,
    IfStmt,
    IndexExpr,
    IntLit,
    InterpString,
    LetStmt,
    MutableStmt,
    Name,
    NamedTypeNode,
    NamePattern,
    Namespace,
    NewtypeDecl,
    OpenDirective,
    ParamLeaf,
    ParamTuple,
    Pattern,
    PauliLit,
    Program,
    RangeExpr,
    RepeatStmt,
    ResultLit,
    ReturnStmt,
    SetStmt,
    SpecDecl,
    SpecImpl,
    SpecKind,
    Stmt,
    StringLit,
    TupleExpr,
    TuplePattern,
    TupleTypeNode,
    TypeNode,
    TypeParamNode,
    UnaryExpr,
)
from .diagnostics import Diagnostic
from .lexer import lex, scan_interp_string, tokenize
from .source import Span
from .tokens import Token, TokenKind
from .values import Pauli

# Name of the implicit namespace wrapping bare top-level declarations.
SNIPPET_NAMESPACE = "Snippet"

_BINARY_BP: dict[str, int] = {
    "||": 10,
    "&&": 20,
    "|": 30,
    "^": 40,
    "&": 50,
    "==": 60,
    "!=": 60,
    "<": 70,
    "<=": 70,
    ">": 70,
    ">=": 70,
    "<<": 80,
    ">>": 80,
    "+": 90,
    "-": 90,
    "*": 100,
    "/": 100,
    "%": 100,
}

RANGE_BP = 1
UNARY_BP = 110
FUNCTOR_BP = 120
POSTFIX_BP = 130

_FUNCTORS = ("Adjoint", "Controlled")
_INT_MAX = str((1 << 63) - 1)  # the largest Int literal

# Where recovery resumes after an error outside a block.
_DECLARATION_KEYWORDS = frozenset({"namespace", "operation", "function", "newtype", "open"})


class _ParseError(Exception):
    pass


class Parser:
    def __init__(self, tokens: list[Token], file: str = "<input>") -> None:
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    # ── Token access ─────────────────────────────────────────────────────

    def _current(self) -> Token:
        return self.tokens[self.pos]

    def _peek(self, offset: int = 1) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def _at_eof(self) -> bool:
        return self._current().kind is TokenKind.EOF

    def _at_symbol(self, sym: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind is TokenKind.SYMBOL and tok.lexeme == sym

    def _at_keyword(self, word: str) -> bool:
        return self._current().is_keyword(word)

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _error(
        self, message: str, code: str = diag.UNEXPECTED_TOKEN, span: Span | None = None
    ) -> _ParseError:
        """Report an error at ``span``, or at the current token; the caller
        raises the result only to abandon the construct it is parsing."""
        span = span or self._current().span
        self.diagnostics.append(diag.error(code, message, span, self.file))
        return _ParseError()

    def _expect_symbol(self, sym: str) -> Token:
        if self._at_symbol(sym):
            return self._advance()
        raise self._error(f"expected {sym!r}, found {self._describe()}")

    def _expect_keyword(self, word: str) -> Token:
        if self._at_keyword(word):
            return self._advance()
        raise self._error(f"expected {word!r}, found {self._describe()}")

    def _expect_ident(self, what: str = "name") -> Token:
        if self._current().kind is TokenKind.IDENT:
            return self._advance()
        raise self._error(f"expected {what}, found {self._describe()}")

    def _describe(self) -> str:
        tok = self._current()
        if tok.kind is TokenKind.EOF:
            return "end of input"
        return repr(tok.lexeme)

    def _list(self, item, close: str, sep: str = ",", first=None) -> tuple[list, Span]:
        """``item``s separated by ``sep`` up to the ``close`` symbol, which is
        consumed; returns the items and the span of ``close``. ``first`` is an
        item the caller has already parsed; without one the list may be empty."""
        if first is None:
            if self._at_symbol(close):
                return [], self._advance().span
            first = item()
        items = [first]
        while self._at_symbol(sep):
            self._advance()
            items.append(item())
        return items, self._expect_symbol(close).span

    def _skip(self, stops: frozenset[str], nested: bool = True) -> None:
        """Skip to the next token whose lexeme is in ``stops`` (past it, for a
        ``;``) or to the end of input. When ``nested``, a braced group is
        skipped whole and a ``}`` that closes the enclosing one stops too."""
        depth = 0
        while not self._at_eof():
            tok = self._current()
            if depth == 0 and tok.lexeme in stops:
                if tok.lexeme == ";":
                    self._advance()
                return
            if nested and tok.is_symbol("{"):
                depth += 1
            elif nested and tok.is_symbol("}"):
                if depth == 0:
                    return
                depth -= 1
            self._advance()

    # ── Program structure ────────────────────────────────────────────────

    def parse_program(self) -> Program:
        namespaces: list[Namespace] = []
        snippet_decls: list = []
        snippet_opens: list[OpenDirective] = []
        start = self._current().span
        while not self._at_eof():
            try:
                if self._at_keyword("namespace"):
                    namespaces.append(self._parse_namespace())
                elif self._at_keyword("open"):
                    snippet_opens.append(self._parse_open())
                elif self._current().lexeme in self._STATEMENTS or self._looks_like_expr():
                    self._error(
                        "statements may not appear at the top level of a file",
                        diag.STRAY_STATEMENT,
                    )
                    reported = len(self.diagnostics)
                    self._parse_statement()
                    del self.diagnostics[reported:]
                else:
                    snippet_decls.append(self._parse_declaration())
            except _ParseError:
                self._skip(_DECLARATION_KEYWORDS, nested=False)
        end = self._current().span
        if snippet_decls or snippet_opens:
            span = snippet_decls[0].span if snippet_decls else snippet_opens[0].span
            for d in snippet_decls:
                span = span.union(d.span)
            namespaces.append(
                Namespace(span, SNIPPET_NAMESPACE, snippet_opens, snippet_decls, True)
            )
        return Program(start.union(end), namespaces)

    def _looks_like_expr(self) -> bool:
        tok = self._current()
        return tok.kind in (
            TokenKind.IDENT,
            TokenKind.INT,
            TokenKind.DOUBLE,
            TokenKind.STRING,
            TokenKind.INTERP_STRING,
        ) or tok.lexeme in ("(", "[", "-", "!", "~", "true", "false")

    def _parse_namespace(self) -> Namespace:
        start = self._expect_keyword("namespace").span
        name = self._parse_dotted_name("namespace name")
        self._expect_symbol("{")
        opens: list[OpenDirective] = []
        decls: list = []
        # A `namespace` keyword ends this namespace with "expected '}'"; the
        # top level then parses the namespace it starts.
        while not (
            self._at_symbol("}") or self._at_eof() or self._at_keyword("namespace")
        ):
            try:
                if self._at_keyword("open"):
                    opens.append(self._parse_open())
                else:
                    decls.append(self._parse_declaration())
            except _ParseError:
                self._skip(_DECLARATION_KEYWORDS)
        end = self._expect_symbol("}").span
        return Namespace(start.union(end), name, opens, decls)

    def _parse_dotted_name(self, what: str) -> str:
        parts = [self._expect_ident(what).lexeme]
        while self._at_symbol("."):
            self._advance()
            parts.append(self._expect_ident(what).lexeme)
        return ".".join(parts)

    def _parse_open(self) -> OpenDirective:
        start = self._expect_keyword("open").span
        name = self._parse_dotted_name("namespace name")
        end = self._expect_symbol(";").span
        return OpenDirective(start.union(end), name)

    # ── Declarations ─────────────────────────────────────────────────────

    def _parse_declaration(self):
        if self._at_keyword("newtype"):
            return self._parse_newtype()
        if self._at_keyword("operation") or self._at_keyword("function"):
            return self._parse_callable()
        raise self._error(f"expected a declaration, found {self._describe()}")

    def _parse_newtype(self) -> NewtypeDecl:
        start = self._expect_keyword("newtype").span
        name_tok = self._expect_ident("type name")
        self._expect_symbol("=")
        base = self._parse_type()
        end = self._expect_symbol(";").span
        return NewtypeDecl(start.union(end), name_tok.lexeme, name_tok.span, base)

    def _parse_callable(self) -> CallableDecl:
        kw = self._advance()
        is_operation = kw.lexeme == "operation"
        name_tok = self._expect_ident("callable name")
        type_params: list[str] = []
        if self._at_symbol("<"):
            self._advance()
            first = self._parse_type_param()
            type_params, _ = self._list(self._parse_type_param, ">", first=first)
        params = self._parse_param_tuple()
        self._expect_symbol(":")
        output = self._parse_type()
        if is_operation:
            specs, end = self._parse_specializations(name_tok)
        else:
            body = self._parse_block()
            specs = [SpecDecl(body.span, SpecKind.BODY, SpecImpl.PROVIDED, body)]
            end = body.span
        return CallableDecl(
            kw.span.union(end),
            is_operation,
            name_tok.lexeme,
            name_tok.span,
            type_params,
            params,
            output,
            specs,
        )

    def _parse_type_param(self) -> str:
        if self._current().kind is not TokenKind.TYPE_PARAM:
            raise self._error("expected a type parameter like `T")
        return self._advance().lexeme

    def _parse_param_tuple(self) -> ParamTuple:
        start = self._expect_symbol("(").span
        items, end = self._list(self._parse_param_item, ")")
        return ParamTuple(start.union(end), items)

    def _parse_param_item(self):
        if self._at_symbol("("):
            return self._parse_param_tuple()
        name_tok = self._expect_ident("parameter name")
        self._expect_symbol(":")
        ty = self._parse_type()
        return ParamLeaf(name_tok.span.union(ty.span), name_tok.lexeme, ty)

    def _parse_specializations(self, name_tok: Token) -> tuple[list[SpecDecl], Span]:
        self._expect_symbol("{")
        specs: list[SpecDecl] = []
        while not self._at_symbol("}") and not self._at_eof():
            specs.append(self._parse_one_specialization())
        end = self._expect_symbol("}").span
        if not any(s.kind is SpecKind.BODY for s in specs):
            self._error(
                f"operation '{name_tok.lexeme}' has no body specialization",
                diag.MISSING_SPECIALIZATION_BODY,
                name_tok.span,
            )
        seen: set[SpecKind] = set()
        for s in specs:
            if s.kind in seen:
                self._error(
                    f"duplicate {s.kind.value} specialization",
                    diag.DUPLICATE_SPECIALIZATION,
                    s.span,
                )
            seen.add(s.kind)
        return specs, end

    def _parse_one_specialization(self) -> SpecDecl:
        tok = self._current()
        if tok.is_keyword("body"):
            start = self._advance().span
            block = self._parse_block()
            return SpecDecl(start.union(block.span), SpecKind.BODY, SpecImpl.PROVIDED, block)
        if not (tok.is_keyword("adjoint") or tok.is_keyword("controlled")):
            raise self._error(
                f"expected a specialization (body/adjoint/controlled), found {self._describe()}",
                diag.MISSING_SPECIALIZATION_BODY,
            )
        start = self._advance().span
        kind = SpecKind(tok.lexeme)
        if self._at_keyword("controlled" if kind is SpecKind.ADJOINT else "adjoint"):
            self._advance()
            kind = SpecKind.CONTROLLED_ADJOINT
        for impl in (SpecImpl.AUTO, SpecImpl.SELF):
            if self._at_keyword(impl.value):
                if impl is SpecImpl.SELF and kind is SpecKind.CONTROLLED:
                    self._error(
                        "a controlled specialization cannot be 'self'",
                        diag.MISSING_SPECIALIZATION_BODY,
                    )
                end = self._advance().span
                return SpecDecl(start.union(end), kind, impl)
        if self._at_symbol("(" if kind.controlled else "{"):
            ctl_param = None
            if kind.controlled:
                self._advance()
                ctl_param = self._expect_ident("control register name").lexeme
                self._expect_symbol(")")
            block = self._parse_block()
            return SpecDecl(
                start.union(block.span), kind, SpecImpl.PROVIDED, block, ctl_param
            )
        raise self._error(
            f"expected 'auto', 'self', or a specialization body after '{kind.value}'",
            diag.MISSING_SPECIALIZATION_BODY,
        )

    # ── Statements ───────────────────────────────────────────────────────

    def _parse_block(self) -> Block:
        start = self._expect_symbol("{").span
        stmts: list[Stmt] = []
        while not self._at_symbol("}") and not self._at_eof():
            stmt = self._parse_statement()
            if stmt is not None:
                stmts.append(stmt)
        end = self._expect_symbol("}").span
        return Block(start.union(end), stmts)

    def _parse_statement(self) -> Stmt | None:
        """One statement; None after an error, with the input skipped past
        the statement's ``;``."""
        try:
            parse = self._STATEMENTS.get(self._current().lexeme)
            if parse is not None:
                return parse(self)
            expr = self.parse_expression()
            end = self._expect_symbol(";").span
            return ExprStmt(expr.span.union(end), expr)
        except _ParseError:
            self._skip(frozenset({";"}))
            return None

    def _parse_let(self) -> LetStmt:
        start = self._expect_keyword("let").span
        pattern = self._parse_pattern()
        self._expect_symbol("=")
        value = self.parse_expression()
        end = self._expect_symbol(";").span
        return LetStmt(start.union(end), pattern, value)

    def _parse_pattern(self) -> Pattern:
        if self._at_symbol("("):
            start = self._advance().span
            items, end = self._list(self._parse_pattern, ")")
            if len(items) == 1:
                return items[0]
            return TuplePattern(start.union(end), items)
        tok = self._expect_ident("binding name")
        return NamePattern(tok.span, tok.lexeme)

    def _parse_mutable_or_set(self) -> MutableStmt | SetStmt:
        kw = self._advance()
        name_tok = self._expect_ident("binding name")
        self._expect_symbol("=")
        value = self.parse_expression()
        end = self._expect_symbol(";").span
        node = MutableStmt if kw.lexeme == "mutable" else SetStmt
        return node(kw.span.union(end), name_tok.lexeme, value)

    def _parse_if(self) -> IfStmt:
        start = self._current().span
        branches: list[tuple[Expr, Block]] = []
        while not branches or self._at_keyword("elif"):
            self._advance()  # `if`, then each `elif`
            self._expect_symbol("(")
            cond = self.parse_expression()
            self._expect_symbol(")")
            block = self._parse_block()
            branches.append((cond, block))
        end = block.span
        else_block = None
        if self._at_keyword("else"):
            self._advance()
            else_block = self._parse_block()
            end = else_block.span
        return IfStmt(start.union(end), branches, else_block)

    def _parse_for(self) -> ForStmt:
        start = self._expect_keyword("for").span
        self._expect_symbol("(")
        var_tok = self._expect_ident("loop variable")
        self._expect_keyword("in")
        iterable = self.parse_expression()
        self._expect_symbol(")")
        body = self._parse_block()
        return ForStmt(
            start.union(body.span), var_tok.lexeme, var_tok.span, iterable, body
        )

    def _parse_repeat(self) -> RepeatStmt:
        start = self._expect_keyword("repeat").span
        body = self._parse_block()
        self._expect_keyword("until")
        condition = self.parse_expression()
        self._expect_keyword("fixup")
        fixup = self._parse_block()
        return RepeatStmt(start.union(fixup.span), body, condition, fixup)

    def _parse_return_or_fail(self) -> ReturnStmt | FailStmt:
        kw = self._advance()
        value = self.parse_expression()
        end = self._expect_symbol(";").span
        node = ReturnStmt if kw.lexeme == "return" else FailStmt
        return node(kw.span.union(end), value)

    def _parse_allocate(self) -> AllocateStmt:
        kw = self._advance()
        borrowing = kw.lexeme == "borrowing"
        self._expect_symbol("(")
        name_tok = self._expect_ident("binding name")
        self._expect_symbol("=")
        qubit_tok = self._expect_ident("'Qubit'")
        if qubit_tok.lexeme != "Qubit":
            raise self._error("allocation must use Qubit() or Qubit[n]")
        count: Expr | None
        if self._at_symbol("["):
            self._advance()
            count = self.parse_expression()
            self._expect_symbol("]")
        elif self._at_symbol("("):
            self._advance()
            self._expect_symbol(")")
            count = None
        else:
            raise self._error("allocation must use Qubit() or Qubit[n]")
        self._expect_symbol(")")
        body = self._parse_block()
        return AllocateStmt(
            kw.span.union(body.span), name_tok.lexeme, name_tok.span, count, body, borrowing
        )

    _STATEMENTS = {
        "let": _parse_let,
        "mutable": _parse_mutable_or_set,
        "set": _parse_mutable_or_set,
        "if": _parse_if,
        "for": _parse_for,
        "repeat": _parse_repeat,
        "return": _parse_return_or_fail,
        "fail": _parse_return_or_fail,
        "using": _parse_allocate,
        "borrowing": _parse_allocate,
    }

    # ── Expressions ──────────────────────────────────────────────────────

    def parse_expression(self) -> Expr:
        first = self._parse_binary(0)
        if not self._at_symbol(".."):
            return first
        self._advance()
        second = self._parse_binary(0)
        if self._at_symbol(".."):
            self._advance()
            third = self._parse_binary(0)
            if self._at_symbol(".."):
                raise self._error(
                    "a range has at most three parts: start..step..end",
                    diag.BAD_RANGE,
                )
            return RangeExpr(
                first.span.union(third.span), start=first, step=second, end=third
            )
        return RangeExpr(first.span.union(second.span), start=first, step=None, end=second)

    def _parse_binary(self, min_bp: int) -> Expr:
        left = self._parse_prefixed()
        while True:
            tok = self._current()
            if tok.kind is not TokenKind.SYMBOL:
                return left
            bp = _BINARY_BP.get(tok.lexeme, 0)
            if bp <= min_bp:
                return left
            self._advance()
            right = self._parse_binary(bp)
            left = BinaryExpr(
                left.span.union(right.span), op=tok.lexeme, left=left, right=right
            )

    def _parse_prefixed(self) -> Expr:
        """Unary operators, then functors, then a postfix expression; the
        prefixes are collected in a loop, so they cost no recursion."""
        prefixes: list[Token] = []
        while self._current().lexeme in ("-", "!", "~"):
            prefixes.append(self._advance())
        while self._current().lexeme in _FUNCTORS:
            prefixes.append(self._advance())
        expr = self._parse_postfix()
        for tok in reversed(prefixes):
            span = tok.span.union(expr.span)
            if tok.lexeme in _FUNCTORS:
                expr = FunctorExpr(span, functor=tok.lexeme, operand=expr)
            else:
                expr = UnaryExpr(span, op=tok.lexeme, operand=expr)
        return expr

    def _parse_postfix(self) -> Expr:
        start = self._current().span  # a parenthesized primary starts at its "("
        expr = self._parse_primary()
        while True:
            if self._at_symbol("("):
                self._advance()
                args, end = self._list(self.parse_expression, ")")
                expr = CallExpr(start.union(end), callee=expr, args=args)
            elif self._at_symbol("["):
                self._advance()
                index = self.parse_expression()
                end = self._expect_symbol("]").span
                expr = IndexExpr(start.union(end), base=expr, index=index)
            else:
                return expr

    _PAULI_NAMES = {p.value: p for p in Pauli}

    def _parse_primary(self) -> Expr:
        tok = self._current()
        if tok.kind is TokenKind.INT:
            self._advance()
            digits = tok.lexeme.lstrip("0")  # compared before int(), which limits digits
            if (len(digits), digits) > (len(_INT_MAX), _INT_MAX):
                message = f"Int literal out of range: the largest Int is {_INT_MAX}"
                self._error(message, diag.NUMBER_OUT_OF_RANGE, tok.span)
                return IntLit(tok.span, value=0)
            return IntLit(tok.span, value=int(digits or "0"))
        if tok.kind is TokenKind.DOUBLE:
            self._advance()
            value = float(tok.lexeme)
            if not math.isfinite(value):
                message = "Double literal out of range: its value is not finite"
                self._error(message, diag.NUMBER_OUT_OF_RANGE, tok.span)
            return DoubleLit(tok.span, value=value)
        if tok.kind is TokenKind.STRING:
            self._advance()
            return StringLit(tok.span, value=_unescape(tok.lexeme[1:-1]))
        if tok.kind is TokenKind.INTERP_STRING:
            self._advance()
            return self._parse_interpolation(tok)
        if tok.is_keyword("true") or tok.is_keyword("false"):
            self._advance()
            return BoolLit(tok.span, value=tok.lexeme == "true")
        if tok.is_symbol("_"):
            self._advance()
            return Hole(tok.span)
        if tok.is_symbol("["):
            self._advance()
            items, end = self._list(self.parse_expression, "]", sep=";")
            return ArrayExpr(tok.span.union(end), items=items)
        if tok.is_symbol("("):
            self._advance()
            items, end = self._list(self.parse_expression, ")")
            if len(items) == 1:
                return items[0]  # a parenthesized expression: no 1-tuples
            return TupleExpr(tok.span.union(end), items=items)
        if tok.kind is TokenKind.IDENT:
            if tok.lexeme in self._PAULI_NAMES:
                self._advance()
                return PauliLit(tok.span, kind=self._PAULI_NAMES[tok.lexeme])
            if tok.lexeme in ("Zero", "One"):
                self._advance()
                return ResultLit(tok.span, one=tok.lexeme == "One")
            start = tok.span
            name = self._parse_dotted_name("name")
            end = self.tokens[self.pos - 1].span
            return Name(start.union(end), name=name)
        raise self._error(f"expected an expression, found {self._describe()}")

    def _parse_interpolation(self, tok: Token) -> InterpString:
        """Split a ``$"..."`` token at the holes the lexer's scan finds and
        parse each embedded expression."""
        body = tok.lexeme[2:-1] if tok.lexeme.endswith('"') else tok.lexeme[2:]
        base = tok.span.start + 2
        parts: list = []
        at = 0
        for start, end in scan_interp_string(body, 0)[2]:
            if start > at:
                parts.append(_unescape(body[at:start]))
            if end is None:
                self._error(
                    "unterminated interpolation hole",
                    span=Span(base + start, base + len(body)),
                )
                return InterpString(tok.span, parts=parts)
            expr, diags = _parse_whole_expression(
                body[start + 1 : end],
                self.file,
                base + start + 1,
                "unexpected trailing tokens in interpolation hole",
            )
            self.diagnostics.extend(diags)
            parts.append(expr)
            at = end + 1
        if at < len(body):
            parts.append(_unescape(body[at:]))
        return InterpString(tok.span, parts=parts)

    # ── Types ────────────────────────────────────────────────────────────

    def _parse_type(self) -> TypeNode:
        ty = self._parse_atomic_type()
        while self._at_symbol("["):
            if not self._peek().is_symbol("]"):
                break
            self._advance()
            end = self._advance().span
            ty = ArrayTypeNode(ty.span.union(end), ty)
        return ty

    def _parse_atomic_type(self) -> TypeNode:
        tok = self._current()
        if tok.kind is TokenKind.TYPE_PARAM:
            self._advance()
            return TypeParamNode(tok.span, tok.lexeme)
        if tok.kind is TokenKind.IDENT:
            start = tok.span
            name = self._parse_dotted_name("type name")
            end = self.tokens[self.pos - 1].span
            return NamedTypeNode(start.union(end), name)
        if tok.is_symbol("("):
            return self._parse_paren_type()
        raise self._error(f"expected a type, found {self._describe()}")

    def _parse_paren_type(self) -> TypeNode:
        start = self._expect_symbol("(").span
        if self._at_symbol(")"):
            end = self._advance().span
            return TupleTypeNode(start.union(end), [])
        first = self._parse_type()
        if self._at_symbol("=>") or self._at_symbol("->"):
            is_operation = self._advance().lexeme == "=>"
            output = self._parse_type()
            functors: list[str] = []
            if is_operation and self._at_symbol(":"):
                self._advance()
                name = self._parse_functor_name()
                names, end = self._list(self._parse_functor_name, ")", first=name)
                functors = [f.lexeme for f in names if f.lexeme in _FUNCTORS]
            else:
                end = self._expect_symbol(")").span
            return CallableTypeNode(
                start.union(end), is_operation, first, output, functors
            )
        items, end = self._list(self._parse_type, ")", first=first)
        if len(items) == 1:
            return first  # parenthesized type: (T) is T
        return TupleTypeNode(start.union(end), items)

    def _parse_functor_name(self) -> Token:
        """A name in an operation type's functor list; an unknown one is reported."""
        f = self._expect_ident("functor name")
        if f.lexeme not in _FUNCTORS:
            self._error(f"unknown functor {f.lexeme!r}", span=f.span)
        return f


_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPED = {"n": "\n", "t": "\t", "r": "\r"}


def _unescape(raw: str) -> str:
    return _ESCAPE.sub(lambda m: _ESCAPED.get(m[1], m[1]), raw)


# ── Public entry points ──────────────────────────────────────────────────────


def parse_program(text: str, file: str = "<input>") -> tuple[Program, list[Diagnostic]]:
    tokens, lex_diags = tokenize(text, file)
    parser = Parser(tokens, file)
    program = parser.parse_program()
    return program, lex_diags + parser.diagnostics


def parse_expression(text: str, file: str = "<input>") -> tuple[Expr, list[Diagnostic]]:
    return _parse_whole_expression(text, file, 0, "unexpected trailing tokens")


def _parse_whole_expression(
    text: str, file: str, offset: int, trailing: str
) -> tuple[Expr, list[Diagnostic]]:
    """Parse ``text``, the part of ``file`` at ``offset``, as one expression;
    anything after it is reported with the message ``trailing``."""
    tokens, diagnostics = lex(text, file, offset)
    parser = Parser(tokens, file)
    try:
        expr = parser.parse_expression()
        if not parser._at_eof():
            parser._error(trailing)
    except _ParseError:
        expr = TupleExpr(Span(offset, offset + len(text)), items=[])
    return expr, diagnostics + parser.diagnostics
