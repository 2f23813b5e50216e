"""Canonical source renderer.

The contract is round-tripping: ``parse(pretty_print(tree))`` is structurally
equal to ``tree`` (spans aside). Output style is fixed at four-space indents
with one statement per line.
"""

from __future__ import annotations

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
    Stmt,
    StringLit,
    TupleExpr,
    TuplePattern,
    TupleTypeNode,
    TypeNode,
    TypeParamNode,
    UnaryExpr,
)
from .parser import _BINARY_BP, FUNCTOR_BP, POSTFIX_BP, RANGE_BP, UNARY_BP

_INDENT = "    "
_PRIMARY_BP = 200


def precedence(expr: Expr) -> int:
    if isinstance(expr, RangeExpr):
        return RANGE_BP
    if isinstance(expr, BinaryExpr):
        return _BINARY_BP[expr.op]
    if isinstance(expr, UnaryExpr):
        return UNARY_BP
    if isinstance(expr, FunctorExpr):
        return FUNCTOR_BP
    if isinstance(expr, (CallExpr, IndexExpr)):
        return POSTFIX_BP
    return _PRIMARY_BP


def _escape(text: str, *, braces: bool = False) -> str:
    out = text.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    if braces:
        out = out.replace("{", "\\{").replace("}", "\\}")
    return out


def render_expr(expr: Expr, min_bp: int = 0) -> str:
    text = _render_expr(expr)
    if precedence(expr) < min_bp:
        return f"({text})"
    return text


def _render_expr(expr: Expr) -> str:
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, DoubleLit):
        return repr(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, StringLit):
        return f'"{_escape(expr.value)}"'
    if isinstance(expr, InterpString):
        parts = []
        for part in expr.parts:
            if isinstance(part, str):
                parts.append(_escape(part, braces=True))
            else:
                parts.append("{" + render_expr(part) + "}")
        return '$"' + "".join(parts) + '"'
    if isinstance(expr, PauliLit):
        return expr.kind.value
    if isinstance(expr, ResultLit):
        return "One" if expr.one else "Zero"
    if isinstance(expr, Name):
        return expr.name
    if isinstance(expr, Hole):
        return "_"
    if isinstance(expr, TupleExpr):
        return "(" + ", ".join(render_expr(e) for e in expr.items) + ")"
    if isinstance(expr, ArrayExpr):
        return "[" + "; ".join(render_expr(e) for e in expr.items) + "]"
    if isinstance(expr, RangeExpr):
        parts = [render_expr(expr.start, RANGE_BP + 1)]
        if expr.step is not None:
            parts.append(render_expr(expr.step, RANGE_BP + 1))
        parts.append(render_expr(expr.end, RANGE_BP + 1))
        return " .. ".join(parts)
    if isinstance(expr, IndexExpr):
        return render_expr(expr.base, POSTFIX_BP) + "[" + render_expr(expr.index) + "]"
    if isinstance(expr, CallExpr):
        args = ", ".join(render_expr(a) for a in expr.args)
        return render_expr(expr.callee, POSTFIX_BP) + "(" + args + ")"
    if isinstance(expr, FunctorExpr):
        return expr.functor + " " + render_expr(expr.operand, FUNCTOR_BP)
    if isinstance(expr, UnaryExpr):
        return expr.op + render_expr(expr.operand, UNARY_BP)
    if isinstance(expr, BinaryExpr):
        bp = _BINARY_BP[expr.op]
        left = render_expr(expr.left, bp)
        right = render_expr(expr.right, bp + 1)
        return f"{left} {expr.op} {right}"
    raise TypeError(f"cannot render {type(expr).__name__}")


def render_type(ty: TypeNode) -> str:
    if isinstance(ty, NamedTypeNode):
        return ty.name
    if isinstance(ty, TypeParamNode):
        return ty.name
    if isinstance(ty, TupleTypeNode):
        return "(" + ", ".join(render_type(t) for t in ty.items) + ")"
    if isinstance(ty, ArrayTypeNode):
        return render_type(ty.element) + "[]"
    if isinstance(ty, CallableTypeNode):
        arrow = "=>" if ty.is_operation else "->"
        text = f"({render_type(ty.input)} {arrow} {render_type(ty.output)}"
        if ty.functors:
            text += " : " + ", ".join(ty.functors)
        return text + ")"
    raise TypeError(f"cannot render {type(ty).__name__}")


def render_pattern(pattern: Pattern) -> str:
    if isinstance(pattern, NamePattern):
        return pattern.name
    if isinstance(pattern, TuplePattern):
        return "(" + ", ".join(render_pattern(p) for p in pattern.items) + ")"
    raise TypeError(f"cannot render {type(pattern).__name__}")


def render_params(params: ParamTuple) -> str:
    def item(p) -> str:
        if isinstance(p, ParamLeaf):
            return f"{p.name} : {render_type(p.type)}"
        return "(" + ", ".join(item(q) for q in p.items) + ")"

    return "(" + ", ".join(item(p) for p in params.items) + ")"


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def line(self, text: str = "") -> None:
        self.lines.append(_INDENT * self.depth + text if text else "")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _render_block(w: _Writer, block: Block, header: str, footer: str = "}") -> None:
    if not block.stmts:
        w.line(header + "}")
        return
    w.line(header)
    w.depth += 1
    for stmt in block.stmts:
        _render_stmt(w, stmt)
    w.depth -= 1
    w.line(footer)


def _render_stmt(w: _Writer, stmt: Stmt) -> None:
    if isinstance(stmt, LetStmt):
        w.line(f"let {render_pattern(stmt.pattern)} = {render_expr(stmt.value)};")
    elif isinstance(stmt, MutableStmt):
        w.line(f"mutable {stmt.name} = {render_expr(stmt.value)};")
    elif isinstance(stmt, SetStmt):
        w.line(f"set {stmt.name} = {render_expr(stmt.value)};")
    elif isinstance(stmt, ReturnStmt):
        w.line(f"return {render_expr(stmt.value)};")
    elif isinstance(stmt, FailStmt):
        w.line(f"fail {render_expr(stmt.message)};")
    elif isinstance(stmt, ExprStmt):
        w.line(render_expr(stmt.expr) + ";")
    elif isinstance(stmt, IfStmt):
        for i, (cond, block) in enumerate(stmt.branches):
            kw = "elif" if i else "if"
            _render_block(w, block, f"{kw} ({render_expr(cond)}) {{")
        if stmt.else_block is not None:
            _render_block(w, stmt.else_block, "else {")
    elif isinstance(stmt, ForStmt):
        _render_block(
            w, stmt.body, f"for ({stmt.var} in {render_expr(stmt.iterable)}) {{"
        )
    elif isinstance(stmt, RepeatStmt):
        _render_block(w, stmt.body, "repeat {")
        _render_block(
            w, stmt.fixup, f"until ({render_expr(stmt.condition)}) fixup {{"
        )
    elif isinstance(stmt, AllocateStmt):
        kw = "borrowing" if stmt.borrowing else "using"
        alloc = "Qubit()" if stmt.count is None else f"Qubit[{render_expr(stmt.count)}]"
        _render_block(w, stmt.body, f"{kw} ({stmt.name} = {alloc}) {{")
    else:
        raise TypeError(f"cannot render {type(stmt).__name__}")


def _render_spec(w: _Writer, spec: SpecDecl) -> None:
    if spec.impl is not SpecImpl.PROVIDED:
        w.line(f"{spec.kind.value} {spec.impl.value}")
    else:
        ctl = "" if spec.ctl_param is None else f" ({spec.ctl_param})"
        _render_block(w, spec.block, f"{spec.kind.value}{ctl} {{")


def _render_decl(w: _Writer, decl) -> None:
    if isinstance(decl, NewtypeDecl):
        w.line(f"newtype {decl.name} = {render_type(decl.base)};")
        return
    assert isinstance(decl, CallableDecl)
    kw = "operation" if decl.is_operation else "function"
    tp = ""
    if decl.type_params:
        tp = "<" + ", ".join(decl.type_params) + ">"
    header = (
        f"{kw} {decl.name}{tp} {render_params(decl.params)} "
        f": {render_type(decl.output)} {{"
    )
    if decl.is_operation:
        w.line(header)
        w.depth += 1
        for spec in decl.specs:
            _render_spec(w, spec)
        w.depth -= 1
        w.line("}")
    else:
        body = decl.specs[0].block
        _render_block(w, body, header)


def pretty_print(node) -> str:
    """Render a Program, Namespace, declaration, Block, statement, or Expr."""
    if isinstance(node, Expr):
        return render_expr(node)
    if isinstance(node, TypeNode):
        return render_type(node)
    w = _Writer()
    if isinstance(node, Program):
        for i, ns in enumerate(node.namespaces):
            if i:
                w.line()
            if ns.implicit:
                for op in ns.opens:
                    w.line(f"open {op.name};")
                for decl in ns.decls:
                    _render_decl(w, decl)
            else:
                _render_namespace(w, ns)
    elif isinstance(node, Namespace):
        _render_namespace(w, node)
    elif isinstance(node, (CallableDecl, NewtypeDecl)):
        _render_decl(w, node)
    elif isinstance(node, Block):
        for stmt in node.stmts:
            _render_stmt(w, stmt)
    elif isinstance(node, Stmt):
        _render_stmt(w, node)
    elif isinstance(node, SpecDecl):
        _render_spec(w, node)
    else:
        raise TypeError(f"cannot render {type(node).__name__}")
    return w.text()


def _render_namespace(w: _Writer, ns: Namespace) -> None:
    w.line(f"namespace {ns.name} {{")
    w.depth += 1
    for op in ns.opens:
        w.line(f"open {op.name};")
    if ns.opens and ns.decls:
        w.line()
    for i, decl in enumerate(ns.decls):
        if i:
            w.line()
        _render_decl(w, decl)
    w.depth -= 1
    w.line("}")
