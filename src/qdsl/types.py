"""The type algebra: representation, normalization, subtyping, unification.

Representation notes:

* Unit is the empty tuple type; ``normalize`` collapses singleton tuples, so
  a well-formed ``Tuple`` never has exactly one element.
* User-defined types carry their (fully-qualified) name and resolved base;
  a UDT is a strict subtype of its base and of nothing else.
* ``Param`` covers both rigid type parameters (``uid is None``, bound by an
  enclosing declaration) and fresh unification variables (``uid`` set, minted
  per call site). Only fresh variables may be bound during unification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Type:
    pass


@dataclass(frozen=True)
class Prim(Type):
    name: str

    def __repr__(self) -> str:
        return self.name


INT = Prim("Int")
DOUBLE = Prim("Double")
BOOL = Prim("Bool")
STRING = Prim("String")
RANGE = Prim("Range")
PAULI = Prim("Pauli")
RESULT = Prim("Result")
QUBIT = Prim("Qubit")

PRIMITIVES = {
    "Int": INT,
    "Double": DOUBLE,
    "Bool": BOOL,
    "Boolean": BOOL,  # accepted spelling; Bool is canonical
    "String": STRING,
    "Range": RANGE,
    "Pauli": PAULI,
    "Result": RESULT,
    "Qubit": QUBIT,
}


@dataclass(frozen=True)
class Tuple(Type):
    items: tuple[Type, ...]


UNIT = Tuple(())


@dataclass(frozen=True)
class Array(Type):
    element: Type


@dataclass(frozen=True)
class Callable(Type):
    operation: bool
    input: Type
    output: Type
    variants: frozenset[str] = frozenset()  # subset of {"Adjoint", "Controlled"}


@dataclass(frozen=True)
class Udt(Type):
    name: str  # fully qualified
    base: Type = field(compare=False)  # resolved base; identity is the name

    def __repr__(self) -> str:
        return self.name.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class Param(Type):
    name: str  # includes the leading backtick
    uid: int | None = None  # None = rigid declaration parameter


_uid_counter = itertools.count(1)


def fresh_param(name: str) -> Param:
    return Param(name, next(_uid_counter))


# ── Normalization ────────────────────────────────────────────────────────────


def normalize(t: Type) -> Type:
    """Collapse singleton tuples recursively; idempotent."""
    if isinstance(t, Tuple):
        items = tuple(normalize(i) for i in t.items)
        if len(items) == 1:
            return items[0]
        return Tuple(items)
    if isinstance(t, Array):
        return Array(normalize(t.element))
    if isinstance(t, Callable):
        return Callable(t.operation, normalize(t.input), normalize(t.output), t.variants)
    return t


# ── Rendering ────────────────────────────────────────────────────────────────


def render(t: Type) -> str:
    if isinstance(t, Prim):
        return t.name
    if isinstance(t, Tuple):
        return "(" + ", ".join(render(i) for i in t.items) + ")"
    if isinstance(t, Array):
        return render(t.element) + "[]"
    if isinstance(t, Callable):
        arrow = "=>" if t.operation else "->"
        text = f"({render(t.input)} {arrow} {render(t.output)}"
        if t.variants:
            text += " : " + ", ".join(sorted(t.variants))
        return text + ")"
    if isinstance(t, Udt):
        return t.name.rsplit(".", 1)[-1]
    if isinstance(t, Param):
        return t.name
    return repr(t)


# ── Subtyping ────────────────────────────────────────────────────────────────


def subtype(a: Type, b: Type) -> bool:
    """True when a value of type ``a`` is usable where ``b`` is expected."""
    a = normalize(a)
    b = normalize(b)
    if a == b:
        return True
    if isinstance(a, Udt):
        return subtype(a.base, b)
    if isinstance(a, Tuple) and isinstance(b, Tuple):
        return len(a.items) == len(b.items) and all(
            subtype(x, y) for x, y in zip(a.items, b.items)
        )
    if isinstance(a, Array) and isinstance(b, Array):
        return subtype(a.element, b.element)
    if isinstance(a, Callable) and isinstance(b, Callable):
        if a.operation != b.operation:
            return False
        if not b.variants <= a.variants:
            return False
        return subtype(b.input, a.input) and subtype(a.output, b.output)
    return False


def join(a: Type, b: Type) -> Type | None:
    """Least common supertype, or None when the types are unrelated."""
    a = normalize(a)
    b = normalize(b)
    if subtype(a, b):
        return b
    if subtype(b, a):
        return a
    if isinstance(a, Udt):
        return join(a.base, b)
    if isinstance(b, Udt):
        return join(a, b.base)
    if isinstance(a, Tuple) and isinstance(b, Tuple) and len(a.items) == len(b.items):
        items = [join(x, y) for x, y in zip(a.items, b.items)]
        if all(i is not None for i in items):
            return Tuple(tuple(items))  # type: ignore[arg-type]
    if isinstance(a, Array) and isinstance(b, Array):
        elem = join(a.element, b.element)
        if elem is not None:
            return Array(elem)
    return None


# ── Unification ──────────────────────────────────────────────────────────────

ParamKey = tuple[str, int]
Bindings = dict[ParamKey, Type]


class UnifyError(Exception):
    def __init__(self, expected: Type, actual: Type, detail: str = "") -> None:
        self.expected = expected
        self.actual = actual
        msg = f"cannot use value of type {render(actual)} where {render(expected)} is expected"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _is_var(t: Type) -> bool:
    return isinstance(t, Param) and t.uid is not None


def _resolve(t: Type, bindings: Bindings) -> Type:
    while _is_var(t):
        key = (t.name, t.uid)  # type: ignore[union-attr]
        if key not in bindings:
            return t
        t = bindings[key]
    return t


def occurs(var: Param, t: Type, bindings: Bindings) -> bool:
    t = _resolve(t, bindings)
    if isinstance(t, Param):
        return t == var
    if isinstance(t, Tuple):
        return any(occurs(var, i, bindings) for i in t.items)
    if isinstance(t, Array):
        return occurs(var, t.element, bindings)
    if isinstance(t, Callable):
        return occurs(var, t.input, bindings) or occurs(var, t.output, bindings)
    return False


def _bind(var: Param, t: Type, bindings: Bindings) -> None:
    if occurs(var, t, bindings):
        raise UnifyError(var, t, "occurs check failed")
    bindings[(var.name, var.uid)] = normalize(t)


def _rep_var(var: Param, bindings: Bindings) -> Param:
    """Follow variable-to-variable links to the chain's representative."""
    while True:
        bound = bindings.get((var.name, var.uid))
        if _is_var(bound):
            var = bound  # type: ignore[assignment]
            continue
        return var


def unify(spec: Type, actual: Type, bindings: Bindings) -> None:
    """Match ``actual`` against ``spec``, binding fresh variables minimally.

    ``spec`` is the expected type (usually a declaration signature), ``actual``
    the provided one. Subtyping slack is honored wherever both sides are
    ground: a UDT argument unifies against its base's structure. When an
    already-bound variable meets an incompatible but related use, it widens
    to the least common supertype (a named type against its base resolves to
    the base).
    """
    spec = normalize(spec)
    actual = normalize(actual)
    spec_var = spec if _is_var(spec) else None
    actual_var = actual if _is_var(actual) else None
    spec = _resolve(spec, bindings)
    actual = _resolve(actual, bindings)
    if _is_var(spec):
        _bind(spec, actual, bindings)  # type: ignore[arg-type]
        return
    if _is_var(actual):
        _bind(actual, spec, bindings)  # type: ignore[arg-type]
        return
    try:
        _unify_ground(spec, actual, bindings)
    except UnifyError:
        for var, other in ((spec_var, actual), (actual_var, spec)):
            if var is None:
                continue
            widened = join(substitute(var, bindings), substitute(other, bindings))
            if widened is not None and not contains_var(widened):
                rep = _rep_var(var, bindings)
                bindings[(rep.name, rep.uid)] = widened
                return
        raise


def _unify_ground(spec: Type, actual: Type, bindings: Bindings) -> None:
    if spec == actual:
        return
    if isinstance(spec, Tuple) and isinstance(actual, Tuple):
        if len(spec.items) != len(actual.items):
            raise UnifyError(spec, actual, "tuple arity differs")
        for s, a in zip(spec.items, actual.items):
            unify(s, a, bindings)
        return
    if isinstance(spec, Array) and isinstance(actual, Array):
        unify(spec.element, actual.element, bindings)
        return
    if isinstance(spec, Callable) and isinstance(actual, Callable):
        if spec.operation != actual.operation:
            raise UnifyError(spec, actual, "operation vs function")
        if not spec.variants <= actual.variants:
            missing = ", ".join(sorted(spec.variants - actual.variants))
            raise UnifyError(spec, actual, f"missing functor support: {missing}")
        unify(actual.input, spec.input, bindings)  # contravariant
        unify(spec.output, actual.output, bindings)
        return
    if isinstance(actual, Udt):
        if isinstance(spec, Udt) and spec.name == actual.name:
            return
        unify(spec, actual.base, bindings)  # upcast at the call boundary
        return
    if subtype(actual, spec):
        return
    raise UnifyError(spec, actual)


def substitute(t: Type, bindings: Bindings) -> Type:
    t = _resolve(t, bindings)
    if isinstance(t, Tuple):
        return normalize(Tuple(tuple(substitute(i, bindings) for i in t.items)))
    if isinstance(t, Array):
        return Array(substitute(t.element, bindings))
    if isinstance(t, Callable):
        return Callable(
            t.operation,
            substitute(t.input, bindings),
            substitute(t.output, bindings),
            t.variants,
        )
    return t


def contains_var(t: Type) -> bool:
    if _is_var(t):
        return True
    if isinstance(t, Tuple):
        return any(contains_var(i) for i in t.items)
    if isinstance(t, Array):
        return contains_var(t.element)
    if isinstance(t, Callable):
        return contains_var(t.input) or contains_var(t.output)
    return False


def instantiate(t: Type, mapping: dict[str, Param]) -> Type:
    """Replace rigid parameters named in ``mapping`` with fresh variables."""
    if isinstance(t, Param) and t.uid is None and t.name in mapping:
        return mapping[t.name]
    if isinstance(t, Tuple):
        return Tuple(tuple(instantiate(i, mapping) for i in t.items))
    if isinstance(t, Array):
        return Array(instantiate(t.element, mapping))
    if isinstance(t, Callable):
        return Callable(
            t.operation,
            instantiate(t.input, mapping),
            instantiate(t.output, mapping),
            t.variants,
        )
    return t


ADJOINT = "Adjoint"
CONTROLLED = "Controlled"
BOTH_VARIANTS = frozenset({ADJOINT, CONTROLLED})
