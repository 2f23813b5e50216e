"""The type algebra: representation, subtyping, unification.

Representation notes:

* Every type is a ``Slotted`` class (``qdsl.slots``), equal and hashed by
  the fields its ``_key`` names: a UDT by its name alone.
* Unit is the empty tuple type. A one-item tuple type is its item, as the
  language treats ``(T)`` and ``T`` alike. This is enforced where a tuple
  type is built: ``tuple_of`` returns the item itself when there is one, and
  ``Tuple`` raises on one item. Every other type is built from parts that
  already hold it, so no consumer re-checks it.
* User-defined types carry their (fully-qualified) name and resolved base;
  a UDT is a strict subtype of its base and of nothing else.
* ``Param`` covers both rigid type parameters (``uid is None``, bound by an
  enclosing declaration) and fresh unification variables (``uid`` set, minted
  per call site). Only fresh variables may be bound during unification.
"""

from __future__ import annotations

import itertools
from collections import abc

from .slots import Slotted


class Type(Slotted):
    """A type; equal and hashed by value. Types are never changed once built."""

    __slots__ = ()


class Prim(Type):
    __slots__ = ("name",)
    _key = __slots__

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


class Tuple(Type):
    __slots__ = ("items",)
    _key = __slots__

    def __init__(self, items: tuple[Type, ...]) -> None:
        if len(items) == 1:
            raise ValueError("a one-item tuple type is its item; use tuple_of")
        self.items = items


def tuple_of(items: abc.Iterable[Type]) -> Type:
    """The tuple type of ``items``: the item itself when there is one."""
    items = tuple(items)
    return items[0] if len(items) == 1 else Tuple(items)


UNIT = Tuple(())


class Array(Type):
    __slots__ = ("element",)
    _key = __slots__


class Callable(Type):
    __slots__ = ("operation", "input", "output", "variants")
    _defaults = {"variants": frozenset()}  # a subset of {"Adjoint", "Controlled"}
    _key = __slots__


class Udt(Type):
    """A named type; its identity is its fully qualified name, not its base."""

    __slots__ = ("name", "base")
    _key = ("name",)

    def __repr__(self) -> str:
        return self.name.rsplit(".", 1)[-1]


class Param(Type):
    # name includes the leading backtick; uid None = rigid declaration parameter
    __slots__ = ("name", "uid")
    _defaults = {"uid": None}
    _key = __slots__


_uid_counter = itertools.count(1)


def fresh_param(name: str) -> Param:
    return Param(name, next(_uid_counter))


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


class ArityError(UnifyError):
    """Two tuple types with different numbers of items."""


def _is_var(t: Type) -> bool:
    return isinstance(t, Param) and t.uid is not None


def _resolve(t: Type, bindings: Bindings) -> Type:
    while _is_var(t):
        key = (t.name, t.uid)  # type: ignore[union-attr]
        if key not in bindings:
            return t
        t = bindings[key]
    return t


def _bind(var: Param, t: Type, bindings: Bindings) -> None:
    if var in params(substitute(t, bindings)):
        raise UnifyError(var, t, "occurs check failed")
    bindings[(var.name, var.uid)] = t


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
            raise ArityError(spec, actual, "tuple arity differs")
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


# ── Type parameters ──────────────────────────────────────────────────────────


def _map_params(t: Type, leaf: abc.Callable[[Param], Type]) -> Type:
    """``t`` with each ``Param`` in it replaced by ``leaf(param)``."""
    if isinstance(t, Param):
        return leaf(t)
    if isinstance(t, Tuple):
        return Tuple(tuple(_map_params(i, leaf) for i in t.items))
    if isinstance(t, Array):
        return Array(_map_params(t.element, leaf))
    if isinstance(t, Callable):
        return Callable(
            t.operation,
            _map_params(t.input, leaf),
            _map_params(t.output, leaf),
            t.variants,
        )
    return t


def params(t: Type) -> abc.Iterator[Param]:
    """Every ``Param`` in ``t``, left to right."""
    if isinstance(t, Param):
        yield t
    elif isinstance(t, Tuple):
        for i in t.items:
            yield from params(i)
    elif isinstance(t, Array):
        yield from params(t.element)
    elif isinstance(t, Callable):
        yield from params(t.input)
        yield from params(t.output)


def substitute(t: Type, bindings: Bindings) -> Type:
    """Replace each bound variable in ``t`` with its binding, transitively."""

    def leaf(p: Param) -> Type:
        bound = bindings.get((p.name, p.uid))  # type: ignore[arg-type]
        return p if bound is None else substitute(bound, bindings)

    return _map_params(t, leaf)


def contains_var(t: Type) -> bool:
    return any(p.uid is not None for p in params(t))


def instantiate(t: Type, mapping: dict[str, Param]) -> Type:
    """Replace rigid parameters named in ``mapping`` with fresh variables."""
    return _map_params(t, lambda p: mapping.get(p.name, p) if p.uid is None else p)


ADJOINT = "Adjoint"
CONTROLLED = "Controlled"
BOTH_VARIANTS = frozenset({ADJOINT, CONTROLLED})
