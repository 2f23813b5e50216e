"""Runtime value representations.

Values map onto plain Python data wherever possible: Int is a Python int
(wrapped to 64 bits by the arithmetic helpers), Double a float, String a str,
tuples and arrays are Python tuples and lists. The unit value is the empty
tuple. Newtype values are represented transparently by their base value; the
checker enforces the distinction statically, so no wrapper is needed at
runtime.

Callable values are closures: a base symbol plus a stack of wrappers recording
functor applications and partial applications, outermost first. Invoking a
closure peels the wrappers in order, accumulating control registers and an
adjoint parity, then dispatches the base symbol. Applying Adjoint twice
cancels structurally.
"""

from __future__ import annotations

import enum
from typing import Any, Iterator, Optional

from .slots import Slotted
from .source import Span

_MASK64 = (1 << 64) - 1


def wrap64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    value &= _MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


class QdslFailure(Exception):
    """A program failure, raised with its message alone. It takes the span of the
    innermost emitted line it leaves, and the file of that line's body."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message
        self.span: Optional[Span] = None
        self.file = ""


class Result(enum.Enum):
    Zero = 0
    One = 1


class Pauli(enum.Enum):
    I = "PauliI"
    X = "PauliX"
    Y = "PauliY"
    Z = "PauliZ"


class QubitRef(Slotted):
    """A qubit by its id, equal only to itself: a reference kept past its qubit's
    release differs from the live one that reuses its id."""

    __slots__ = ("id",)

    def __repr__(self) -> str:
        return f"q{self.id}"


class RangeValue(Slotted):
    """``start..step..end``, both ends included. Its values and its reversal
    (an empty range swaps its ends) come from one Python range."""

    __slots__ = ("start", "step", "end")

    def _range(self) -> range:
        return range(self.start, self.end + (1 if self.step > 0 else -1), self.step)

    def __iter__(self):
        return iter(self._range())

    def reversed(self) -> "RangeValue":
        values = self._range()
        return RangeValue(values[-1] if values else self.end, -self.step, self.start)


UNIT: tuple = ()


# Partial-application shapes: ("hole",) | ("given", value) | ("tuple", [shapes]).
# The runtime builds a "tuple" shape only around a hole, so every shape but a
# "given" one holds a hole.
Shape = tuple


def fill_shape(shape: Shape, supply: Any) -> Any:
    """Rebuild the full argument from a partial shape and the missing parts.

    The supply follows the same singleton-collapsing convention as the type
    checker: a shape with exactly one hole-bearing child receives the whole
    supplied value; with several, the supplied value is a tuple distributed
    positionally among them.
    """
    kind = shape[0]
    if kind == "given":
        return shape[1]
    if kind == "hole":
        return supply
    children = shape[1]
    holey = [i for i, c in enumerate(children) if c[0] != "given"]
    supplies: dict[int, Any] = {}
    if len(holey) == 1:
        supplies[holey[0]] = supply
    else:
        for offset, index in enumerate(holey):
            supplies[index] = supply[offset]
    return tuple(
        fill_shape(c, supplies.get(i)) for i, c in enumerate(children)
    )


ADJOINT_WRAPPER = ("adjoint",)
CONTROLLED_WRAPPER = ("controlled",)


class Closure(Slotted):
    __slots__ = ("base", "wrappers")  # base: a CallableSymbol or UdtSymbol
    _defaults = {"wrappers": ()}

    def adjoint(self) -> "Closure":
        if self.wrappers and self.wrappers[0] == ADJOINT_WRAPPER:
            return Closure(self.base, self.wrappers[1:])
        return Closure(self.base, (ADJOINT_WRAPPER,) + self.wrappers)

    def controlled(self) -> "Closure":
        return Closure(self.base, (CONTROLLED_WRAPPER,) + self.wrappers)

    def partial(self, shape: Shape) -> "Closure":
        return Closure(self.base, (("partial", shape),) + self.wrappers)

    def describe(self) -> str:
        name = getattr(self.base, "qualified", str(self.base))
        prefix = ""
        for w in self.wrappers:
            if w[0] == "adjoint":
                prefix += "Adjoint "
            elif w[0] == "controlled":
                prefix += "Controlled "
        kind = "operation" if getattr(self.base, "is_operation", False) else "function"
        return f"<{kind} {prefix}{name}>"


def render_value(value: Any) -> str:
    """Canonical textual form of a value, used by interpolation and output."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, Result):
        return value.name
    if isinstance(value, Pauli):
        return value.value
    if isinstance(value, QubitRef):
        return repr(value)
    if isinstance(value, RangeValue):
        return f"{value.start}..{value.step}..{value.end}"
    if isinstance(value, (list, tuple)):
        return "".join(render_pieces(value))
    if isinstance(value, Closure):
        return value.describe()
    return str(value)


def render_pieces(value: Any) -> Iterator[str]:
    """`render_value`'s text in pieces, so a caller can stop before later items."""
    if not isinstance(value, (list, tuple)):
        yield render_value(value)
        return
    opening, separator, closing = ("[", "; ", "]") if isinstance(value, list) else ("(", ", ", ")")
    yield opening
    for i, item in enumerate(value):
        if i:
            yield separator
        yield from render_pieces(item)
    yield closing
