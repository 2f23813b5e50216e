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
from dataclasses import dataclass
from typing import Any, Optional

from .source import Span

_MASK64 = (1 << 64) - 1


def wrap64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    value &= _MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


class QdslFailure(Exception):
    """A program failure, with its source span when one is known."""

    def __init__(self, message: str, span: Optional[Span] = None, file: str = ""):
        super().__init__(message)
        self.message = message
        self.span = span
        self.file = file


class Result(enum.Enum):
    Zero = 0
    One = 1


class Pauli(enum.Enum):
    I = "PauliI"
    X = "PauliX"
    Y = "PauliY"
    Z = "PauliZ"


@dataclass(frozen=True)
class QubitRef:
    id: int

    def __repr__(self) -> str:
        return f"q{self.id}"


@dataclass(frozen=True)
class RangeValue:
    start: int
    step: int
    end: int

    def __iter__(self):
        value = self.start
        if self.step > 0:
            while value <= self.end:
                yield value
                value += self.step
        else:
            while value >= self.end:
                yield value
                value += self.step

    @property
    def is_empty(self) -> bool:
        span = self.end - self.start
        return span != 0 and (span > 0) != (self.step > 0)

    def __len__(self) -> int:
        if self.is_empty:
            return 0
        return (self.end - self.start) // self.step + 1

    def reversed(self) -> "RangeValue":
        if self.is_empty:
            return RangeValue(self.end, -self.step, self.start)
        last = self.start + (len(self) - 1) * self.step
        return RangeValue(last, -self.step, self.start)


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


@dataclass(frozen=True)
class Closure:
    base: Any  # CallableSymbol or UdtSymbol
    wrappers: tuple = ()

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
    if isinstance(value, list):
        return "[" + "; ".join(render_value(v) for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + ", ".join(render_value(v) for v in value) + ")"
    if isinstance(value, Closure):
        return value.describe()
    return str(value)
