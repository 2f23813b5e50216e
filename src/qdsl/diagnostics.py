"""Diagnostics: stable error codes, severities, and rendering.

Every rejection the toolchain can produce carries one of the codes below.
The codes are part of the public contract: test corpora and downstream
tooling match on them, so changing a string is a breaking change.
"""

from __future__ import annotations

from enum import Enum

from .slots import Slotted
from .source import SourceFile, Span


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


# ── Error code registry ──────────────────────────────────────────────────────

# Lexer
ILLEGAL_CHARACTER = "illegal-character"
UNTERMINATED_STRING = "unterminated-string"

# Parser
UNEXPECTED_TOKEN = "unexpected-token"
STRAY_STATEMENT = "stray-statement"
MISSING_SPECIALIZATION_BODY = "missing-specialization-body"
DUPLICATE_SPECIALIZATION = "duplicate-specialization"
BAD_RANGE = "bad-range"
NUMBER_OUT_OF_RANGE = "number-out-of-range"

# Name resolution / declarations
NAME_NOT_FOUND = "name-not-found"
AMBIGUOUS_NAME = "ambiguous-name"
DUPLICATE_DEFINITION = "duplicate-definition"
DUPLICATE_BINDING = "duplicate-binding"
UNDEFINED_TYPE = "undefined-type"
UDT_RECURSION = "udt-recursion"
UNKNOWN_NAMESPACE = "unknown-namespace"

# Type checking
TYPE_MISMATCH = "type-mismatch"
NOT_CALLABLE = "not-callable"
CALL_SHAPE_MISMATCH = "call-shape-mismatch"
PARTIAL_SHAPE_MISMATCH = "partial-shape-mismatch"
MISSING_VARIANT = "missing-variant"
FUNCTION_CALLS_OPERATION = "function-calls-operation"
FUNCTION_ALLOCATES = "function-allocates"
SET_IMMUTABLE = "set-immutable"
SET_TYPE_CHANGE = "set-type-change"
RETURN_IN_ALLOCATION = "return-in-allocation"
MISSING_RETURN = "missing-return"
UNRESOLVED_TYPE_PARAM = "unresolved-type-param"
EMPTY_ARRAY_TYPE = "empty-array-type"
PATTERN_MISMATCH = "pattern-mismatch"
SPECIALIZATION_MISMATCH = "specialization-mismatch"
HOLE_OUTSIDE_CALL = "hole-outside-call"

# Specialization generation
ADJOINT_INELIGIBLE = "adjoint-ineligible"
CONTROLLED_INELIGIBLE = "controlled-ineligible"

# Any front-end pass: nesting past Python's recursion limit
NESTING_TOO_DEEP = "nesting-too-deep"

ALL_CODES = frozenset(
    v
    for k, v in list(globals().items())
    if k.isupper() and isinstance(v, str) and "-" in v
)


class Diagnostic(Slotted):
    """One finding in one file; equal by every field."""

    __slots__ = ("severity", "code", "message", "span", "file")
    _defaults = {"file": "<input>"}
    _key = __slots__

    def _position(self, source: SourceFile | None) -> tuple[int, int]:
        """(line, column) of the span's start in ``source``, or (0, 0) when
        ``source`` is not this diagnostic's file."""
        if source is not None and source.name == self.file:
            return source.position(self.span.start)
        return 0, 0

    def render(self, source: SourceFile | None = None) -> str:
        """One-line rendering: file:line:col: severity: message [code]."""
        line, col = self._position(source)
        return (
            f"{self.file}:{line}:{col}: {self.severity.value}: "
            f"{self.message} [{self.code}]"
        )

    def to_json(self, source: SourceFile | None = None) -> dict:
        line, col = self._position(source)
        return {
            "file": self.file,
            "line": line,
            "col": col,
            "start": self.span.start,
            "end": self.span.end,
            "severity": self.severity.value,
            "code": self.code,
            "message": self.message,
        }


def error(code: str, message: str, span: Span, file: str = "<input>") -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, span, file)
