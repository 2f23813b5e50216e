"""Source text bookkeeping: spans, line/column mapping, source files."""

from __future__ import annotations

import bisect
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Span:
    """Half-open byte range [start, end) into one source file."""

    start: int
    end: int

    def union(self, other: Span) -> Span:
        return Span(min(self.start, other.start), max(self.end, other.end))


class SourceFile:
    """One compilation unit: a name plus its full text.

    Computes line/column positions lazily; columns are 1-based and count
    characters, lines are 1-based.
    """

    def __init__(self, name: str, text: str) -> None:
        self.name = name
        self.text = text
        self._line_starts: list[int] | None = None

    def _starts(self) -> list[int]:
        if self._line_starts is None:
            starts = [0]
            for i, ch in enumerate(self.text):
                if ch == "\n":
                    starts.append(i + 1)
            self._line_starts = starts
        return self._line_starts

    def position(self, offset: int) -> tuple[int, int]:
        """Return (line, column), both 1-based, for a byte offset."""
        starts = self._starts()
        offset = max(0, min(offset, len(self.text)))
        line = bisect.bisect_right(starts, offset) - 1
        return line + 1, offset - starts[line] + 1
