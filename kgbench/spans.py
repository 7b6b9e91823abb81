"""In-memory spans recorded by the benchmark around calls into the engine.

A span has a name, start, end, parent and trace id. Spans stay in
memory and are written as JSON once, at the end of a traced run. A
span's self time is its duration minus the part of its interval that
its children cover (overlapping children are counted once).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trace_id: str
    start: float
    end: float | None = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Tracer:
    def __init__(self, trace_id: str, clock=time.perf_counter) -> None:
        self.trace_id = trace_id
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, parent, self.trace_id, self.clock())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._stack.pop()

    def children(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent == span_id]

    def self_time(self, span: Span) -> float:
        return self_time(
            (span.start, span.end),
            [(c.start, c.end) for c in self.children(span.id)],
        )

    def total(self, name: str, self_only: bool = False) -> float:
        """Summed duration (or self time) of every span called ``name``."""
        return sum(
            self.self_time(s) if self_only else s.duration
            for s in self.spans if s.name == name
        )

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                [
                    {**asdict(s), "self_s": self.self_time(s)}
                    for s in self.spans
                ],
                f,
                indent=1,
            )


def self_time(
    interval: tuple[float, float], children: list[tuple[float, float]]
) -> float:
    """``interval`` length minus the union of ``children`` clipped to it."""
    lo, hi = interval
    covered, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in children):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (hi - lo) - covered
