"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent, pass id). Spans are opened around
the benchmark's own calls into the package, kept in a list and written
out by the caller when the run ends. Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; `enabled=False` makes every span a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pass_id = "setup"

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        sp = Span(sid, name, time.perf_counter(), float("nan"), parent, self.pass_id)
        self.spans.append(sp)
        self._stack.append(sid)
        try:
            yield
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_times(self, spans: list[Span]) -> dict[int, float]:
        """Duration of each span minus the union of its children's intervals.

        Children of one parent never overlap (spans nest on one thread), so
        the union is the sum of their durations.
        """
        child = {s.sid: 0.0 for s in spans}
        for s in spans:
            if s.parent is not None and s.parent in child:
                child[s.parent] += s.duration
        return {s.sid: s.duration - child[s.sid] for s in spans}

    def to_records(self) -> list[dict]:
        return [
            {
                "id": s.sid,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "pass": s.pass_id,
            }
            for s in self.spans
        ]
