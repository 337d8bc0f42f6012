"""The benchmark's own in-memory span recorder.

Spans wrap the calls the benchmark makes *into* each layer; spans inside
``src/repro`` are a later issue.  Everything stays in memory until the run
ends and the result file is written.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = -1.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans of one run; all share the run's ``trace_id``."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, parent,
                 time.perf_counter() - self._origin)
        self.spans.append(s)
        self._stack.append(s.span_id)
        try:
            yield s
        finally:
            s.end = time.perf_counter() - self._origin
            self._stack.pop()

    def to_json(self) -> Dict[str, Any]:
        selfs = self_times(self.spans)
        return {"trace_id": self.trace_id,
                "spans": [{"id": s.span_id, "name": s.name,
                           "parent": s.parent, "start": s.start,
                           "end": s.end, "self": selfs[s.span_id]}
                          for s in self.spans]}


def self_times(spans: List[Span]) -> Dict[int, float]:
    """A span's duration minus the time its direct children cover."""
    out = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def tree_problems(doc: Dict[str, Any]) -> List[str]:
    """Violations of the span-tree contract in a :meth:`to_json` document:
    one root, known parents, children inside parents, self time ≥ 0."""
    spans = {s["id"]: s for s in doc["spans"]}
    problems = []
    if sum(s["parent"] is None for s in spans.values()) != 1:
        problems.append("expected exactly one root span")
    for s in spans.values():
        if s["end"] < s["start"]:
            problems.append(f"{s['name']}: ends before it starts")
        if s["self"] < -1e-9:
            problems.append(f"{s['name']}: negative self time {s['self']}")
        if s["parent"] is None:
            continue
        p = spans.get(s["parent"])
        if p is None:
            problems.append(f"{s['name']}: unknown parent {s['parent']}")
        elif s["start"] < p["start"] or s["end"] > p["end"]:
            problems.append(f"{s['name']}: not inside parent {p['name']}")
    return problems
