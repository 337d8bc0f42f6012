"""Hierarchical span profiler (`SolverConfig(profiler=...)`) — the
solver's one recorder of what ran when.

Design goals:

* **One seam, near-zero cost when absent.**  Every profiled region is
  ``with span(prof, name, ...) as late:``; with the default
  ``SolverConfig.profiler=None`` that is one shared null context.  The
  telemetry-guard lint rule keeps ``.start(`` / ``.end(`` in here.
* **One thread, one tree.**  A solver and the profiler attached to it
  belong to the one thread that runs them.  Spans carry trace-id /
  span-id / parent-id; a span's parent is the innermost span open when it
  started (one context stack), so every span is contained in its parent.
  The engine's fan-in tasks are plain ``task`` spans under the
  ``factorize`` phase.
* **Self-contained artifacts.**  `to_json()` writes a plain span
  document; :mod:`repro.analysis.profile` rolls it up per phase, kernel
  and level, and :func:`repro.analysis.charts.gantt_chart` draws its
  task spans.

Layering on the telemetry store: ``SpanProfiler(telemetry=tele)`` takes
the store's clock origin, so the spans and the telemetry series of one
run share one time axis.
"""

from __future__ import annotations

import json
import time
import uuid
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    ContextManager,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.telemetry import Telemetry

_EPS = 1e-9


@dataclass
class Span:
    """One closed (or still-open, ``t1 < 0``) span."""

    name: str
    span_id: int
    parent_id: Optional[int]
    t0: float
    t1: float = -1.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": dict(self.attrs),
        }


class SpanProfiler:
    """Hierarchical span recorder of one thread's solver run.

    A single implicit **root span** (``"run"``) is opened at construction
    and closed by :meth:`finish` (idempotent; `events()`/`to_json()` call
    it) — every trace therefore has exactly one root, which the
    invariant checker asserts.
    """

    ROOT_NAME = "run"

    def __init__(self, telemetry: Optional["Telemetry"] = None,
                 trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id if trace_id is not None else uuid.uuid4().hex
        self._origin = (time.perf_counter() if telemetry is None
                        else telemetry.origin)
        self._spans: Dict[int, Span] = {}
        self._next_id = 1
        #: ids of the open spans, innermost last
        self._stack: List[int] = []
        self._root_id = self._new_span(self.ROOT_NAME, None, {})

    def clock(self) -> float:
        """Seconds since this profiler's origin (perf_counter based)."""
        return time.perf_counter() - self._origin

    # -- span lifecycle -------------------------------------------------

    def _new_span(self, name: str, parent: Optional[int],
                  attrs: Dict[str, Any]) -> int:
        sid = self._next_id
        self._next_id += 1
        self._spans[sid] = Span(name, sid, parent, self.clock(), attrs=attrs)
        return sid

    def start(self, name: str, **attrs: Any) -> int:
        """Open a span under the innermost open one (the root when none
        is) and push it on the context stack."""
        stack = self._stack
        sid = self._new_span(name, stack[-1] if stack else self._root_id,
                             attrs)
        stack.append(sid)
        return sid

    def end(self, span_id: Optional[int], **attrs: Any) -> None:
        """Close a span (no-op on ``None``), merging late attributes."""
        if span_id is None:
            return
        t1 = self.clock()
        stack = self._stack
        if stack and stack[-1] == span_id:
            stack.pop()
        elif span_id in stack:  # pragma: no cover - defensive
            stack.remove(span_id)
        span = self._spans.get(span_id)
        if span is None:  # pragma: no cover - defensive
            return
        span.t1 = t1
        span.attrs.update(attrs)

    def span(self, name: str, **attrs: Any
             ) -> ContextManager[Dict[str, Any]]:
        """:func:`span` on this profiler."""
        return span(self, name, **attrs)

    def current(self) -> Optional[int]:
        """The innermost open span id (``None`` outside any)."""
        return self._stack[-1] if self._stack else None

    # -- export and inspection -----------------------------------------

    def finish(self) -> None:
        """Close the root span (idempotent); open spans keep ``t1 < 0``."""
        root = self._spans[self._root_id]
        if root.t1 < 0.0:
            root.t1 = self.clock()

    @property
    def root_id(self) -> int:
        return self._root_id

    def events(self) -> List[Span]:
        """All spans, root first then sorted by ``(t0, span_id)``."""
        self.finish()
        spans = list(self._spans.values())
        spans.sort(key=lambda s: (s.parent_id is not None, s.t0, s.span_id))
        return spans

    def check_invariants(self) -> List[str]:
        """Violation strings for the span-tree contract (empty = healthy).

        * exactly one root (``parent_id is None``);
        * no orphan parents — every ``parent_id`` names a recorded span;
        * every non-root span is closed, with ``t1 >= t0``;
        * every span is temporally contained in its parent.
        """
        spans = self.events()
        by_id = {s.span_id: s for s in spans}
        problems: List[str] = []
        roots = [s for s in spans if s.parent_id is None]
        if len(roots) != 1:
            problems.append(f"expected exactly 1 root span, got {len(roots)}")
        for s in spans:
            if s.t1 < 0.0:
                problems.append(f"span {s.span_id} ({s.name}) never ended")
                continue
            if s.t1 < s.t0 - _EPS:
                problems.append(f"span {s.span_id} ({s.name}) ends before "
                                f"it starts")
            if s.parent_id is None:
                continue
            parent = by_id.get(s.parent_id)
            if parent is None:
                problems.append(f"span {s.span_id} ({s.name}) has orphan "
                                f"parent {s.parent_id}")
                continue
            if s.t0 < parent.t0 - _EPS:
                problems.append(
                    f"span {s.span_id} ({s.name}) starts before its "
                    f"parent {parent.span_id} ({parent.name})")
            if parent.t1 >= 0.0 and s.t1 > parent.t1 + _EPS:
                problems.append(
                    f"span {s.span_id} ({s.name}) ends after its "
                    f"parent {parent.span_id} ({parent.name})")
        return problems

    def to_json(self, path: Optional[Union[str, Path]] = None
                ) -> Dict[str, Any]:
        """Version-1 span document ``{version, trace_id, spans}``."""
        doc = {
            "version": 1,
            "trace_id": self.trace_id,
            "spans": [s.to_dict() for s in self.events()],
        }
        if path is not None:
            Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))
        return doc


class _Discard(Dict[str, Any]):
    """The late attributes of every unprofiled region: writes vanish."""

    def __setitem__(self, key: str, value: Any) -> None:
        pass


#: what every region opens when no profiler is attached
_DISABLED: ContextManager[Dict[str, Any]] = nullcontext(_Discard())


class _OpenSpan:
    """An open span: ``with`` yields its late attributes, and the exit,
    exceptions included, closes the span with them."""

    __slots__ = ("_prof", "_sid", "_late")

    def __init__(self, prof: SpanProfiler, sid: int) -> None:
        self._prof, self._sid = prof, sid
        self._late: Dict[str, Any] = {}

    def __enter__(self) -> Dict[str, Any]:
        return self._late

    def __exit__(self, *exc: Any) -> None:
        self._prof.end(self._sid, **self._late)


def span(prof: Optional[SpanProfiler], name: str,
         **attrs: Any) -> ContextManager[Dict[str, Any]]:
    """``with span(prof, name, **attrs) as late:`` — the one way a
    profiled region opens, as a child of the innermost open span.
    ``late[key] = value`` adds an attribute at close; set them last, so a
    region that raises closes without them."""
    if prof is None:
        return _DISABLED
    return _OpenSpan(prof, prof.start(name, **attrs))


def canonical_tree(spans: Sequence[Union[Span, Mapping[str, Any]]]
                   ) -> Any:
    """Timestamp-independent shape of a span forest.

    Each span maps to ``[name, sorted-attrs, sorted-children]``; children
    are ordered by their serialized form, so two runs with the same tree
    and attributes canonicalize identically — the equality pinned span
    trees are tested against.
    """
    norm: List[Dict[str, Any]] = []
    for s in spans:
        if isinstance(s, Span):
            norm.append(s.to_dict())
        else:
            norm.append(dict(s))
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    for raw in norm:
        children.setdefault(raw["parent_id"], []).append(raw)

    def render(raw: Dict[str, Any]) -> Any:
        kids = [render(c) for c in children.get(raw["span_id"], [])]
        kids.sort(key=lambda node: json.dumps(node, sort_keys=True))
        attrs = dict(raw.get("attrs", {}))
        return [raw["name"], sorted(attrs.items()), kids]

    roots = [render(raw) for raw in children.get(None, [])]
    roots.sort(key=lambda node: json.dumps(node, sort_keys=True))
    return roots
