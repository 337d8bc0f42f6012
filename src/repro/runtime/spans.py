"""Hierarchical causal span profiler (`SolverConfig(profiler=...)`) — the
solver's one recorder of which thread ran what when.

Design goals:

* **One seam, near-zero cost when absent.**  Every profiled region is
  ``with span(prof, name, ...) as late:`` (:func:`task_span` resolves a
  causal parent first); with the
  default ``SolverConfig.profiler=None`` that is one shared null context.
  The telemetry-guard lint rule keeps ``.start(`` / ``.end(`` in here.
* **Causal, not merely temporal.**  Spans carry trace-id / span-id /
  parent-id.  Synchronous children (`link="child"`) nest through a
  per-thread context stack; task hand-offs produce
  `link="follows"` edges whose parent is the *dependency* that released
  the task — the greatest contributor in the pull-mode fan-in order —
  so the tree records the task DAG, not the order the engine happened
  to run it in.
* **Self-contained artifacts.**  `to_json()` round-trips through
  :meth:`SpanProfiler.from_json`; :mod:`repro.analysis.profile` rolls the
  same document up per phase and into the per-thread task summary (busy
  time, utilisation, critical path) behind the Gantt chart.

Layering on the telemetry store: construct with
``SpanProfiler(telemetry=tele)`` and every *phase* span (direct child of
the root) is also emitted as a structured ``span`` event into its event
log, so ``tele.events()`` shows the phase boundaries.
"""

from __future__ import annotations

import json
import threading
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

#: synchronous child span, temporally contained in its parent
LINK_CHILD = "child"
#: causal hand-off edge: the child starts after the parent *started*
#: (typically after it ended) — a scheduler task released by a dependency
LINK_FOLLOWS = "follows"

_EPS = 1e-9


@dataclass
class Span:
    """One closed (or still-open, ``t1 < 0``) span."""

    name: str
    span_id: int
    parent_id: Optional[int]
    thread: int
    t0: float
    t1: float = -1.0
    link: str = LINK_CHILD
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(self.t1 - self.t0, 0.0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": self.thread,
            "t0": self.t0,
            "t1": self.t1,
            "link": self.link,
            "attrs": dict(self.attrs),
        }


class SpanProfiler:
    """Thread-safe hierarchical span recorder with causal hand-offs.

    A single implicit **root span** (``"run"``) is opened at construction
    and closed by :meth:`finish` (idempotent; `events()`/`to_json()` call
    it) — every trace therefore has exactly one root, which the
    invariant checker asserts.
    """

    ROOT_NAME = "run"

    def __init__(self, telemetry: Optional["Telemetry"] = None,
                 trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id if trace_id is not None else uuid.uuid4().hex
        self.meta: Dict[str, Any] = {}
        self._telemetry = telemetry
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: Dict[int, Span] = {}
        self._next_id = 1
        self._tls = threading.local()
        self._threads: Dict[int, int] = {}
        # per-engine-run task registry: cblk -> span id, plus the phase
        # span task spans attach to when they have no contributors
        self._task_spans: Dict[int, int] = {}
        self._task_root: Optional[int] = None
        self._task_levels: Optional[List[int]] = None
        self._root_id = self._new_span(self.ROOT_NAME, parent=None,
                                       link=LINK_CHILD, attrs={})

    # -- clocks and per-thread state -----------------------------------

    def clock(self) -> float:
        """Seconds since this profiler's origin (perf_counter based)."""
        return time.perf_counter() - self._origin

    def _thread_slot(self) -> int:
        slot = getattr(self._tls, "slot", None)
        if slot is None:
            with self._lock:
                slot = self._threads.setdefault(threading.get_ident(),
                                                len(self._threads))
            self._tls.slot = slot
        return int(slot)

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    # -- span lifecycle -------------------------------------------------

    def _new_span(self, name: str, parent: Optional[int], link: str,
                  attrs: Dict[str, Any]) -> int:
        t0 = self.clock()
        thread = self._thread_slot()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            self._spans[sid] = Span(name, sid, parent, thread, t0,
                                    link=link, attrs=attrs)
        return sid

    def start(self, name: str, parent: Optional[int] = None,
              link: str = LINK_CHILD, **attrs: Any) -> int:
        """Open a span and push it on this thread's context stack.

        Without an explicit ``parent`` the span attaches to the thread's
        current span, falling back to the root — that is the context-stack
        propagation rule.  Pass ``parent`` (and ``link=LINK_FOLLOWS``) for
        causal cross-thread edges.
        """
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self._root_id
        sid = self._new_span(name, parent, link, dict(attrs))
        stack.append(sid)
        return sid

    def end(self, span_id: Optional[int], **attrs: Any) -> None:
        """Close a span (no-op on ``None``), merging late attributes."""
        if span_id is None:
            return
        t1 = self.clock()
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        elif span_id in stack:  # pragma: no cover - defensive
            stack.remove(span_id)
        with self._lock:
            span = self._spans.get(span_id)
            if span is None:  # pragma: no cover - defensive
                return
            span.t1 = t1
            span.attrs.update(attrs)
            # phase spans (children of the root) mirror into telemetry
            payload = (dict(span.attrs) if span.parent_id == self._root_id
                       else None)
            name, dur = span.name, span.duration
        tele = self._telemetry
        if tele is not None and payload is not None:
            tele.emit("span", name=name, duration_s=dur, **payload)

    def span(self, name: str, parent: Optional[int] = None,
             link: str = LINK_CHILD, **attrs: Any
             ) -> ContextManager[Dict[str, Any]]:
        """:func:`span` on this profiler."""
        return span(self, name, parent, link, **attrs)

    def current(self) -> Optional[int]:
        """This thread's innermost open span id (``None`` outside any)."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- task hand-off support ------------------------------------

    def begin_tasks(self, levels: Optional[Sequence[int]] = None) -> None:
        """Arm a fresh task registry for one engine run.

        Must be called from the thread holding the enclosing phase span
        (the engine calls it before the first task): contributor-less
        tasks attach to that span as plain children.  ``levels`` is the
        per-cblk elimination-tree depth used for the ``level`` attribute.
        """
        current = self.current()
        with self._lock:
            self._task_spans = {}
            self._task_root = current
            self._task_levels = list(levels) if levels is not None else None

    def task_start(self, cblk: int, contributors: Sequence[int]) -> int:
        """Open the causal span for the fan-in task on ``cblk``.

        The parent is the span of the **canonical releaser** — the
        greatest contributor, i.e. the dependency whose updates are
        pulled last in the ascending fan-in order — which makes the
        recorded tree independent of the order the tasks ran in.  A task only runs once all its
        contributors have, so that span is always registered; a task with
        no registered contributor span attaches to the enclosing phase
        span.
        """
        parent: Optional[int] = None
        link = LINK_CHILD
        with self._lock:
            if contributors:
                parent = self._task_spans.get(max(contributors))
                link = LINK_FOLLOWS
            if parent is None:
                parent = self._task_root
                link = LINK_CHILD
            levels = self._task_levels
        attrs: Dict[str, Any] = {"cblk": cblk}
        if levels is not None and 0 <= cblk < len(levels):
            attrs["level"] = levels[cblk]
        sid = self.start("task", parent=parent, link=link, **attrs)
        with self._lock:
            self._task_spans[cblk] = sid
        return sid

    # -- export and inspection -----------------------------------------

    def finish(self) -> None:
        """Close the root span (idempotent); open spans keep ``t1 < 0``."""
        with self._lock:
            root = self._spans[self._root_id]
            if root.t1 < 0.0:
                root.t1 = self.clock()

    @property
    def root_id(self) -> int:
        return self._root_id

    def events(self) -> List[Span]:
        """All spans, root first then sorted by ``(t0, span_id)``."""
        self.finish()
        with self._lock:
            spans = list(self._spans.values())
        spans.sort(key=lambda s: (s.parent_id is not None, s.t0, s.span_id))
        return spans

    def check_invariants(self) -> List[str]:
        """Violation strings for the span-tree contract (empty = healthy).

        * exactly one root (``parent_id is None``);
        * no orphan parents — every ``parent_id`` names a recorded span;
        * every non-root span is closed, with ``t1 >= t0``;
        * ``child``-linked spans are temporally contained in their
          parent; ``follows``-linked spans start no earlier than their
          parent started.
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
            if s.link == LINK_CHILD and parent.t1 >= 0.0 \
                    and s.t1 > parent.t1 + _EPS:
                problems.append(
                    f"child span {s.span_id} ({s.name}) ends after its "
                    f"parent {parent.span_id} ({parent.name})")
        return problems

    def to_json(self, path: Optional[Union[str, Path]] = None
                ) -> Dict[str, Any]:
        """Version-1 span document ``{version, trace_id, meta, spans}``."""
        doc = {
            "version": 1,
            "trace_id": self.trace_id,
            "meta": dict(self.meta),
            "spans": [s.to_dict() for s in self.events()],
        }
        if path is not None:
            Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))
        return doc

    @staticmethod
    def from_json(source: Union[str, Path, Mapping[str, Any]]
                  ) -> "SpanProfiler":
        """Rebuild a profiler (spans + meta) from :meth:`to_json` output."""
        doc: Mapping[str, Any]
        if isinstance(source, (str, Path)):
            doc = json.loads(Path(source).read_text())
        else:
            doc = source
        if doc.get("version") != 1:
            raise ValueError(
                f"unsupported span document version {doc.get('version')!r}")
        prof = SpanProfiler(trace_id=str(doc.get("trace_id", "")))
        prof.meta.update(doc.get("meta", {}))
        spans: Dict[int, Span] = {}
        root_id: Optional[int] = None
        for raw in doc["spans"]:
            span = Span(
                name=str(raw["name"]),
                span_id=int(raw["span_id"]),
                parent_id=(None if raw["parent_id"] is None
                           else int(raw["parent_id"])),
                thread=int(raw["thread"]),
                t0=float(raw["t0"]),
                t1=float(raw["t1"]),
                link=str(raw.get("link", LINK_CHILD)),
                attrs=dict(raw.get("attrs", {})),
            )
            spans[span.span_id] = span
            if span.parent_id is None and root_id is None:
                root_id = span.span_id
        with prof._lock:
            prof._spans = spans
            prof._next_id = (max(spans) + 1) if spans else 1
            if root_id is not None:
                prof._root_id = root_id
        return prof


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
         parent: Optional[int] = None, link: str = LINK_CHILD,
         **attrs: Any) -> ContextManager[Dict[str, Any]]:
    """``with span(prof, name, **attrs) as late:`` — the one way a
    profiled region opens (:meth:`SpanProfiler.start` has the parent
    rule).  ``late[key] = value`` adds an attribute at close; set them
    last, so a region that raises closes without them."""
    if prof is None:
        return _DISABLED
    return _OpenSpan(prof, prof.start(name, parent, link, **attrs))


def task_span(prof: Optional[SpanProfiler], cblk: int,
              contributors: Sequence[int]) -> ContextManager[Dict[str, Any]]:
    """:func:`span` of the fan-in task on ``cblk``
    (:meth:`SpanProfiler.task_start` picks its parent)."""
    if prof is None:
        return _DISABLED
    return _OpenSpan(prof, prof.task_start(cblk, contributors))


def canonical_tree(spans: Sequence[Union[Span, Mapping[str, Any]]]
                   ) -> Any:
    """Timestamp- and thread-independent shape of a span forest.

    Each span maps to ``[name, link, sorted-attrs, sorted-children]``;
    children are ordered by their serialized form, so two runs with the
    same causal edges and attributes — no matter the interleaving —
    canonicalize identically — the equality pinned span trees are
    tested against.
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
        return [raw["name"], raw.get("link", LINK_CHILD),
                sorted(attrs.items()), kids]

    roots = [render(raw) for raw in children.get(None, [])]
    roots.sort(key=lambda node: json.dumps(node, sort_keys=True))
    return roots
