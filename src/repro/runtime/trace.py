"""Runtime task tracing for the factorization engines.

The paper's parallel-efficiency claims (Fig. 5, Table 2) rest on the
supernodal task DAG executing well under concurrency; this module records
*which thread ran which task when* so those claims become observable instead
of assumed.  A :class:`TaskTracer` is attached to a
:class:`~repro.core.factor.NumericFactor` (``fac.tracer``) and the
factorization drivers report one event per task:

* ``kind="factor"`` — :func:`~repro.core.factorization.factor_column_block`
  on column block ``cblk`` (exactly one per column block per run);
* ``kind="update"`` — :func:`~repro.core.factorization.apply_updates_from`
  with source ``cblk`` and target ``target``.

Design constraints, in order:

1. **Zero cost when absent.**  All call sites guard with
   ``if fac.tracer is not None`` — a disabled run pays one attribute load
   and a ``None`` test per task, nothing else.
2. **No cross-thread contention when present.**  Events append to
   per-thread buffers (``threading.local``); the single shared lock is
   taken once per thread (registration), not once per event.
3. **Self-contained artifacts.**  :meth:`TaskTracer.to_json` round-trips
   through :meth:`TaskTracer.from_json`; the schema is documented in
   ``docs/observability.md``.

Timestamps are ``time.perf_counter`` offsets from the tracer's creation
(monotonic, seconds).  Thread ids are dense indices in registration order,
so a 4-thread run always shows threads 0–3 regardless of interpreter-level
thread idents.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["TraceEvent", "TaskTracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One traced task: ``[t0, t1]`` on ``thread``, acting on ``cblk``.

    ``target`` is the update's destination column block (``-1`` for factor
    tasks and for right-looking sweeps that push to all targets); ``tag``
    names the kernel flavour (factotype for factor tasks, the storage mode
    for updates).
    """

    kind: str
    cblk: int
    target: int
    tag: str
    thread: int
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class TaskTracer:
    """Low-overhead, thread-safe recorder of factorization task events."""

    def __init__(self) -> None:
        #: free-form run metadata (engine name, thread count, matrix id…)
        self.meta: Dict[str, object] = {}
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._buffers: Dict[int, List[TraceEvent]] = {}
        self._local = threading.local()

    # -- recording -----------------------------------------------------
    def clock(self) -> float:
        """Seconds since tracer creation (monotonic)."""
        return time.perf_counter() - self._origin

    def _thread_slot(self) -> Tuple[int, List[TraceEvent]]:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                tid = len(self._buffers)
                buf = self._buffers[tid] = []
            self._local.buf = buf
            self._local.tid = tid
        return self._local.tid, buf

    def record(self, kind: str, cblk: int, t0: float,
               target: int = -1, tag: str = "") -> None:
        """Record a task that started at ``t0`` (from :meth:`clock`) and
        ends now.  Called from worker threads; lock-free after the first
        event of each thread."""
        tid, buf = self._thread_slot()
        buf.append(TraceEvent(kind, cblk, target, tag, tid, t0, self.clock()))

    # -- access --------------------------------------------------------
    def events(self) -> List[TraceEvent]:
        """All events, merged across threads, sorted by start time."""
        with self._lock:
            merged = [ev for buf in self._buffers.values() for ev in buf]
        merged.sort(key=lambda ev: (ev.t0, ev.thread))
        return merged

    def nthreads(self) -> int:
        with self._lock:
            return len(self._buffers)

    def task_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for ev in self.events():
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        return counts

    # -- summaries -----------------------------------------------------
    def span(self) -> float:
        """Wall-clock from first task start to last task end."""
        evs = self.events()
        if not evs:
            return 0.0
        return max(ev.t1 for ev in evs) - min(ev.t0 for ev in evs)

    def thread_busy(self) -> Dict[int, float]:
        """Busy seconds (sum of task durations) per thread."""
        busy: Dict[int, float] = {}
        for ev in self.events():
            busy[ev.thread] = busy.get(ev.thread, 0.0) + ev.duration
        return busy

    def utilization(self) -> Dict[int, float]:
        """Busy fraction of the trace span, per thread."""
        span = self.span()
        if span <= 0.0:
            return {t: 0.0 for t in self.thread_busy()}
        return {t: b / span for t, b in self.thread_busy().items()}

    def critical_path(self) -> float:
        """Length (seconds) of the longest dependency chain in the trace.

        Edges follow the block elimination DAG as the engines execute it:
        an update ``c → k`` runs after ``factor(c)``, and ``factor(k)``
        runs after every update targeting ``k``.  A one-worker run
        executes as a single chain, so its critical path is simply the
        total busy time.
        """
        evs = self.events()
        if not evs:
            return 0.0
        if self.meta.get("threads") == 1:
            return sum(ev.duration for ev in evs)
        factor_dur: Dict[int, float] = {}
        updates_into: Dict[int, List[TraceEvent]] = {}
        for ev in evs:
            if ev.kind == "factor":
                factor_dur[ev.cblk] = factor_dur.get(ev.cblk, 0.0) \
                    + ev.duration
            elif ev.kind == "update":
                updates_into.setdefault(ev.target, []).append(ev)
        cp: Dict[int, float] = {}
        for k in sorted(factor_dur):  # contributors precede their targets
            ups = updates_into.get(k, [])
            base = max((cp.get(ev.cblk, 0.0) for ev in ups), default=0.0)
            cp[k] = base + sum(ev.duration for ev in ups) + factor_dur[k]
        return max(cp.values(), default=0.0)

    def summary(self) -> Dict[str, object]:
        """Aggregate view: thread counts, utilization, critical path."""
        evs = self.events()
        span = self.span()
        busy = self.thread_busy()
        total_busy = sum(busy.values())
        nthreads = max(len(busy), 1)
        cp = self.critical_path()
        return {
            "n_events": len(evs),
            "task_counts": self.task_counts(),
            "n_threads": len(busy),
            "span": span,
            "thread_busy": busy,
            "utilization": self.utilization(),
            "mean_utilization": (total_busy / (nthreads * span)
                                 if span > 0 else 0.0),
            "critical_path": cp,
            "parallelism": (total_busy / cp) if cp > 0 else 0.0,
            "meta": dict(self.meta),
        }

    # -- invariants ----------------------------------------------------
    def check_invariants(self, ncblk: Optional[int] = None) -> List[str]:
        """Return a list of violated trace invariants (empty = healthy).

        Checked: every event has ``t0 <= t1``; events on one thread never
        overlap; every column block is factored exactly once; with
        ``ncblk`` given, the factor-task count equals it.
        """
        problems: List[str] = []
        evs = self.events()
        per_thread: Dict[int, List[TraceEvent]] = {}
        factored: Dict[int, int] = {}
        for ev in evs:
            if ev.t1 < ev.t0:
                problems.append(f"event {ev} ends before it starts")
            per_thread.setdefault(ev.thread, []).append(ev)
            if ev.kind == "factor":
                factored[ev.cblk] = factored.get(ev.cblk, 0) + 1
        for tid, tevs in per_thread.items():
            tevs = sorted(tevs, key=lambda ev: ev.t0)
            for a, b in zip(tevs, tevs[1:]):
                if b.t0 < a.t1 - 1e-9:
                    problems.append(
                        f"thread {tid}: {a.kind}({a.cblk}) overlaps "
                        f"{b.kind}({b.cblk})")
        for k, n in factored.items():
            if n != 1:
                problems.append(f"column block {k} factored {n} times")
        if ncblk is not None:
            if sorted(factored) != list(range(ncblk)):
                problems.append(
                    f"factored {len(factored)}/{ncblk} column blocks")
        return problems

    # -- persistence ---------------------------------------------------
    def to_json(self, path: Optional[Union[str, Path]] = None) -> dict:
        """Serialize to a JSON-compatible dict; write it when ``path``."""
        doc = {
            "version": 1,
            "meta": dict(self.meta),
            "events": [asdict(ev) for ev in self.events()],
        }
        if path is not None:
            Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))
        return doc

    @classmethod
    def from_json(cls, source: Union[dict, str, Path]) -> "TaskTracer":
        """Rebuild a tracer from :meth:`to_json` output (dict or file)."""
        if not isinstance(source, dict):
            source = json.loads(Path(source).read_text())
        tracer = cls()
        tracer.meta.update(source.get("meta", {}))
        for raw in source.get("events", []):
            ev = TraceEvent(**raw)
            tracer._buffers.setdefault(ev.thread, []).append(ev)
        return tracer
