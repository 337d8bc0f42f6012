"""Telemetry store: a clock, bounded time series and one bounded event log.

The paper's whole argument is quantitative — memory peaks (Figures 6/7),
kernel-time breakdowns (Table 2), rank behaviour under LR2LR recompression
(§4.1).  Every *count* behind those figures is kept once, by the run's
own state: kernel tallies in :class:`~repro.runtime.stats.KernelStats`,
bytes and peaks in ``FactorizationStats`` / ``MemoryTracker``, pivot
aggregates on the factor, residuals on ``RefinementResult`` and recovery
actions in :class:`~repro.runtime.recovery.RecoveryState`; the
``RunReport`` (:mod:`repro.analysis.report`) reads them from there.  What
only a store attached to the run can keep is the *timeline* — when each
of those facts happened:

* bounded **time series** (:meth:`Telemetry.series`): the rank-evolution
  samples and the memory high-water timeline, drawn by
  ``repro report --figures``;
* one bounded **event log** — :meth:`Telemetry.emit` appends each
  structured event to it, keeping the last :data:`EVENT_LOG_CAPACITY`
  (:meth:`Telemetry.events`).

Telemetry is *off by default* (``SolverConfig.telemetry is None``); every
site that feeds it guards with a single ``is not None`` test, so a
disabled run pays one attribute load per site and allocates nothing.
A store belongs to the one thread that runs its solver; snapshots and
events are plain JSON-able dicts.

========================  =============================================
site                      series / event
========================  =============================================
compression kernels       :meth:`Telemetry.record_compress` —
                          ``rank_evolution`` + one ``compress`` event
MM extend-add (LR2LR)     :meth:`Telemetry.record_recompress` —
                          ``rank_evolution`` + one ``recompress`` event
``MemoryTracker``         :meth:`Telemetry.record_memory` —
                          ``memory_highwater``
threshold pivoting        one ``pivoting`` event per pivoted block
``SpanProfiler``          one ``span`` event per phase span
========================  =============================================
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Deque, Dict, List

__all__ = [
    "SeriesBuffer",
    "Telemetry",
]

#: how many of the most recent events :meth:`Telemetry.events` keeps
EVENT_LOG_CAPACITY = 4096


class SeriesBuffer:
    """Bounded series of time-stamped points with stride decimation.

    When the buffer fills, every other retained point is dropped and the
    accept stride doubles, so a series of arbitrary length keeps at most
    ``maxlen`` roughly uniformly spaced samples — exactly what a memory
    high-water timeline or a rank-evolution record needs.
    """

    def __init__(self, name: str, maxlen: int = 4096) -> None:
        if maxlen < 8:
            raise ValueError("maxlen must be >= 8")
        self.name = name
        self.maxlen = maxlen
        self._points: List[Dict[str, Any]] = []
        self._stride = 1
        self._seen = 0

    def append(self, t: float, **fields: Any) -> None:
        self._seen += 1
        if (self._seen - 1) % self._stride:
            return
        if len(self._points) >= self.maxlen:
            self._points = self._points[::2]
            self._stride *= 2
            if (self._seen - 1) % self._stride:
                return
        point = {"t": float(t)}
        point.update(fields)
        self._points.append(point)

    def points(self) -> List[Dict[str, Any]]:
        return list(self._points)

    def __len__(self) -> int:
        return len(self._points)

    @property
    def seen(self) -> int:
        """How many points were offered (recorded + decimated away)."""
        return self._seen


class Telemetry:
    """Clock + bounded series + bounded event log of one solver run.

    Attach it via ``SolverConfig(telemetry=...)``.

    >>> tele = Telemetry()
    >>> tele.series("rank_evolution").append(tele.clock(), rank=3)
    >>> tele.emit("compress", rank=5)
    >>> tele.snapshot()["events_emitted"]
    1
    """

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._series: Dict[str, SeriesBuffer] = {}
        self._events: Deque[Dict[str, Any]] = deque(
            maxlen=EVENT_LOG_CAPACITY)
        self.events_emitted: int = 0

    def clock(self) -> float:
        """Seconds since this store was created (monotonic)."""
        return time.perf_counter() - self._origin

    def series(self, name: str, maxlen: int = 4096) -> SeriesBuffer:
        """The named bounded series (created on first use)."""
        s = self._series.get(name)
        if s is None:
            s = self._series[name] = SeriesBuffer(name, maxlen=maxlen)
        return s

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one structured event to the event log."""
        event: Dict[str, Any] = {"kind": kind, "t": self.clock()}
        event.update(fields)
        self.events_emitted += 1
        self._events.append(event)

    def events(self) -> List[Dict[str, Any]]:
        """The last :data:`EVENT_LOG_CAPACITY` events, oldest first
        (``events_emitted`` counts every event, kept or not)."""
        return list(self._events)

    def record_compress(self, m: int, n: int, rank: int,
                        kernel: str) -> None:
        """One compression attempt: ``rank < 0`` means 'stored dense'."""
        ratio = (m + n) * rank / (m * n) if rank >= 0 and m and n else 1.0
        if rank >= 0:
            self.series("rank_evolution").append(
                self.clock(), site="compress", m=m, n=n,
                rank_before=-1, rank_after=rank)
        self.emit("compress", m=m, n=n, rank=rank, kernel=kernel,
                  ratio=ratio)

    def record_recompress(self, m: int, n: int, rank_before: int,
                          rank_after: int) -> None:
        """One LR2LR extend-add recompression (``rank_after < 0``:
        the rank cap was exceeded and the block densified)."""
        self.series("rank_evolution").append(
            self.clock(), site="recompress", m=m, n=n,
            rank_before=rank_before, rank_after=rank_after)
        self.emit("recompress", m=m, n=n, rank_before=rank_before,
                  rank_after=rank_after)

    def record_memory(self, current: int, peak: int) -> None:
        """A new tracked-memory high water mark."""
        self.series("memory_highwater").append(
            self.clock(), current=int(current), peak=int(peak))

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able snapshot: every series and the event count."""
        return {
            "series": {name: s.points() for name, s in self._series.items()},
            "events_emitted": self.events_emitted,
        }
