"""Telemetry store: a clock and the bounded time series of one run.

The paper's whole argument is quantitative — memory peaks (Figures 6/7),
kernel-time breakdowns (Table 2), rank behaviour under LR2LR recompression
(§4.1).  Every *count* behind those figures is kept once, by the run's
own state: kernel tallies in :class:`~repro.runtime.stats.KernelStats`,
bytes and peaks in ``FactorizationStats`` / ``MemoryTracker``, pivot
aggregates on the factor, residuals on ``RefinementResult`` and recovery
actions in :class:`~repro.runtime.recovery.RecoveryState`; the
``RunReport`` (:mod:`repro.analysis.report`) reads them from there.  What
only a store attached to the run can keep is the *timeline* — when each
of those facts happened — as bounded **time series**
(:meth:`Telemetry.series`): the rank-evolution samples and the memory
high-water timeline, drawn by ``repro report --figures``.  A
``SpanProfiler(telemetry=tele)`` takes the store's clock origin, so the
series points and the spans of a run share one time axis.

Telemetry is *off by default* (``SolverConfig.telemetry is None``); every
site that feeds it guards with a single ``is not None`` test, so a
disabled run pays one attribute load per site and allocates nothing.
A store belongs to the one thread that runs its solver; its snapshot is
a plain JSON-able dict.

========================  =============================================
site                      series
========================  =============================================
compression kernels       :meth:`Telemetry.record_compress` —
                          ``rank_evolution``
MM extend-add (LR2LR)     :meth:`Telemetry.record_recompress` —
                          ``rank_evolution``
``MemoryTracker``         :meth:`Telemetry.record_memory` —
                          ``memory_highwater``
========================  =============================================
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

__all__ = [
    "SeriesBuffer",
    "Telemetry",
]

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
    """Clock + bounded series of one solver run.

    Attach it via ``SolverConfig(telemetry=...)``.

    >>> tele = Telemetry()
    >>> tele.series("rank_evolution").append(tele.clock(), rank=3)
    >>> len(tele.snapshot()["series"]["rank_evolution"])
    1
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self._series: Dict[str, SeriesBuffer] = {}

    def clock(self) -> float:
        """Seconds since :attr:`origin`, when this store was created."""
        return time.perf_counter() - self.origin

    def series(self, name: str, maxlen: int = 4096) -> SeriesBuffer:
        """The named bounded series (created on first use)."""
        s = self._series.get(name)
        if s is None:
            s = self._series[name] = SeriesBuffer(name, maxlen=maxlen)
        return s

    def record_compress(self, m: int, n: int, rank: int) -> None:
        """One accepted compression of an ``m × n`` block to ``rank``."""
        self.series("rank_evolution").append(
            self.clock(), site="compress", m=m, n=n,
            rank_before=-1, rank_after=rank)

    def record_recompress(self, m: int, n: int, rank_before: int,
                          rank_after: int) -> None:
        """One LR2LR extend-add recompression (``rank_after < 0``:
        the rank cap was exceeded and the block densified)."""
        self.series("rank_evolution").append(
            self.clock(), site="recompress", m=m, n=n,
            rank_before=rank_before, rank_after=rank_after)

    def record_memory(self, current: int, peak: int) -> None:
        """A new tracked-memory high water mark."""
        self.series("memory_highwater").append(
            self.clock(), current=int(current), peak=int(peak))

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able snapshot: every series."""
        return {"series": {name: s.points()
                           for name, s in self._series.items()}}
