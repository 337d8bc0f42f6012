"""Unified telemetry store: labelled metrics, series and an event log.

The paper's whole argument is quantitative — memory peaks (Figures 6/7),
kernel-time breakdowns (Table 2), rank behaviour under LR2LR recompression
(§4.1) — and the studies that evaluate BLR solvers in production (JOREK
over MUMPS/PaStiX, rank-structured Cholesky) do it through longitudinal
memory/time/rank telemetry.  This module is the single funnel for all of
it:

* a **metric registry** — labelled :class:`Counter`, :class:`Gauge` and
  :class:`Histogram` families, exported as a JSON snapshot
  (:meth:`Telemetry.snapshot`);
* one bounded **event log** — :meth:`Telemetry.emit` appends each
  structured event to it, keeping the last :data:`EVENT_LOG_CAPACITY`
  (:meth:`Telemetry.events`);
* bounded **time series** (:meth:`Telemetry.series`) for the
  rank-evolution samples, the memory high-water timeline and the
  refinement residual history that the per-run ``RunReport``
  (:mod:`repro.analysis.report`) aggregates.

Design constraints, in order:

1. **Near-zero cost when disabled.**  Telemetry is *off by default*
   (``SolverConfig.telemetry is None``); every instrumentation site in the
   solver guards with a single ``is not None`` test, so a disabled run
   pays one attribute load per site and allocates nothing.
2. **Thread-safe when enabled.**  Metric children carry their own small
   locks (the threaded schedulers increment shared counters); events
   serialize through the event lock.  The registry lock is taken only
   on family/child *creation*, not on updates.
3. **Self-contained artifacts.**  Snapshots and events are plain
   JSON-able dicts.

Instrumented layers (each funnels through one ``record_*`` helper so call
sites stay one guarded line):

========================  =============================================
layer                     helper / data
========================  =============================================
compression kernels       :meth:`Telemetry.record_compress` — per-block
                          ratio, chosen rank, kernel used
MM extend-add (LR2LR)     :meth:`Telemetry.record_recompress` — rank
                          before/after → ``rank_evolution`` series
``MemoryTracker``         :meth:`Telemetry.record_memory` — time-stamped
                          high-water timeline
threaded schedulers       task/busy counters, queue-depth series
refinement                :meth:`Telemetry.record_refinement` —
                          per-iteration residual history
========================  =============================================
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import (
    Any,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "SeriesBuffer",
    "Telemetry",
]

#: label set key: sorted ``(name, value)`` pairs
LabelKey = Tuple[Tuple[str, str], ...]

#: default histogram bucket upper bounds (generic positive quantities:
#: ratios, seconds, ranks all fit this two-decades-around-1 ladder)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 1000.0)

#: how many of the most recent events :meth:`Telemetry.events` keeps
EVENT_LOG_CAPACITY = 4096


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


# ----------------------------------------------------------------------
# metric children
# ----------------------------------------------------------------------

class Counter:
    """Monotonically increasing labelled counter."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """Labelled gauge: a value that can move both ways; tracks its max."""

    __slots__ = ("_lock", "value", "max_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value: float = 0.0
        self.max_value: float = 0.0

    def set_value(self, value: float) -> None:
        with self._lock:
            self.value = float(value)
            if self.value > self.max_value:
                self.max_value = self.value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount
            if self.value > self.max_value:
                self.max_value = self.value


class Histogram:
    """Bucketed histogram: a value lands in the first bucket whose upper
    bound it does not exceed (the last bucket is unbounded)."""

    __slots__ = ("_lock", "buckets", "counts", "total", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self._lock = threading.Lock()
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts: List[int] = [0] * (len(self.buckets) + 1)  # +Inf last
        self.total: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        with self._lock:
            idx = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    idx = i
                    break
            self.counts[idx] += 1
            self.total += float(value)
            self.count += 1

    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0


Metric = Union[Counter, Gauge, Histogram]


class _Family:
    """All children of one metric name, keyed by label values."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name: str, kind: str, help_text: str = "",
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.kind = kind  # "counter" | "gauge" | "histogram"
        self.help = help_text
        self.buckets = tuple(buckets) if buckets is not None else None
        self.children: Dict[LabelKey, Metric] = {}


# ----------------------------------------------------------------------
# bounded time series
# ----------------------------------------------------------------------

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
        self._lock = threading.Lock()
        self._points: List[Dict[str, Any]] = []
        self._stride = 1
        self._seen = 0

    def append(self, t: float, **fields: Any) -> None:
        with self._lock:
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
        with self._lock:
            return list(self._points)

    def __len__(self) -> int:
        with self._lock:
            return len(self._points)

    @property
    def seen(self) -> int:
        """How many points were offered (recorded + decimated away)."""
        with self._lock:
            return self._seen


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

class Telemetry:
    """Metric registry + bounded series + bounded event log.

    One instance accompanies one solver run (attach it via
    ``SolverConfig(telemetry=...)``).  All methods are thread-safe.

    >>> tele = Telemetry()
    >>> tele.counter("blocks", kernel="rrqr").inc()
    >>> tele.gauge("queue_depth").set_value(3)
    >>> tele.emit("compress", rank=5)
    >>> tele.snapshot()["counters"]["blocks"][0]["value"]
    1.0
    """

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._lock: Any = threading.Lock()       # registry + series creation
        self._bus_lock: Any = threading.Lock()   # event emission
        self._sanitizer: Any = None
        self._families: Dict[str, _Family] = {}
        self._series: Dict[str, SeriesBuffer] = {}
        self._events: Deque[Dict[str, Any]] = deque(
            maxlen=EVENT_LOG_CAPACITY)
        self.events_emitted: int = 0

    # -- clock ---------------------------------------------------------
    def clock(self) -> float:
        """Seconds since this store was created (monotonic)."""
        return time.perf_counter() - self._origin

    def attach_sanitizer(self, san: Any) -> None:
        """Track the registry/event locks and family-map mutations in the
        race sanitizer (wired by the solver under ``sanitize_enabled``)."""
        self._sanitizer = san
        self._lock = san.wrap_lock(self._lock, "telemetry._lock")
        self._bus_lock = san.wrap_lock(self._bus_lock, "telemetry._bus_lock")

    # -- metric registry -----------------------------------------------
    def _family(self, name: str, kind: str,
                buckets: Optional[Sequence[float]] = None) -> _Family:
        fam = self._families.get(name)
        if fam is None:
            with self._lock:
                if self._sanitizer is not None:
                    self._sanitizer.note("telemetry.families", "write",
                                         site="telemetry.py:_family")
                fam = self._families.get(name)
                if fam is None:
                    fam = _Family(name, kind, buckets=buckets)
                    self._families[name] = fam
        if fam.kind != kind:
            raise TypeError(
                f"metric {name!r} is a {fam.kind}, not a {kind}")
        return fam

    def counter(self, name: str, **labels: str) -> Counter:
        """The labelled counter child (created on first use)."""
        fam = self._family(name, "counter")
        key = _label_key(labels)
        child = fam.children.get(key)
        if child is None:
            with self._lock:
                child = fam.children.setdefault(key, Counter())
        assert isinstance(child, Counter)
        return child

    def gauge(self, name: str, **labels: str) -> Gauge:
        fam = self._family(name, "gauge")
        key = _label_key(labels)
        child = fam.children.get(key)
        if child is None:
            with self._lock:
                child = fam.children.setdefault(key, Gauge())
        assert isinstance(child, Gauge)
        return child

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  **labels: str) -> Histogram:
        fam = self._family(name, "histogram", buckets=buckets)
        key = _label_key(labels)
        child = fam.children.get(key)
        if child is None:
            with self._lock:
                child = fam.children.setdefault(
                    key, Histogram(fam.buckets or DEFAULT_BUCKETS))
        assert isinstance(child, Histogram)
        return child

    # -- series --------------------------------------------------------
    def series(self, name: str, maxlen: int = 4096) -> SeriesBuffer:
        """The named bounded series (created on first use)."""
        s = self._series.get(name)
        if s is None:
            with self._lock:
                s = self._series.get(name)
                if s is None:
                    s = SeriesBuffer(name, maxlen=maxlen)
                    self._series[name] = s
        return s

    # -- event log -----------------------------------------------------
    def emit(self, kind: str, **fields: Any) -> None:
        """Append one structured event to the event log."""
        event: Dict[str, Any] = {"kind": kind, "t": self.clock()}
        event.update(fields)
        with self._bus_lock:
            if self._sanitizer is not None:
                self._sanitizer.note("telemetry.events", "write",
                                     site="telemetry.py:emit")
            self.events_emitted += 1
            self._events.append(event)

    def events(self) -> List[Dict[str, Any]]:
        """The last :data:`EVENT_LOG_CAPACITY` events, oldest first
        (``events_emitted`` counts every event, kept or not)."""
        with self._bus_lock:
            return list(self._events)

    # -- domain helpers (one guarded call per instrumentation site) -----
    def record_compress(self, m: int, n: int, rank: int,
                        kernel: str) -> None:
        """One compression attempt: ``rank < 0`` means 'stored dense'."""
        outcome = "lowrank" if rank >= 0 else "dense"
        self.counter("compress_blocks", kernel=kernel,
                     outcome=outcome).inc()
        if rank >= 0:
            ratio = ((m + n) * rank / (m * n)) if m and n else 1.0
            self.histogram("compress_ratio").observe(ratio)
            self.histogram("compress_rank").observe(float(rank))
            self.series("rank_evolution").append(
                self.clock(), site="compress", m=m, n=n,
                rank_before=-1, rank_after=rank)
            self.emit("compress", m=m, n=n, rank=rank, kernel=kernel,
                      ratio=ratio)
        else:
            self.emit("compress", m=m, n=n, rank=-1, kernel=kernel,
                      ratio=1.0)

    def record_recompress(self, m: int, n: int, rank_before: int,
                          rank_after: int) -> None:
        """One LR2LR extend-add recompression (``rank_after < 0``:
        the rank cap was exceeded and the block densified)."""
        outcome = "lowrank" if rank_after >= 0 else "densified"
        self.counter("recompress_blocks", outcome=outcome).inc()
        if rank_after >= 0:
            self.histogram("recompress_rank").observe(float(rank_after))
            grow = rank_after - rank_before
            if grow > 0:
                self.counter("recompress_rank_growth").inc(float(grow))
        self.series("rank_evolution").append(
            self.clock(), site="recompress", m=m, n=n,
            rank_before=rank_before, rank_after=rank_after)
        self.emit("recompress", m=m, n=n, rank_before=rank_before,
                  rank_after=rank_after)

    def record_memory(self, current: int, peak: int) -> None:
        """A new tracked-memory high water mark."""
        self.gauge("memory_peak_bytes").set_value(float(peak))
        self.series("memory_highwater").append(
            self.clock(), current=int(current), peak=int(peak))

    def record_refinement(self, method: str, history: Sequence[float],
                          converged: bool) -> None:
        """A refinement run's full per-iteration residual history."""
        series = self.series("refinement_residual")
        t = self.clock()
        for i, r in enumerate(history):
            series.append(t, iteration=i, residual=float(r))
        self.counter("refinement_runs", method=method,
                     converged=str(bool(converged)).lower()).inc()
        self.counter("refinement_iterations", method=method).inc(
            float(max(len(history) - 1, 0)))
        self.emit("refinement", method=method, converged=bool(converged),
                  iterations=max(len(history) - 1, 0),
                  residual_history=[float(r) for r in history])

    def record_backend_kernels(self, calls: Mapping[str, int],
                               phase: str = "factorize") -> None:
        """Kernel call counts of one phase (factorize/solve).

        Publishes one labelled ``backend_kernel_calls`` counter per op
        (labels: op, phase) plus a structured ``backend_kernels`` event
        carrying the whole delta.
        """
        total = 0
        for op, n in calls.items():
            if n:
                self.counter("backend_kernel_calls", op=op,
                             phase=phase).inc(float(n))
                total += int(n)
        self.emit("backend_kernels", phase=phase,
                  total=total, calls={op: int(n) for op, n in calls.items()})

    def record_recovery(self, action: str, site: str = "",
                        cblk: Optional[int] = None,
                        **detail: Any) -> None:
        """One recovery-layer action (breakdown, retry, fallback, ...).

        Publishes a per-action ``recovery_<action>`` counter (the names
        surfaced in RunReports and CI chaos artifacts), a labelled
        aggregate ``recovery_actions`` counter, and one structured
        ``recovery`` event carrying the full detail.
        """
        self.counter(f"recovery_{action}").inc()
        self.counter("recovery_actions", action=action,
                     site=site or "-").inc()
        fields: Dict[str, Any] = {"action": action, "site": site}
        if cblk is not None:
            fields["cblk"] = int(cblk)
        fields.update(detail)
        self.emit("recovery", **fields)

    def record_pivoting(self, cblk: int, swaps: int = 0,
                        two_by_two: int = 0, perturbations: int = 0,
                        growth: float = 0.0) -> None:
        """Pivot health of one threshold-pivoted diagonal block.

        Publishes the per-run ``pivot_swaps`` / ``pivots_2x2`` /
        ``pivot_perturbations`` counters, a ``pivot_growth`` gauge whose
        max-tracking keeps the worst block growth factor of the run, and
        one structured ``pivoting`` event per block that actually pivoted
        (identity blocks stay silent to keep the event stream small).
        """
        if swaps:
            self.counter("pivot_swaps").inc(int(swaps))
        if two_by_two:
            self.counter("pivots_2x2").inc(int(two_by_two))
        if perturbations:
            self.counter("pivot_perturbations").inc(int(perturbations))
        self.gauge("pivot_growth").set_value(float(growth))
        if swaps or two_by_two or perturbations:
            self.emit("pivoting", cblk=int(cblk), swaps=int(swaps),
                      two_by_two=int(two_by_two),
                      perturbations=int(perturbations),
                      growth=float(growth))

    # -- export --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able snapshot of all metrics and series."""
        counters: Dict[str, List[Dict[str, Any]]] = {}
        gauges: Dict[str, List[Dict[str, Any]]] = {}
        histograms: Dict[str, List[Dict[str, Any]]] = {}
        with self._lock:
            families = list(self._families.values())
            series = dict(self._series)
        for fam in families:
            for key, child in sorted(fam.children.items()):
                labels = dict(key)
                if isinstance(child, Counter):
                    counters.setdefault(fam.name, []).append(
                        {"labels": labels, "value": child.value})
                elif isinstance(child, Gauge):
                    gauges.setdefault(fam.name, []).append(
                        {"labels": labels, "value": child.value,
                         "max": child.max_value})
                else:
                    histograms.setdefault(fam.name, []).append({
                        "labels": labels,
                        "buckets": list(child.buckets),
                        "counts": list(child.counts),
                        "sum": child.total,
                        "count": child.count,
                        "mean": child.mean(),
                    })
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "series": {name: s.points() for name, s in series.items()},
            "events_emitted": self.events_emitted,
        }
