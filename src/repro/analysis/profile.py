"""Span-profile analysis: the rollups a ``RunReport`` carries.

Consumes the version-1 span documents written by
:meth:`repro.runtime.spans.SpanProfiler.to_json` and turns them into

* :func:`phase_rollup` — the per-phase / per-level / per-order time
  attribution folded into ``RunReport`` (the "profile" section);
* :func:`task_summary` — per-thread busy time, utilisation, critical path
  and parallelism of the fan-in tasks (the "Task trace" section; the same
  span dicts feed :func:`repro.analysis.charts.gantt_chart`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Sequence, Union

#: pipeline phases, in execution order (direct children of the root span)
PHASES = ("analyze", "ordering", "symbolic", "assemble", "factorize",
          "solve", "trisolve", "refinement")

#: per-cblk kernel span names recorded inside the factorize phase
KERNELS = ("task", "factor", "compress", "update", "finalize")

_SpanSource = Union[Mapping[str, Any], Sequence[Mapping[str, Any]]]


def _spans_of(source: _SpanSource) -> List[Dict[str, Any]]:
    """Normalize a span source to a list of span dicts.

    Accepts the ``to_json`` document dict or a bare list of span dicts
    (each shaped like ``Span.to_dict()``).
    """
    if isinstance(source, Mapping):
        version = source.get("version")
        if version != 1:
            raise ValueError(f"unsupported span document version "
                             f"{version!r}")
        spans = source.get("spans", [])
    else:
        spans = list(source)
    out = []
    for raw in spans:
        s = dict(raw)
        s.setdefault("attrs", {})
        s.setdefault("link", "child")
        out.append(s)
    return out


def _meta_of(source: _SpanSource) -> Dict[str, Any]:
    if isinstance(source, Mapping):
        return dict(source.get("meta", {}))
    return {}


def _duration(s: Mapping[str, Any]) -> float:
    return max(float(s["t1"]) - float(s["t0"]), 0.0)


def _bucket(table: Dict[str, Dict[str, float]], key: str,
            dur: float) -> None:
    slot = table.setdefault(key, {"time": 0.0, "count": 0})
    slot["time"] += dur
    slot["count"] += 1


def phase_rollup(source: _SpanSource) -> Dict[str, Any]:
    """Aggregate a span document into the RunReport "profile" section.

    Returns a plain-JSON dict::

        {"total_time":  <root span duration>,
         "meta":        {engine, threads, ...},
         "phases":      {name: {"time", "self_time", "count"}},
         "kernels":     {name: {"time", "count"}},
         "by_level":    {"<level>": {"time", "count"}},   # task spans
         "by_order":    {"<order>": {"time", "count"}}}   # task spans

    ``self_time`` is the phase's duration minus the time of its direct
    children (a phase that only dispatches kernels has near-zero self
    time).  ``by_level`` / ``by_order`` sum *task* spans — the per-cblk
    fan-in units — keyed by their elimination-tree depth and resolved
    loop order.
    """
    spans = _spans_of(source)
    by_id = {int(s["span_id"]): s for s in spans}
    child_time: Dict[int, float] = {}
    for s in spans:
        pid = s.get("parent_id")
        if pid is not None and s.get("link", "child") == "child":
            child_time[int(pid)] = child_time.get(int(pid), 0.0) \
                + _duration(s)

    roots = [s for s in spans if s.get("parent_id") is None]
    total = sum(_duration(s) for s in roots)

    phases: Dict[str, Dict[str, float]] = {}
    kernels: Dict[str, Dict[str, float]] = {}
    by_level: Dict[str, Dict[str, float]] = {}
    by_order: Dict[str, Dict[str, float]] = {}
    for s in spans:
        name = str(s["name"])
        dur = _duration(s)
        pid = s.get("parent_id")
        parent = by_id.get(int(pid)) if pid is not None else None
        if parent is not None and parent.get("parent_id") is None:
            # direct child of the root = pipeline phase
            _bucket(phases, name, dur)
            sid = int(s["span_id"])
            slot = phases[name]
            slot["self_time"] = slot.get("self_time", 0.0) \
                + max(dur - child_time.get(sid, 0.0), 0.0)
        if name in KERNELS:
            _bucket(kernels, name, dur)
        if name == "task":
            attrs = s.get("attrs", {})
            if "level" in attrs:
                _bucket(by_level, str(attrs["level"]), dur)
            if "order" in attrs:
                _bucket(by_order, str(attrs["order"]), dur)
    return {
        "total_time": total,
        "meta": _meta_of(source),
        "phases": phases,
        "kernels": kernels,
        "by_level": by_level,
        "by_order": by_order,
    }


def task_summary(source: _SpanSource) -> Dict[str, Any]:
    """Who ran which fan-in task when: the scheduling view of a span
    document, as a plain-JSON dict::

        {"n_tasks", "n_threads", "span",
         "thread_busy": {"<thread>": s}, "utilization": {"<thread>": frac},
         "mean_utilization", "critical_path", "parallelism"}

    ``span`` is the wall clock from the first task's start to the last
    task's end and a thread's busy time the sum of its ``task`` spans
    (updates, factorization and compression all run inside one).  The
    critical path follows the elimination DAG as the spans recorded it:
    ``cp[k] = max cp[c] over the sources c of k's update spans + duration
    of task k`` — contributors precede their targets, so one ascending
    pass suffices.  A run whose tasks all sit on one thread executed as a
    single chain: its critical path is its busy time.
    """
    spans = _spans_of(source)
    busy: Dict[int, float] = {}
    task_dur: Dict[int, float] = {}
    sources: Dict[int, List[int]] = {}
    t_lo, t_hi = math.inf, -math.inf
    n_tasks = 0
    for s in spans:
        attrs = s["attrs"]
        if s["name"] == "task":
            dur = _duration(s)
            thread = int(s.get("thread", 0))
            busy[thread] = busy.get(thread, 0.0) + dur
            k = int(attrs["cblk"])
            task_dur[k] = task_dur.get(k, 0.0) + dur
            t_lo, t_hi = min(t_lo, float(s["t0"])), max(t_hi, float(s["t1"]))
            n_tasks += 1
        elif s["name"] == "update":
            sources.setdefault(int(attrs["target"]), []).append(
                int(attrs["cblk"]))
    total_busy = sum(busy.values())
    if len(busy) <= 1:
        critical = total_busy
    else:
        cp: Dict[int, float] = {}
        for k in sorted(task_dur):
            cp[k] = task_dur[k] + max(
                (cp.get(c, 0.0) for c in sources.get(k, ())), default=0.0)
        critical = max(cp.values(), default=0.0)
    wall = (t_hi - t_lo) if n_tasks else 0.0
    return {
        "n_tasks": n_tasks,
        "n_threads": len(busy),
        "span": wall,
        "thread_busy": {str(t): b for t, b in sorted(busy.items())},
        "utilization": {str(t): (b / wall if wall > 0 else 0.0)
                        for t, b in sorted(busy.items())},
        "mean_utilization": (total_busy / (len(busy) * wall)
                             if wall > 0 else 0.0),
        "critical_path": critical,
        "parallelism": (total_busy / critical) if critical > 0 else 0.0,
    }
