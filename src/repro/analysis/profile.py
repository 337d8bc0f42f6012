"""Span-profile analysis: rollups, exporters, regression attribution.

Consumes the version-1 span documents written by
:meth:`repro.runtime.spans.SpanProfiler.to_json` and turns them into

* :func:`phase_rollup` — the per-phase / per-level / per-order time
  attribution folded into ``RunReport`` (the "profile" section);
* :func:`task_summary` — per-thread busy time, utilisation, critical path
  and parallelism of the fan-in tasks (the "Task trace" section; the same
  span dicts feed :func:`repro.analysis.charts.gantt_chart`);
* :func:`export_chrome_trace` — Chrome ``trace_event`` JSON
  (load via ``chrome://tracing`` or https://ui.perfetto.dev);
* :func:`export_speedscope` — a speedscope-format flamegraph
  (https://www.speedscope.app, evented profiles, one per thread);
* :func:`report_attribution` / :func:`render_attribution` — the ranked
  A-vs-B regression table behind ``repro diff-report`` and the
  guilty-phase notes in ``tools/benchdiff``.

This module is deliberately **stdlib-only and self-contained** (no
``repro`` imports, mirroring the SVG backend of ``analysis/charts.py``):
``tools/benchdiff`` loads it standalone via ``importlib`` so CI can
attribute a bench-gate failure without importing the numpy-backed
solver package.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

#: pipeline phases, in execution order (direct children of the root span)
PHASES = ("analyze", "ordering", "symbolic", "assemble", "factorize",
          "solve", "trisolve", "refinement")

#: per-cblk kernel span names recorded inside the factorize phase
KERNELS = ("task", "factor", "compress", "update", "finalize")

_SpanSource = Union[str, Path, Mapping[str, Any],
                    Sequence[Mapping[str, Any]]]


def _spans_of(source: _SpanSource) -> List[Dict[str, Any]]:
    """Normalize a span source to a list of span dicts.

    Accepts a path to a ``to_json`` file, the document dict itself, or a
    bare list of span dicts (each shaped like ``Span.to_dict()``).
    """
    if isinstance(source, (str, Path)):
        source = json.loads(Path(source).read_text(encoding="utf-8"))
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
    if isinstance(source, (str, Path)):
        source = json.loads(Path(source).read_text(encoding="utf-8"))
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


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------

def export_chrome_trace(source: _SpanSource,
                        path: Union[str, Path]) -> Path:
    """Write a Chrome ``trace_event`` JSON file (complete "X" events).

    Timestamps are microseconds since the profiler origin; each recorded
    thread becomes a ``tid`` row, the span link kind lands in ``cat``
    and the attributes in ``args`` — so the causal hand-off edges stay
    inspectable in the viewer.
    """
    spans = _spans_of(source)
    events: List[Dict[str, Any]] = []
    for s in spans:
        events.append({
            "name": str(s["name"]),
            "ph": "X",
            "ts": float(s["t0"]) * 1e6,
            "dur": _duration(s) * 1e6,
            "pid": 1,
            "tid": int(s.get("thread", 0)),
            "cat": str(s.get("link", "child")),
            "args": dict(s.get("attrs", {})),
        })
    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": _meta_of(source)}
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _frame_name(s: Mapping[str, Any]) -> str:
    name = str(s["name"])
    order = s.get("attrs", {}).get("order")
    if name == "task" and order is not None:
        return f"task[{order}]"
    return name


def export_speedscope(source: _SpanSource,
                      path: Union[str, Path],
                      name: str = "repro span profile") -> Path:
    """Write a speedscope flamegraph (one evented profile per thread).

    Within one thread spans nest strictly (they are pushed and popped on
    that thread's context stack), so the open/close event stream is
    reconstructed with a timeline sweep.  Frames aggregate by span name
    (task frames carry their loop order), which is what makes the
    left-heavy flamegraph view answer "where does the time go".
    """
    spans = _spans_of(source)
    frames: List[Dict[str, str]] = []
    frame_ids: Dict[str, int] = {}

    def frame_of(s: Mapping[str, Any]) -> int:
        key = _frame_name(s)
        fid = frame_ids.get(key)
        if fid is None:
            fid = frame_ids[key] = len(frames)
            frames.append({"name": key})
        return fid

    threads: Dict[int, List[Dict[str, Any]]] = {}
    for s in spans:
        if float(s["t1"]) < 0.0:
            continue  # never-closed span: not renderable
        threads.setdefault(int(s.get("thread", 0)), []).append(s)

    profiles = []
    for tid in sorted(threads):
        rows = sorted(threads[tid],
                      key=lambda s: (float(s["t0"]), -float(s["t1"])))
        events: List[Dict[str, Any]] = []
        stack: List[Mapping[str, Any]] = []
        for s in rows:
            while stack and float(s["t0"]) >= float(stack[-1]["t1"]):
                top = stack.pop()
                events.append({"type": "C", "frame": frame_of(top),
                               "at": float(top["t1"])})
            stack.append(s)
            events.append({"type": "O", "frame": frame_of(s),
                           "at": float(s["t0"])})
        while stack:
            top = stack.pop()
            events.append({"type": "C", "frame": frame_of(top),
                           "at": float(top["t1"])})
        if not events:
            continue
        start = min(e["at"] for e in events)
        end = max(e["at"] for e in events)
        profiles.append({
            "type": "evented",
            "name": f"thread {tid}",
            "unit": "seconds",
            "startValue": start,
            "endValue": end,
            "events": events,
        })
    doc = {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": "repro.analysis.profile",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": profiles,
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# regression attribution (repro diff-report / tools/benchdiff)
# ----------------------------------------------------------------------

def _num(v: Any) -> Optional[float]:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    f = float(v)
    return f if math.isfinite(f) else None


def _phase_times(report: Mapping[str, Any]) -> Dict[str, float]:
    """Per-phase seconds of a RunReport — profile section preferred,
    top-level timings as the fallback for pre-profile reports."""
    profile = report.get("profile") or {}
    phases = profile.get("phases") or {}
    out: Dict[str, float] = {}
    for name, slot in phases.items():
        t = _num(slot.get("time"))
        if t is not None:
            out[str(name)] = t
    if out:
        return out
    timings = report.get("timings") or {}
    for key, name in (("analyze_time", "analyze"),
                      ("factor_time", "factorize"),
                      ("solve_time", "solve")):
        t = _num(timings.get(key))
        if t is not None:
            out[name] = t
    return out


def _rank_stats(report: Mapping[str, Any]) -> Optional[Dict[str, float]]:
    hist = report.get("rank_histogram") or {}
    counts = {int(r): int(c) for r, c in hist.items()}
    n = sum(counts.values())
    if n == 0:
        return None
    mean = sum(r * c for r, c in counts.items()) / n
    return {"blocks": float(n), "mean_rank": mean,
            "max_rank": float(max(counts))}


def _rank_drift(a: Mapping[str, Any],
                b: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    sa, sb = _rank_stats(a), _rank_stats(b)
    if sa is None or sb is None:
        return None
    ha = {int(r): int(c) for r, c in (a.get("rank_histogram") or {}).items()}
    hb = {int(r): int(c) for r, c in (b.get("rank_histogram") or {}).items()}
    na, nb = sum(ha.values()), sum(hb.values())
    l1 = sum(abs(ha.get(r, 0) / na - hb.get(r, 0) / nb)
             for r in set(ha) | set(hb))
    return {"mean_rank_a": sa["mean_rank"], "mean_rank_b": sb["mean_rank"],
            "mean_rank_delta": sb["mean_rank"] - sa["mean_rank"],
            "l1_distance": l1}


def _recovery_counts(report: Mapping[str, Any]) -> Dict[str, int]:
    rec = report.get("recovery") or {}
    counts = {str(k): int(v) for k, v in (rec.get("counts") or {}).items()}
    attempts = rec.get("attempts")
    if attempts is not None:
        counts["attempts"] = int(attempts)
    return counts


def report_attribution(a: Mapping[str, Any],
                       b: Mapping[str, Any]) -> Dict[str, Any]:
    """Align two RunReports and attribute their differences.

    ``a`` is the baseline, ``b`` the candidate.  Returns a plain-JSON
    dict with phase rows ranked by absolute time delta (the table
    ``repro diff-report`` prints), byte/rank/recovery deltas, and
    ``top_regression`` — the phase that lost the most time, which
    ``tools/benchdiff`` names when a gate fails.
    """
    ta, tb = _phase_times(a), _phase_times(b)
    rows: List[Dict[str, Any]] = []
    order = {name: i for i, name in enumerate(PHASES)}
    for name in sorted(set(ta) | set(tb),
                       key=lambda n: order.get(n, len(PHASES))):
        va, vb = ta.get(name), tb.get(name)
        delta = (vb - va) if (va is not None and vb is not None) else None
        ratio = (vb / va if va else None) \
            if (va is not None and vb is not None) else None
        rows.append({"phase": name, "a": va, "b": vb,
                     "delta": delta, "ratio": ratio})
    rows.sort(key=lambda r: -(abs(r["delta"]) if r["delta"] is not None
                              else -1.0))

    regressions = [r for r in rows
                   if r["delta"] is not None and r["delta"] > 0.0]
    top = regressions[0]["phase"] if regressions else None

    comp_a = (a.get("compression") or {})
    comp_b = (b.get("compression") or {})
    nb_a, nb_b = (_num(comp_a.get("total_nbytes")),
                  _num(comp_b.get("total_nbytes")))
    bytes_row = None
    if nb_a is not None and nb_b is not None:
        bytes_row = {"a": nb_a, "b": nb_b, "delta": nb_b - nb_a}

    rec_a, rec_b = _recovery_counts(a), _recovery_counts(b)
    recovery = [{"action": k, "a": rec_a.get(k, 0), "b": rec_b.get(k, 0),
                 "delta": rec_b.get(k, 0) - rec_a.get(k, 0)}
                for k in sorted(set(rec_a) | set(rec_b))]

    # per-level task-time drift, when both sides carry a profile section
    levels = []
    la = ((a.get("profile") or {}).get("by_level") or {})
    lb = ((b.get("profile") or {}).get("by_level") or {})
    for lvl in sorted(set(la) | set(lb), key=lambda v: int(v)):
        va = _num((la.get(lvl) or {}).get("time"))
        vb = _num((lb.get(lvl) or {}).get("time"))
        levels.append({"level": int(lvl), "a": va, "b": vb,
                       "delta": (vb - va)
                       if (va is not None and vb is not None) else None})

    return {
        "workload_a": a.get("workload"),
        "workload_b": b.get("workload"),
        "phases": rows,
        "by_level": levels,
        "factor_bytes": bytes_row,
        "rank_drift": _rank_drift(a, b),
        "recovery": recovery,
        "top_regression": top,
    }


def _fmt_s(v: Optional[float]) -> str:
    if v is None:
        return "—"
    return f"{v:.4g}"


def _fmt_delta(v: Optional[float], unit: str = "s") -> str:
    if v is None:
        return "—"
    return f"{v:+.4g} {unit}"


def _fmt_pct(ratio: Optional[float]) -> str:
    if ratio is None:
        return "—"
    return f"{(ratio - 1.0) * 100.0:+.1f}%"


def render_attribution(attribution: Mapping[str, Any]) -> str:
    """Render :func:`report_attribution` output as a markdown table."""
    lines: List[str] = []
    wa = attribution.get("workload_a") or "A"
    wb = attribution.get("workload_b") or "B"
    lines.append(f"# Regression attribution — {wa} → {wb}")
    lines.append("")
    top = attribution.get("top_regression")
    if top is not None:
        lines.append(f"Largest regression: **{top}**.")
    else:
        lines.append("No phase regressed.")
    lines.append("")
    lines.append("| phase | A (s) | B (s) | Δ | Δ% |")
    lines.append("| --- | --- | --- | --- | --- |")
    for row in attribution.get("phases", []):
        lines.append(
            f"| {row['phase']} | {_fmt_s(row['a'])} | {_fmt_s(row['b'])} "
            f"| {_fmt_delta(row['delta'])} | {_fmt_pct(row['ratio'])} |")
    lines.append("")

    levels = [r for r in attribution.get("by_level", [])
              if r.get("delta") is not None]
    if levels:
        lines.append("| level | A (s) | B (s) | Δ |")
        lines.append("| --- | --- | --- | --- |")
        for row in sorted(levels, key=lambda r: -abs(r["delta"])):
            lines.append(f"| {row['level']} | {_fmt_s(row['a'])} "
                         f"| {_fmt_s(row['b'])} "
                         f"| {_fmt_delta(row['delta'])} |")
        lines.append("")

    nbytes = attribution.get("factor_bytes")
    if nbytes is not None:
        lines.append(f"Factor bytes: {nbytes['a']:.0f} → {nbytes['b']:.0f} "
                     f"({_fmt_delta(nbytes['delta'], 'B')})")
    drift = attribution.get("rank_drift")
    if drift is not None:
        lines.append(
            f"Rank drift: mean {drift['mean_rank_a']:.2f} → "
            f"{drift['mean_rank_b']:.2f} "
            f"({drift['mean_rank_delta']:+.2f}), histogram L1 distance "
            f"{drift['l1_distance']:.3f}")
    moved = [r for r in attribution.get("recovery", []) if r["delta"]]
    if moved:
        lines.append("")
        lines.append("| recovery action | A | B | Δ |")
        lines.append("| --- | --- | --- | --- |")
        for row in moved:
            lines.append(f"| {row['action']} | {row['a']} | {row['b']} "
                         f"| {row['delta']:+d} |")
    return "\n".join(lines).rstrip() + "\n"


def summarize_attribution(attribution: Mapping[str, Any]) -> Optional[str]:
    """One-line guilty-phase note for ``tools/benchdiff`` gate output."""
    top = attribution.get("top_regression")
    if top is None:
        return None
    for row in attribution.get("phases", []):
        if row["phase"] == top and row.get("delta") is not None:
            pct = _fmt_pct(row.get("ratio"))
            return (f"slowest-moving phase: {top} "
                    f"({_fmt_delta(row['delta'])}, {pct})")
    return f"slowest-moving phase: {top}"
