"""Span-profile analysis: the rollup a ``RunReport`` carries.

Consumes the version-1 span documents written by
:meth:`repro.runtime.spans.SpanProfiler.to_json` and folds them, in
:func:`phase_rollup`, into the per-phase / per-kernel / per-level time
attribution of the ``RunReport``'s "profile" section.  The fan-in tasks
are its ``kernels["task"]`` bucket; the same span dicts feed
:func:`repro.analysis.charts.gantt_chart`.

Documents written by older profilers carry a ``meta`` key, and
``thread`` / ``link`` keys on their spans; all three are ignored.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Union

#: pipeline phases, in execution order (direct children of the root span)
PHASES = ("analyze", "ordering", "symbolic", "assemble", "factorize",
          "solve", "trisolve", "refinement")

#: per-cblk kernel span names recorded inside the factorize phase
KERNELS = ("task", "factor", "compress", "update")

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
        out.append(s)
    return out


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
         "phases":      {name: {"time", "self_time", "count"}},
         "kernels":     {name: {"time", "count"}},
         "by_level":    {"<level>": {"time", "count"}}}   # task spans

    ``self_time`` is the phase's duration minus the time of its direct
    children — for ``factorize``, its ``assemble`` and every ``task`` —
    so a phase that only dispatches kernels has near-zero self time.
    ``kernels["task"]`` counts the fan-in tasks and sums their time (the
    engine's time between tasks falls in ``factorize``'s self time).
    ``by_level`` sums *task* spans — the per-cblk fan-in units — keyed by
    their elimination-tree depth.
    """
    spans = _spans_of(source)
    by_id = {int(s["span_id"]): s for s in spans}
    child_time: Dict[int, float] = {}
    for s in spans:
        pid = s.get("parent_id")
        if pid is not None:
            child_time[int(pid)] = child_time.get(int(pid), 0.0) \
                + _duration(s)

    roots = [s for s in spans if s.get("parent_id") is None]
    total = sum(_duration(s) for s in roots)

    phases: Dict[str, Dict[str, float]] = {}
    kernels: Dict[str, Dict[str, float]] = {}
    by_level: Dict[str, Dict[str, float]] = {}
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
    return {
        "total_time": total,
        "phases": phases,
        "kernels": kernels,
        "by_level": by_level,
    }

