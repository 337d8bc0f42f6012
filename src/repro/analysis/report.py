"""Per-run ``RunReport`` artifacts: build, save, render.

A ``RunReport`` is one JSON document that captures *everything measured*
during a solve campaign: the configuration, the Table 2 kernel breakdown
and backend kernel calls, the compression/rank dissection of §4.1, the
per-iteration refinement residuals, the recovery actions, the telemetry
timeline (memory high-water and rank-evolution series) and the
span-profile rollup with its task summary.  Every count comes from the
run's own state; telemetry adds only when things happened.  It is the
single artifact the ``repro report`` CLI renders to markdown — alone, or
against an older report (:func:`report_attribution`) — that the
benchmarks attach to their history records, and that ``tools/benchdiff``
compares across runs.

The document is plain JSON — no pickle, no custom types — so reports are
diffable, archivable and safe to load from CI artifacts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Union

if TYPE_CHECKING:
    from repro.core.solver import Solver

#: schema tag written into every report (bump on breaking changes)
REPORT_SCHEMA = "repro.run_report/1"


def build_run_report(solver: "Solver", workload: Optional[str] = None,
                     backward_error: Optional[float] = None
                     ) -> Dict[str, Any]:
    """Aggregate one factorized :class:`~repro.core.solver.Solver` into a
    JSON-able ``RunReport`` dict.

    ``workload`` is a free-form label (e.g. ``"lap3d:16"``);
    ``backward_error`` lets the caller attach the residual of a solve it
    already performed.  The refinement and recovery sections come from
    ``solver.last_refinement`` / ``solver.last_recovery`` whether or not a
    telemetry store was attached; the ``telemetry`` section (series and
    event count) requires ``config.telemetry`` to have been set *before*
    ``factorize()``.
    """
    from dataclasses import asdict, replace

    from repro.analysis.metrics import (
        compression_report,
        rank_histogram,
        rank_histogram_by_level,
    )

    if solver.factor is None:
        raise ValueError("build_run_report needs a factorized solver")
    fac = solver.factor
    stats = fac.stats

    report: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "workload": workload,
        "matrix": {"n": solver.a.n, "nnz": solver.a.nnz},
        # the telemetry bus and span profiler are live runtime objects;
        # the report stores their *snapshots* below and the config
        # fields as null
        "config": asdict(replace(solver.config, telemetry=None,
                                 profiler=None)),
        "timings": {
            "analyze_time": solver.analyze_time,
            "factor_time": stats.total_time,
            "solve_time": stats.solve_time,
        },
        "stats": stats.summary(),
        "kernels": stats.kernels.as_dict(),
        "backend_kernel_calls": {
            phase: dict(calls)
            for phase, calls in stats.backend_calls_by_phase.items()},
        "nperturbed": fac.nperturbed,
        "pivoting": {
            "mode": solver.config.pivoting,
            "swaps": fac.pivot_swaps,
            "two_by_two": fac.pivots_2x2,
            "perturbations": fac.nperturbed,
            "growth": fac.pivot_growth,
        },
        "compression": compression_report(fac),
        "rank_histogram": {str(r): c
                           for r, c in sorted(rank_histogram(fac).items())},
        "rank_histogram_by_level": {
            str(lvl): {str(r): c for r, c in sorted(per.items())}
            for lvl, per in sorted(rank_histogram_by_level(fac).items())},
        "backward_error": backward_error,
    }

    res = solver.last_refinement
    report["refinement"] = None if res is None else {
        "residual_history": res.residual_history,
        "converged": bool(res.converged),
        "iterations": int(res.iterations),
        "stagnated": bool(res.stagnated),
        "diverged": bool(res.diverged),
        "backward_error": (float(res.backward_error)
                           if res.history else None),
    }

    # resolved BLR variant of the factorization (loop order, threshold
    # mode, effective compression threshold)
    v = fac.variant
    report["variants"] = {
        "strategy": solver.config.strategy,
        "order": None if v is None else v.order,
        "threshold_mode": None if v is None else v.threshold_mode,
        "recompress_updates": None if v is None else v.recompress,
        "comp_tol": fac.comp_tol,
        "comp_norm_ref": fac.comp_norm_ref,
        "global_norm": fac.global_norm,
    }

    # self-healing digest of the last recovery-enabled run (already plain
    # JSON: action dicts + counts), or null when recovery never engaged
    report["recovery"] = solver.last_recovery

    tele = solver.config.telemetry
    report["telemetry"] = None if tele is None else tele.snapshot()

    prof = solver.config.profiler
    if prof is None:
        report["profile"] = None
    else:
        from repro.analysis.profile import phase_rollup, task_summary

        doc = prof.to_json()
        report["profile"] = {**phase_rollup(doc),
                             "tasks": task_summary(doc)}
    return report


def save_run_report(report: Dict[str, Any],
                    path: Union[str, Path]) -> Path:
    """Write a report as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_run_report(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a report saved by :func:`save_run_report` (schema-checked)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "schema" not in data:
        raise ValueError(f"{path}: not a RunReport (no schema field)")
    if data["schema"] != REPORT_SCHEMA:
        raise ValueError(
            f"{path}: unsupported RunReport schema {data['schema']!r}")
    return data


# ----------------------------------------------------------------------
# attribution: this run against an older one (repro report --against)
# ----------------------------------------------------------------------

def _num(v: Any) -> Optional[float]:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    f = float(v)
    return f if math.isfinite(f) else None


def _delta(va: Optional[float], vb: Optional[float]) -> Optional[float]:
    return (vb - va) if (va is not None and vb is not None) else None


def _phase_times(report: Mapping[str, Any]) -> Dict[str, float]:
    """Per-phase seconds of a RunReport — profile section preferred,
    top-level timings as the fallback for pre-profile reports."""
    phases = (report.get("profile") or {}).get("phases") or {}
    out = {str(name): t for name, slot in phases.items()
           if (t := _num(slot.get("time"))) is not None}
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


def _rank_drift(a: Mapping[str, Any],
                b: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    ha = {int(r): int(c) for r, c in (a.get("rank_histogram") or {}).items()}
    hb = {int(r): int(c) for r, c in (b.get("rank_histogram") or {}).items()}
    na, nb = sum(ha.values()), sum(hb.values())
    if na == 0 or nb == 0:
        return None
    mean_a = sum(r * c for r, c in ha.items()) / na
    mean_b = sum(r * c for r, c in hb.items()) / nb
    l1 = sum(abs(ha.get(r, 0) / na - hb.get(r, 0) / nb)
             for r in set(ha) | set(hb))
    return {"mean_rank_a": mean_a, "mean_rank_b": mean_b,
            "mean_rank_delta": mean_b - mean_a, "l1_distance": l1}


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

    ``a`` is the old run, ``b`` the new one.  Returns a plain-JSON dict
    with phase rows ranked by absolute time delta, the per-level task-time
    drift, byte/rank/recovery deltas, and ``top_regression`` — the phase
    that lost the most time.
    """
    from repro.analysis.profile import PHASES

    ta, tb = _phase_times(a), _phase_times(b)
    order = {name: i for i, name in enumerate(PHASES)}
    rows: List[Dict[str, Any]] = []
    for name in sorted(set(ta) | set(tb),
                       key=lambda n: order.get(n, len(PHASES))):
        va, vb = ta.get(name), tb.get(name)
        ratio = vb / va if (va and vb is not None) else None
        rows.append({"phase": name, "a": va, "b": vb,
                     "delta": _delta(va, vb), "ratio": ratio})
    rows.sort(key=lambda r: -(abs(r["delta"]) if r["delta"] is not None
                              else -1.0))
    regressions = [r for r in rows
                   if r["delta"] is not None and r["delta"] > 0.0]

    nb_a = _num((a.get("compression") or {}).get("total_nbytes"))
    nb_b = _num((b.get("compression") or {}).get("total_nbytes"))
    bytes_row = None
    if nb_a is not None and nb_b is not None:
        bytes_row = {"a": nb_a, "b": nb_b, "delta": nb_b - nb_a}

    rec_a, rec_b = _recovery_counts(a), _recovery_counts(b)
    recovery = [{"action": k, "a": rec_a.get(k, 0), "b": rec_b.get(k, 0),
                 "delta": rec_b.get(k, 0) - rec_a.get(k, 0)}
                for k in sorted(set(rec_a) | set(rec_b))]

    la = (a.get("profile") or {}).get("by_level") or {}
    lb = (b.get("profile") or {}).get("by_level") or {}
    levels = []
    for lvl in sorted(set(la) | set(lb), key=int):
        va = _num((la.get(lvl) or {}).get("time"))
        vb = _num((lb.get(lvl) or {}).get("time"))
        levels.append({"level": int(lvl), "a": va, "b": vb,
                       "delta": _delta(va, vb)})

    return {
        "workload_a": a.get("workload"),
        "phases": rows,
        "by_level": levels,
        "factor_bytes": bytes_row,
        "rank_drift": _rank_drift(a, b),
        "recovery": recovery,
        "top_regression": regressions[0]["phase"] if regressions else None,
    }


# ----------------------------------------------------------------------
# markdown rendering
# ----------------------------------------------------------------------

def _fmt(v: Any) -> str:
    if v is None:
        return "—"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if v == 0.0:
            return "0"
        if abs(v) >= 1e5 or abs(v) < 1e-3:
            return f"{v:.3e}"
        return f"{v:.4g}"
    return str(v)


def _fmt_bytes(v: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(v) < 1024.0:
            return f"{v:.1f} {unit}"
        v /= 1024.0
    return f"{v:.1f} TB"


def _table(headers: List[str], rows: List[List[Any]]) -> List[str]:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(_fmt(c) for c in row) + " |")
    return out


def _signed(v: Optional[float]) -> str:
    return "—" if v is None else f"{v:+.4g}"


def _attribution_section(att: Mapping[str, Any]) -> List[str]:
    """The ``--against`` section: :func:`report_attribution` as tables."""
    lines = [f"## Against {att.get('workload_a') or 'the old run'}", ""]
    top = att.get("top_regression")
    lines.append(f"Largest regression: **{top}**." if top is not None
                 else "No phase regressed.")
    lines.append("")
    lines += _table(
        ["phase", "old (s)", "new (s)", "Δ (s)", "Δ%"],
        [[r["phase"], r["a"], r["b"], _signed(r["delta"]),
          "—" if r["ratio"] is None
          else f"{(r['ratio'] - 1.0) * 100.0:+.1f}%"]
         for r in att["phases"]])
    lines.append("")
    levels = [r for r in att["by_level"] if r["delta"] is not None]
    if levels:
        lines += _table(
            ["level", "old task time (s)", "new task time (s)", "Δ (s)"],
            [[r["level"], r["a"], r["b"], _signed(r["delta"])]
             for r in sorted(levels, key=lambda r: -abs(r["delta"]))])
        lines.append("")
    nbytes = att.get("factor_bytes")
    if nbytes is not None:
        lines.append(f"Factor bytes: {nbytes['a']:.0f} → {nbytes['b']:.0f} "
                     f"({nbytes['delta']:+.0f} B)")
    drift = att.get("rank_drift")
    if drift is not None:
        lines.append(
            f"Rank drift: mean {drift['mean_rank_a']:.2f} → "
            f"{drift['mean_rank_b']:.2f} ({drift['mean_rank_delta']:+.2f}), "
            f"histogram L1 distance {drift['l1_distance']:.3f}")
    moved = [r for r in att["recovery"] if r["delta"]]
    if moved:
        lines.append("")
        lines += _table(["recovery action", "old", "new", "Δ"],
                        [[r["action"], r["a"], r["b"], f"{r['delta']:+d}"]
                         for r in moved])
    lines.append("")
    return lines


def render_markdown(report: Dict[str, Any],
                    figures: Optional[List[Path]] = None,
                    against: Optional[Dict[str, Any]] = None) -> str:
    """Render a ``RunReport`` dict to a human-readable markdown document.

    ``figures`` (paths from :func:`render_figures`) are embedded as image
    links exactly as given, so pass them relative to the directory the
    markdown is written to.  ``against`` is an older RunReport: a last
    section then ranks what moved between it and ``report``
    (:func:`report_attribution`).
    """
    cfg = report.get("config", {})
    matrix = report.get("matrix", {})
    lines: List[str] = []
    title = report.get("workload") or "solver run"
    lines.append(f"# Run report — {title}")
    lines.append("")
    lines.append(f"Strategy `{cfg.get('strategy')}` / kernel "
                 f"`{cfg.get('kernel')}`, τ = {_fmt(cfg.get('tolerance'))}, "
                 f"factotype `{cfg.get('factotype')}`, "
                 f"threads {cfg.get('threads')}.")
    lines.append("")

    lines.append("## Problem and timings")
    lines.append("")
    t = report.get("timings", {})
    lines += _table(
        ["metric", "value"],
        [["n", matrix.get("n")],
         ["nnz", matrix.get("nnz")],
         ["analyze time (s)", t.get("analyze_time")],
         ["factor time (s)", t.get("factor_time")],
         ["solve time (s)", t.get("solve_time")],
         ["backward error", report.get("backward_error")],
         ["pivot perturbations", report.get("nperturbed")]])
    lines.append("")

    pivoting = report.get("pivoting", {})
    if pivoting.get("mode") == "threshold":
        lines.append("## Pivoting (threshold/2x2)")
        lines.append("")
        lines += _table(
            ["metric", "value"],
            [["pivot swaps", pivoting.get("swaps")],
             ["2x2 pivots", pivoting.get("two_by_two")],
             ["perturbations", pivoting.get("perturbations")],
             ["growth factor", pivoting.get("growth")]])
        lines.append("")

    kernels = report.get("kernels", {})
    if kernels:
        lines.append("## Kernel breakdown (Table 2 rows)")
        lines.append("")
        rows = [[cat, d.get("time"), d.get("flops"), d.get("calls")]
                for cat, d in sorted(kernels.items())]
        lines += _table(["kernel", "time (s)", "flops", "calls"], rows)
        lines.append("")

    calls = report.get("backend_kernel_calls") or {}
    if calls:
        lines.append("## Backend kernel calls")
        lines.append("")
        phases = sorted(calls)
        ops = sorted({op for per in calls.values() for op in per})
        lines += _table(["op", *phases],
                        [[op, *(calls[p].get(op, 0) for p in phases)]
                         for op in ops])
        lines.append("")

    comp = report.get("compression")
    if comp:
        lines.append("## Compression")
        lines.append("")
        lines += _table(
            ["metric", "value"],
            [["low-rank blocks", comp.get("n_lowrank_blocks")],
             ["dense blocks", comp.get("n_dense_blocks")],
             ["factor size", _fmt_bytes(comp.get("total_nbytes", 0))],
             ["dense-equivalent size",
              _fmt_bytes(comp.get("dense_factor_nbytes", 0))],
             ["memory ratio", comp.get("memory_ratio")],
             ["mean rank", comp.get("mean_rank")],
             ["max rank", comp.get("max_rank")]])
        lines.append("")

    by_level = report.get("rank_histogram_by_level") or {}
    if by_level:
        lines.append("## Ranks by elimination level")
        lines.append("")
        rows = []
        for lvl, per in sorted(by_level.items(), key=lambda kv: int(kv[0])):
            ranks = sorted(int(r) for r in per)
            nblk = sum(per.values())
            mean = (sum(int(r) * c for r, c in per.items()) / nblk
                    if nblk else 0.0)
            rows.append([lvl, nblk, ranks[0] if ranks else 0,
                         ranks[-1] if ranks else 0, mean])
        lines += _table(["level", "blocks", "min rank", "max rank",
                         "mean rank"], rows)
        lines.append("")

    ref = report.get("refinement")
    if ref:
        lines.append("## Refinement")
        lines.append("")
        hist = ref.get("residual_history") or []
        lines += _table(
            ["metric", "value"],
            [["iterations", ref.get("iterations")],
             ["converged", ref.get("converged")],
             ["final backward error", ref.get("backward_error")]])
        if hist:
            lines.append("")
            lines.append("Residual history: "
                         + ", ".join(_fmt(h) for h in hist))
        lines.append("")

    var = report.get("variants")
    if var:
        lines.append("## BLR variant")
        lines.append("")
        lines += _table(
            ["metric", "value"],
            [["loop order", var.get("order") or "dense"],
             ["threshold mode", var.get("threshold_mode")],
             ["recompress updates", var.get("recompress_updates")],
             ["effective τ", var.get("comp_tol")],
             ["norm reference", var.get("comp_norm_ref")],
             ["‖A‖_F", var.get("global_norm")]])
        lines.append("")

    rec = report.get("recovery")
    if rec:
        lines.append("## Recovery")
        lines.append("")
        lines += _table(
            ["metric", "value"],
            [["attempts", rec.get("attempts")],
             ["final tolerance", rec.get("final_tolerance")],
             ["final strategy", rec.get("final_strategy")]])
        counts = rec.get("counts") or {}
        if counts:
            lines.append("")
            lines += _table(["action", "count"],
                            [[k, v] for k, v in sorted(counts.items())])
        lines.append("")

    tele = report.get("telemetry")
    if tele:
        lines.append("## Telemetry")
        lines.append("")
        series = tele.get("series", {})
        if series:
            rows = [[name, len(pts)] for name, pts in sorted(series.items())]
            lines += _table(["series", "points"], rows)
            lines.append("")
        lines.append(f"Events emitted: {tele.get('events_emitted', 0)}")
        lines.append("")

    profile = report.get("profile")
    if profile:
        lines.append("## Profile")
        lines.append("")
        meta = profile.get("meta") or {}
        engine = meta.get("engine")
        total = profile.get("total_time")
        head = f"Span total {_fmt(total)} s"
        if engine:
            head += (f" — engine `{engine}`, "
                     f"{meta.get('threads', '?')} thread(s)")
        lines.append(head + ".")
        lines.append("")
        phases = profile.get("phases") or {}
        if phases:
            rows = [[name, d.get("time"), d.get("self_time"),
                     d.get("count")]
                    for name, d in sorted(
                        phases.items(),
                        key=lambda kv: -kv[1].get("time", 0.0))]
            lines += _table(["phase", "time (s)", "self (s)", "spans"],
                            rows)
            lines.append("")
        kern = profile.get("kernels") or {}
        if kern:
            rows = [[name, d.get("time"), d.get("count")]
                    for name, d in sorted(
                        kern.items(),
                        key=lambda kv: -kv[1].get("time", 0.0))]
            lines += _table(["kernel spans", "time (s)", "spans"], rows)
            lines.append("")
        by_level = profile.get("by_level") or {}
        if by_level:
            rows = [[lvl, d.get("time"), d.get("count")]
                    for lvl, d in sorted(by_level.items(),
                                         key=lambda kv: int(kv[0]))]
            lines += _table(["level", "task time (s)", "tasks"], rows)
            lines.append("")

    # reports written before the span profile carried the task summary
    # hold it (or null) under a top-level "trace" key
    tasks = (profile or {}).get("tasks") or report.get("trace")
    if tasks:
        lines.append("## Task trace")
        lines.append("")
        lines += _table(
            ["metric", "value"],
            [[k, tasks[k]] for k in sorted(tasks)
             if isinstance(tasks[k], (int, float, str, bool))])
        lines.append("")

    if figures:
        lines.append("## Figures")
        lines.append("")
        for fig in figures:
            lines.append(f"![{Path(fig).stem}]({fig})")
        lines.append("")

    if against is not None:
        lines += _attribution_section(report_attribution(against, report))

    return "\n".join(lines).rstrip() + "\n"


def render_figures(report: Dict[str, Any],
                   outdir: Union[str, Path]) -> List[Path]:
    """Render the report's telemetry series as SVG line charts.

    Produces (when the corresponding series has data) the memory
    high-water timeline (Figure 7's y-axis over time), the rank-evolution
    scatter of the Minimal Memory discussion, and the Figure 8-style
    refinement convergence curve.  Returns the written paths.
    """
    from repro.analysis.charts import Series, line_chart

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tele = report.get("telemetry") or {}
    series = tele.get("series", {})
    written: List[Path] = []

    mem = series.get("memory_highwater") or []
    if len(mem) > 1:
        xs = [p["t"] for p in mem]
        written.append(line_chart(
            outdir / "memory_highwater.svg", xs,
            [Series("peak (MB)", [p["peak"] / 1e6 for p in mem]),
             Series("current (MB)", [p["current"] / 1e6 for p in mem])],
            title="Tracked memory high-water timeline",
            xlabel="seconds", ylabel="MB", markers=False))

    ranks = series.get("rank_evolution") or []
    if len(ranks) > 1:
        xs = [p["t"] for p in ranks]
        written.append(line_chart(
            outdir / "rank_evolution.svg", xs,
            [Series("rank after", [max(p["rank_after"], 0) for p in ranks])],
            title="Rank evolution (compress + recompress sites)",
            xlabel="seconds", ylabel="rank", markers=True))

    ref = (report.get("refinement") or {}).get("residual_history") or []
    if len(ref) > 1:
        written.append(line_chart(
            outdir / "refinement_residual.svg", list(range(len(ref))),
            [Series("backward error", list(ref))],
            title="Refinement convergence",
            xlabel="iteration", ylabel="backward error", log_y=True))
    return written
