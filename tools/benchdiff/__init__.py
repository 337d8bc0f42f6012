"""benchdiff — compare two benchmark/RunReport JSON artifacts.

CI needs a gate, not a dashboard: given a committed baseline and a fresh
run, decide whether the new numbers are acceptable.  The comparison is
deliberately asymmetric across metric classes:

* **time metrics** (``facto_time_s``, ``solve_time_s``, ``factor_time``)
  only *warn* on slowdowns — wall-clock on shared CI runners is noisy, and
  a hard gate on it would flake;
* **byte metrics** (``factor_nbytes``, ``peak_nbytes``) *fail* on
  regressions beyond the threshold — memory of a deterministic
  factorization is reproducible, so growth is a real regression;
* **accuracy** (``backward_error``) *fails* when it degrades by more than
  a configurable factor — the paper's τ-accuracy contract is the one
  property a BLR solver must never silently lose;
* **speedup metrics** (``multirhs_speedup``) *fail* when the current
  value drops below an absolute floor — the blocked multi-RHS solve must
  stay meaningfully faster than sequential single-RHS solves, regardless
  of what the baseline measured.

Inputs may be ``BENCH_*.json`` files (both the current history format and
the legacy single-run layout) or ``RunReport`` artifacts
(:mod:`repro.analysis.report`); the two files must be the same flavour.

Exit codes: ``0`` no findings (or warnings only), ``1`` at least one
failure (or any warning under ``--fail-on-warn``), ``2`` usage error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = [
    "Finding",
    "Thresholds",
    "compare",
    "extract_metrics",
    "load_artifact",
    "render_findings",
]

#: metrics compared, with their class ("time" warns, "bytes"/"error"
#: fail on ratio regressions, "speedup" fails below an absolute floor)
METRIC_CLASSES: Dict[str, str] = {
    "facto_time_s": "time",
    "solve_time_s": "time",
    "solve_seq_time_s": "time",
    "analyze_time": "time",
    "factor_time": "time",
    "solve_time": "time",
    "factor_nbytes": "bytes",
    "peak_nbytes": "bytes",
    "backward_error": "error",
    "multirhs_speedup": "speedup",
}


@dataclass(frozen=True)
class Thresholds:
    """Per-class regression tolerances (ratios above 1.0).

    ``time_warn=0.25`` warns when a time metric grows by more than 25 %;
    ``bytes_fail=0.10`` fails when a byte metric grows by more than 10 %;
    ``error_fail=10.0`` fails when the backward error degrades by more
    than a factor of 10 (errors are compared multiplicatively — they live
    on a log scale); ``speedup_floor=2.0`` fails when a speedup metric
    falls below 2x (an absolute gate, not a baseline ratio — a slow
    baseline must not grandfather in a slow current run).  The floor was
    3x until single-RHS solves stopped running interpreted row sweeps:
    that made the sequential side of ``multirhs_speedup`` ~2.1x faster
    while the blocked solve held its time.
    """

    time_warn: float = 0.25
    bytes_fail: float = 0.10
    error_fail: float = 10.0
    speedup_floor: float = 2.0


@dataclass(frozen=True)
class Finding:
    """One detected regression."""

    severity: str  # "warn" | "fail"
    label: str
    metric: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.current else 1.0
        return self.current / self.baseline

    def describe(self) -> str:
        return (f"[{self.severity.upper()}] {self.label}: {self.metric} "
                f"{self.baseline:.6g} -> {self.current:.6g} "
                f"({self.ratio:.2f}x)")


def load_artifact(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a JSON artifact, raising ``ValueError`` on non-JSON input."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: cannot read artifact ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return data


def extract_metrics(data: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Normalize an artifact into ``{label: {metric: value}}``.

    Understands three layouts: bench history files (``history`` array —
    the *last* entry is compared), legacy single-run bench files (a
    top-level ``results`` array), and RunReport documents.
    """
    if data.get("schema", "").startswith("repro.run_report"):
        out: Dict[str, float] = {}
        timings = data.get("timings") or {}
        for k in ("analyze_time", "factor_time", "solve_time"):
            if isinstance(timings.get(k), (int, float)):
                out[k] = float(timings[k])
        stats = data.get("stats") or {}
        for k in ("factor_nbytes", "peak_nbytes"):
            if isinstance(stats.get(k), (int, float)):
                out[k] = float(stats[k])
        if isinstance(data.get("backward_error"), (int, float)):
            out["backward_error"] = float(data["backward_error"])
        label = str(data.get("workload") or "run")
        return {label: out}

    if "history" in data:
        history = data["history"]
        if not isinstance(history, list) or not history:
            raise ValueError("bench artifact has an empty history")
        results = history[-1].get("results", [])
    elif "results" in data:  # legacy single-run layout
        results = data["results"]
    else:
        raise ValueError(
            "unrecognized artifact: neither a RunReport (schema field) "
            "nor a bench file (history/results field)")

    table: Dict[str, Dict[str, float]] = {}
    for rec in results:
        label = str(rec.get("label", "?"))
        table[label] = {k: float(v) for k, v in rec.items()
                        if k in METRIC_CLASSES
                        and isinstance(v, (int, float))}
    return table


def _floor_findings(label: str, metrics: Dict[str, float],
                    th: Thresholds) -> List[Finding]:
    """Absolute-floor checks that apply without a baseline (speedups)."""
    return [
        Finding("fail", label, metric, th.speedup_floor, cv)
        for metric, cv in sorted(metrics.items())
        if METRIC_CLASSES[metric] == "speedup" and cv < th.speedup_floor
    ]


def compare(baseline: Dict[str, Any], current: Dict[str, Any],
            thresholds: Optional[Thresholds] = None
            ) -> Tuple[List[Finding], List[str]]:
    """Diff two artifacts; returns ``(findings, notes)``.

    ``notes`` reports labels/metrics present on one side only (these are
    informational, never failures: adding a variant must not break CI).
    The exception is the absolute ``speedup`` class: its floor applies to
    the *current* value even when the label or metric has no baseline —
    a brand-new speedup entry below the floor is already a failure (the
    finding's ``baseline`` field then reports the floor itself).
    """
    th = thresholds or Thresholds()
    base = extract_metrics(baseline)
    cur = extract_metrics(current)
    findings: List[Finding] = []
    notes: List[str] = []

    for label in sorted(set(base) | set(cur)):
        if label not in cur:
            notes.append(f"label {label!r} missing from current run")
            continue
        if label not in base:
            notes.append(f"label {label!r} is new (no baseline)")
            findings.extend(_floor_findings(label, cur[label], th))
            continue
        b, c = base[label], cur[label]
        for metric in sorted(set(b) | set(c)):
            if metric not in c:
                notes.append(f"{label}: metric {metric!r} missing "
                             "from current run")
                continue
            if metric not in b:
                notes.append(f"{label}: metric {metric!r} is new")
                findings.extend(_floor_findings(
                    label, {metric: c[metric]}, th))
                continue
            bv, cv = b[metric], c[metric]
            cls = METRIC_CLASSES[metric]
            if cls == "time":
                if bv > 0 and cv > bv * (1.0 + th.time_warn):
                    findings.append(Finding("warn", label, metric, bv, cv))
            elif cls == "bytes":
                if bv > 0 and cv > bv * (1.0 + th.bytes_fail):
                    findings.append(Finding("fail", label, metric, bv, cv))
            elif cls == "speedup":
                if cv < th.speedup_floor:
                    findings.append(Finding("fail", label, metric, bv, cv))
            else:  # error
                if bv > 0 and cv > bv * th.error_fail:
                    findings.append(Finding("fail", label, metric, bv, cv))
    return findings, notes


def render_findings(findings: List[Finding], notes: List[str]) -> str:
    """Human-readable comparison summary."""
    lines: List[str] = []
    for f in findings:
        lines.append(f.describe())
    for n in notes:
        lines.append(f"[NOTE] {n}")
    if not findings:
        lines.append("benchdiff: no regressions detected")
    return "\n".join(lines)
