"""``compare A B``: judge result set B against base A with the benchmark's
own bounds.  stdlib only — it never loads numpy or the solver.

A result set is a directory of ``run`` result files, any number per
workload.  With several files per workload a metric is the median of the
files' values and its quartiles are theirs; with one file it is that run's
value and the quartiles are those of the run's own samples.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Tuple

from . import env

Summary = Tuple[float, float, float]     # value, q1, q3


def load_set(directory: Path) -> Dict[str, List[Dict[str, Any]]]:
    """``run`` result documents of a directory, grouped by workload."""
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("benchmark") == "layerbench" and doc.get("kind") == "run":
            runs.setdefault(doc["workload"], []).append(doc)
    return runs


def summarize(docs: List[Dict[str, Any]], metric: str) -> Summary:
    values = [d["metrics"][metric]["value"] for d in docs]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q1, q3
    m = docs[0]["metrics"][metric]
    return m["value"], m.get("q1", m["value"]), m.get("q3", m["value"])


def verdict(a: Summary, b: Summary, bound: float, better: str) -> str:
    """``better`` / ``same`` / ``worse`` by the two values and the bound;
    ``unresolved`` when the two interquartile ranges overlap and either is
    wider than the bound, so the runs cannot tell."""
    (med_a, q1_a, q3_a), (med_b, q1_b, q3_b) = a, b
    spread = max((q3_a - q1_a) / abs(med_a), (q3_b - q1_b) / abs(med_b))
    overlap = q1_b <= q3_a and q1_a <= q3_b
    if spread > bound and overlap:
        return "unresolved"
    change = med_b / med_a - 1.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print one row per workload × end-to-end metric; 1 on any ``worse``,
    2 when the sets share no workload."""
    spec = env.load_spec()
    set_a, set_b = load_set(dir_a), load_set(dir_b)
    common = sorted(set(set_a) & set(set_b))
    if not common:
        print(f"no workload has run results in both {dir_a} and {dir_b}")
        return 2
    print(f"base A = {dir_a}\n     B = {dir_b}\n")
    print(f"{'workload':<12} {'metric':<20} {'A':>12} {'B':>12}"
          f" {'B/A':>8}  {'bound':>5}  verdict")
    worse = 0
    for workload in common:
        for m in spec["end_to_end"]:
            a = summarize(set_a[workload], m["name"])
            b = summarize(set_b[workload], m["name"])
            v = verdict(a, b, m["bound"], m["better"])
            worse += v == "worse"
            print(f"{workload:<12} {m['name']:<20} {a[0]:>12.6g} "
                  f"{b[0]:>12.6g} {b[0] / a[0]:>8.4f}  {m['bound']:>5.2f}  {v}"
                  f"  ({len(set_a[workload])} vs {len(set_b[workload])} runs,"
                  f" {m['unit']})")
    print(f"\n{worse} worse")
    return 1 if worse else 0
