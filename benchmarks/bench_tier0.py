"""Tier-0 performance tracker: one fixed laptop-scale problem per dtype.

Unlike the paper-artifact benches (Tables 1/2, Figures 5-8), this harness
exists to track the *trajectory* of the solver's performance across PRs: a
single fixed workload — the 16³ 3D Laplacian under the Just-In-Time
strategy at τ=1e-6 — factored and solved in float64 and float32, and at
τ=1e-4, where compression discards enough for float32 storage.

Each run *appends* a timestamped record to the ``history`` array of
``BENCH_tier0.json`` at the repository root, so the file accumulates the
performance trajectory across commits; ``tools/benchdiff`` compares the
last entries of two such files (CI diffs the fresh run against the
committed baseline).  A pre-history file (single ``results`` layout) is
migrated in place on first touch.

Run directly::

    PYTHONPATH=src python benchmarks/bench_tier0.py [--report run.json]

``--report`` additionally re-runs the float64 variant with a telemetry
bus attached and writes the full ``RunReport`` artifact (rendered by
``python -m repro report``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional

if __name__ == "__main__":
    # BLAS sizes its thread pools when numpy loads, so pin one thread first
    # (as layerbench's env.py does): with a second BLAS thread on a 2-core
    # runner the blocked multi-RHS solve times the pool, not the solver
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

from repro import Solver, SolverConfig  # noqa: E402
from repro.sparse.generators import laplacian_3d  # noqa: E402

#: fixed workload: 16^3 Laplacian, JIT, τ=1e-6 (compare across commits!)
GRID = 16
TOLERANCE = 1e-6

#: keep at most this many history records (oldest dropped first)
HISTORY_LIMIT = 200

#: (label, config overrides) — the tracked precision variants plus the
#: two BLR strategies, labelled by their loop orders
VARIANTS = (
    ("float64", dict()),
    ("float32", dict(dtype="float32")),
    # at τ = 1e-4 compression discards enough for float32 storage
    ("float64+float32-storage", dict(tolerance=1e-4)),
    ("float64-variant-cuf", dict(strategy="minimal-memory")),
    ("float64-variant-ucf", dict(strategy="just-in-time")),
    ("float64-ldlt-pivot", dict(factotype="ldlt", pivoting="threshold")),
)


def _config(**overrides: Any) -> SolverConfig:
    base: Dict[str, Any] = dict(
        strategy="just-in-time", factotype="lu", tolerance=TOLERANCE,
        rank_ratio=1.0)
    base.update(overrides)
    return SolverConfig.laptop_scale(**base)


#: panel width of the multi-RHS variant (compare across commits!)
MULTIRHS_K = 16


def _narrowed(fac: Any) -> Optional[str]:
    """The narrow dtype some column block of ``fac`` is stored in, or
    ``None`` when every block kept the compute dtype."""
    narrow = {b.dtype for nc in fac.cblks for _, _, b in nc.stored()}
    narrow.discard(fac.dtype)
    return str(narrow.pop()) if narrow else None


def run_variant(a: Any, label: str, overrides: Dict[str, Any]) -> dict:
    solver = Solver(a, _config(**overrides))
    solver.analyze()
    t0 = time.perf_counter()
    stats = solver.factorize()
    facto_time = time.perf_counter() - t0
    b = np.ones(a.n)
    t0 = time.perf_counter()
    x = solver.solve(b)
    solve_time = time.perf_counter() - t0
    return {
        "label": label,
        "dtype": str(solver.factor.dtype),
        "storage_dtype": _narrowed(solver.factor),
        "analyze_time": solver.analyze_time,
        "facto_time_s": facto_time,
        "solve_time_s": solve_time,
        "factor_nbytes": int(stats.factor_nbytes),
        "dense_factor_nbytes": int(stats.dense_factor_nbytes),
        "peak_nbytes": int(stats.peak_nbytes),
        "backward_error": float(solver.backward_error(x, b)),
    }


def run_multirhs(a: Any, k: int = MULTIRHS_K) -> dict:
    """Blocked ``(n, k)`` solve vs ``k`` sequential single-RHS solves.

    The reported ``multirhs_speedup`` (sequential / blocked wall-clock)
    is gated by ``tools/benchdiff`` — a blocked solve that decays below
    the floor (2x) fails the bench regression job.  Both sides make one
    ``trtrs`` and one gemv per column and block, so the ratio is what one
    traversal of the block structure saves over sixteen.  It read
    7.5-7.7x over interpreted row sweeps, 3.6-3.8x once a single solve
    made one ``trtrs`` per column, and 4.7-5.9x since a solve is one
    batched sweep serving all its columns per step (one BLAS thread, 2-core
    x86 box, three runs a side).
    """
    solver = Solver(a, _config())
    solver.factorize()
    rng = np.random.default_rng(0)
    b = rng.standard_normal((a.n, k))
    solver.solve(b[:, :1])  # warm the solve path out of the timing
    t0 = time.perf_counter()
    x = solver.solve(b)
    blocked_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    cols = [solver.solve(np.ascontiguousarray(b[:, j])) for j in range(k)]
    seq_time = time.perf_counter() - t0
    # the blocked panel must be the per-column solves, bit for bit
    for j in range(k):
        if not np.array_equal(x[:, j], cols[j]):
            raise AssertionError(
                f"blocked column {j} differs from the single-RHS solve")
    err = max(
        float(np.linalg.norm(a.matvec(x[:, j]) - b[:, j])
              / np.linalg.norm(b[:, j]))
        for j in range(k))
    return {
        "label": f"float64-multirhs-k{k}",
        "dtype": str(solver.factor.dtype),
        "storage_dtype": None,
        "nrhs": k,
        "solve_time_s": blocked_time,
        "solve_seq_time_s": seq_time,
        "multirhs_speedup": seq_time / blocked_time,
        "backward_error": err,
    }


def migrate(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a pre-history single-run file into the history layout.

    The old file's ``results`` (and its ``python`` stamp) become history
    entry zero with a ``null`` timestamp — the run date was never
    recorded, and inventing one would corrupt the trajectory.
    """
    if "history" in payload:
        return payload
    entry = {
        "timestamp": None,
        "python": payload.pop("python", None),
        "results": payload.pop("results", []),
    }
    payload["history"] = [entry]
    return payload


def load_history(path: Path) -> Dict[str, Any]:
    """Load (and migrate if needed) the bench file; fresh dict if absent."""
    if path.exists():
        return migrate(json.loads(path.read_text(encoding="utf-8")))
    return {"history": []}


def write_run_report(a: Any, path: Path) -> Path:
    """Re-run the float64 variant with telemetry + span profiler on;
    write a RunReport (its ``profile`` section feeds ``repro report
    --against``)."""
    from repro.analysis.report import save_run_report
    from repro.runtime.spans import SpanProfiler
    from repro.runtime.telemetry import Telemetry

    telemetry = Telemetry()
    cfg = _config(telemetry=telemetry,
                  profiler=SpanProfiler(telemetry=telemetry))
    solver = Solver(a, cfg)
    solver.factorize()
    b = np.ones(a.n)
    x = solver.solve(b)
    res = solver.refine(b, x0=x)
    report = solver.run_report(
        workload=f"laplacian_3d({GRID})",
        backward_error=float(res.backward_error))
    return save_run_report(report, path)


def main(argv: Optional[List[str]] = None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", metavar="FILE",
                        help="also write a telemetry-enabled RunReport "
                             "for the float64 variant")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="bench history file (default: repo-root "
                             "BENCH_tier0.json)")
    args = parser.parse_args(argv)

    a = laplacian_3d(GRID)
    results = [run_variant(a, label, ov) for label, ov in VARIANTS]
    results.append(run_multirhs(a))

    path = (Path(args.output) if args.output else
            Path(__file__).resolve().parent.parent / "BENCH_tier0.json")
    payload = load_history(path)
    payload.update({
        "bench": "tier0",
        "workload": f"laplacian_3d({GRID})",
        "n": a.n,
        "nnz": a.nnz,
        "strategy": "just-in-time",
        "tolerance": TOLERANCE,
    })
    payload["history"].append({
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "results": results,
    })
    payload["history"] = payload["history"][-HISTORY_LIMIT:]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    w = max(len(r["label"]) for r in results)
    print(f"{'variant':>{w}} {'facto(s)':>9} {'solve(s)':>9} "
          f"{'factor MB':>10} {'backward':>10}")
    for r in results:
        if "facto_time_s" in r:
            print(f"{r['label']:>{w}} {r['facto_time_s']:9.2f} "
                  f"{r['solve_time_s']:9.3f} "
                  f"{r['factor_nbytes'] / 1e6:10.2f} "
                  f"{r['backward_error']:10.1e}")
        else:
            print(f"{r['label']:>{w}} {'-':>9} {r['solve_time_s']:9.3f} "
                  f"{'-':>10} {r['backward_error']:10.1e}  "
                  f"({r['multirhs_speedup']:.1f}x vs {r['nrhs']} "
                  f"sequential solves)")
    print(f"-> {path} ({len(payload['history'])} history entries)")

    if args.report:
        rpath = write_run_report(a, Path(args.report))
        print(f"run report -> {rpath}")
    return path


if __name__ == "__main__":
    main()
