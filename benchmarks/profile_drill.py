"""CI drill for the span profiler (``docs/observability.md``).

One program, three gates:

1. **Tree invariants** — a traced factorization must produce a healthy
   span tree (single root, no orphans, containment/ordering respected).
2. **Bit identity** — the profiled float64 factors must hash
   sha256-identical to an unprofiled run.
3. **Overhead** — profiling must not slow the factorization by more
   than 5% plus 0.02 s of absolute slack for runner noise (on
   ``--grid 10`` that slack is most of the allowance).

On success the traced run's span document is written out for the CI
artifact.

Run directly::

    PYTHONPATH=src python benchmarks/profile_drill.py [--grid 10]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path
from typing import Any, List, Optional, Tuple

import numpy as np

from repro import Solver, SolverConfig
from repro.analysis.profile import phase_rollup
from repro.runtime.spans import SpanProfiler
from repro.sparse.generators import laplacian_3d


def _config(**overrides: Any) -> SolverConfig:
    return SolverConfig.laptop_scale(
        strategy="just-in-time", kernel="rrqr", tolerance=1e-8, **overrides)


def factor_digest(solver: Solver) -> str:
    h = hashlib.sha256()
    for nc in solver.factor.cblks:
        h.update(np.ascontiguousarray(nc.diag).tobytes())
        for i in range(len(nc.sym.off_blocks())):
            blk = nc.lblock(i)
            if hasattr(blk, "u"):
                h.update(np.ascontiguousarray(blk.u).tobytes())
                h.update(np.ascontiguousarray(blk.v).tobytes())
            else:
                h.update(np.ascontiguousarray(blk).tobytes())
    return h.hexdigest()


def profiled_run(a: Any) -> Tuple[Solver, SpanProfiler]:
    prof = SpanProfiler()
    solver = Solver(a, _config(profiler=prof))
    solver.factorize()
    solver.solve(np.ones(a.n))
    prof.finish()
    return solver, prof


def overhead_bound(a: Any, reps: int = 3) -> Tuple[float, float]:
    """Best-of-``reps`` factorization time with and without the profiler."""

    def best_of(profile: bool, n: int = reps) -> float:
        times: List[float] = []
        for _ in range(n):
            cfg = _config(profiler=SpanProfiler() if profile else None)
            s = Solver(a, cfg)
            s.analyze()
            t0 = time.perf_counter()
            s.factorize()
            times.append(time.perf_counter() - t0)
        return min(times)

    best_of(False, n=1)  # warm the caches
    return best_of(False), best_of(True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=int, default=10,
                        help="laplacian_3d grid size (default 10)")
    parser.add_argument("--outdir", default=".",
                        help="directory for the span document artifact")
    args = parser.parse_args(argv)

    a = laplacian_3d(args.grid)
    print(f"workload: laplacian_3d({args.grid})  n={a.n} nnz={a.nnz}")

    # gates 1-2: invariants, bit identity -------------------------------
    baseline = Solver(a, _config())
    baseline.factorize()
    want_digest = factor_digest(baseline)

    solver, prof = profiled_run(a)
    problems = prof.check_invariants()
    if problems:
        for p in problems:
            print(f"  INVARIANT: {p}", file=sys.stderr)
        return 1
    digest = factor_digest(solver)
    if digest != want_digest:
        print(f"  BIT DRIFT: profiled factor digest {digest[:16]} != "
              f"unprofiled {want_digest[:16]}", file=sys.stderr)
        return 1
    print(f"  {len(prof.events())} spans, invariants clean, "
          f"digest {digest[:16]}")

    # gate 3: overhead ---------------------------------------------------
    t_off, t_on = overhead_bound(a)
    ratio = t_on / t_off if t_off > 0 else 1.0
    print(f"  overhead: off={t_off:.4f}s on={t_on:.4f}s ({ratio:.3f}x)")
    if t_on > 1.05 * t_off + 0.02:
        print("  OVERHEAD: profiling exceeds the 5% budget",
              file=sys.stderr)
        return 1

    # artifacts ----------------------------------------------------------
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    doc = prof.to_json(outdir / "profile_spans.json")
    roll = phase_rollup(doc)
    print(f"  phases: " + ", ".join(
        f"{name}={slot['time']:.3f}s"
        for name, slot in sorted(roll["phases"].items(),
                                 key=lambda kv: -kv[1]["time"])))
    print(f"  artifact -> {outdir}/profile_spans.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
