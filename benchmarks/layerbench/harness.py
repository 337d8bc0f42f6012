"""What the untraced and the traced run share: set-up, sample statistics,
the declared-metrics-only result container, and the output formats."""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro import Solver
from repro.sparse.generators import laplacian_3d

from . import env
from .oracle import Checks, Oracle
from .workloads import WORKLOADS, Workload

#: width of the multi-right-hand-side panel
PANEL = 16
#: tolerance refinement runs to.  The solver's default (1e-12) sits inside
#: the seed-to-seed range of lap24-mm's second iterate (0.6e-12..2.7e-12), so
#: the iteration count, and refine_s with it, would flip between 2 and 3 with
#: the seed; 1e-11 is at least 5x away from every workload's iterates
REFINE_TOL = 1e-11
#: set-up is repeated so that one disturbed pass does not set the number:
#: in-process passes of everything but the imports, fresh interpreters for those
SETUP_PASSES = 6
IMPORT_PASSES = 6


def timed(fn: Any, *args: Any, **kwargs: Any) -> Any:
    """``(CPU seconds, result)`` of one call.  CPU, not wall: when the
    hypervisor takes this box's cores away the wall clock counts it and the
    CPU clock does not (see ``probe``)."""
    t0 = time.process_time()
    out = fn(*args, **kwargs)
    return time.process_time() - t0, out


def summarize(values: List[float], **beside: Any) -> Dict[str, Any]:
    """The median of the values, with quartiles and count, and whatever else
    was read beside them.  No tail percentile is claimed: no run has ten
    samples beyond one."""
    out: Dict[str, Any] = {"value": statistics.median(values),
                           "stat": "median", "n": len(values),
                           "samples": list(values), **beside}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out.update(q1=q1, q3=q3)
    return out


@dataclass
class Problem:
    """One workload's inputs, as the solver receives them."""

    workload: Workload
    grid: int
    seed: int
    a: Any                      # repro CSCMatrix
    oracle: Oracle              # scipy's copy of it
    rhs: np.ndarray             # (n, PANEL); column 0 is "b"
    setup_s: float              # import + fastest set-up pass, CPU seconds
    generate_s: float           # fastest matrix build inside the passes


def setup(name: str, grid: int, seed: int) -> Problem:
    """Build the matrix and right-hand sides, and warm up on ``lap3d(6)`` so
    lazy imports and BLAS initialisation stay out of the timings.

    ``setup_s`` is the fastest fresh-interpreter import plus the fastest
    pass of everything else."""
    workload = WORKLOADS[name]
    import_s = min(env.fresh_import_seconds(IMPORT_PASSES))
    passes, generate = [], []
    for _ in range(SETUP_PASSES):
        t0 = time.process_time()
        dt, a = timed(workload.build_matrix, grid)
        generate.append(dt)
        oracle = Oracle(a)
        # b = A·x for seeded Gaussian x: every eigenmode is excited alike, so
        # the backward error depends on the factorization, not on which few
        # smooth modes a Gaussian b happens to hit (that swings it by 40 %)
        rhs = oracle.csr @ np.random.default_rng(seed).standard_normal(
            (a.n, PANEL))
        small = laplacian_3d(6)
        warm = Solver(small, workload.config())
        warm.analyze()
        warm.factorize()
        warm.refine(np.ones(small.n), x0=warm.solve(np.ones(small.n)),
                    tol=REFINE_TOL)
        passes.append(time.process_time() - t0)
    return Problem(workload, grid, seed, a, oracle, rhs,
                   setup_s=import_s + min(passes), generate_s=min(generate))


class Result:
    """Metrics of one run; only names declared in ``BENCHMARK.json`` fit."""

    #: which list of ``BENCHMARK.json`` each kind of run reports
    SECTION = {"run": "end_to_end", "trace": "per_layer"}

    def __init__(self, kind: str, problem: Problem,
                 seconds: Optional[float] = None) -> None:
        spec = env.load_spec()
        self.units = {m["name"]: m["unit"] for m in spec[self.SECTION[kind]]}
        self.doc: Dict[str, Any] = {
            "benchmark": "layerbench", "kind": kind,
            "workload": problem.workload.name, "grid": problem.grid,
            "seed": problem.seed, "seconds": seconds, "env": env.stamp(),
            "metrics": {}}

    def put(self, name: str, value: float, **extra: Any) -> None:
        self.doc["metrics"][name] = {
            "value": value, "unit": self.units[name], **extra}

    def put_samples(self, name: str, values: List[float],
                    **beside: Any) -> None:
        self.doc["metrics"][name] = {
            **summarize(values, **beside), "unit": self.units[name]}

    def value(self, name: str) -> float:
        return self.doc["metrics"][name]["value"]

    def finish(self, checks: Checks, **sections: Any) -> None:
        missing = sorted(set(self.units) - set(self.doc["metrics"]))
        if missing:
            raise RuntimeError(f"declared metrics not measured: {missing}")
        self.doc.update(correct=checks.failed == 0,
                        ops_attempted=checks.attempted,
                        failed_ops=checks.failed, checks=checks.records,
                        **sections)

    def write(self, path: Optional[Path]) -> Path:
        if path is None:
            d = self.doc
            path = (env.ROOT / "benchmarks" / "layerbench" / "results"
                    / f"{d['kind']}-{d['workload']}-seed{d['seed']}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.doc, indent=1) + "\n",
                        encoding="utf-8")
        return path

    def report(self) -> None:
        """Every metric by name with its unit; the last line is the one
        JSON object the benchmark contract asks for."""
        d = self.doc
        print(f"layerbench {d['kind']}  workload={d['workload']}  "
              f"grid={d['grid']}  seed={d['seed']}")
        for name, m in {**d["metrics"], **d.get("stages", {})}.items():
            spread = (f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
                      if "q1" in m else "")
            note = ("  (derived)" if "derived" in m else
                    "  (stage, not a metric)" if name not in d["metrics"]
                    else "")
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}"
                  f"{spread}{note}")
        for c in d["checks"]:
            if not c["ok"]:
                print(f"  FAILED {c['name']}: {c['detail']}")
        print(f"  failed_ops {d['failed_ops']} of ops_attempted "
              f"{d['ops_attempted']}")
        print(json.dumps({
            "correct": d["correct"], "attempted": d["ops_attempted"],
            "failed": d["failed_ops"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in d["metrics"].items()}}))
