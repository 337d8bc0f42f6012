"""The untraced run: every end-to-end metric of one workload.

Closed loop, one client, one process, one thread.  A *round* is what a
user does — fresh ``Solver`` → ``analyze`` → ``factorize`` → ``solve(b)``
×6 → ``solve(B)`` (16 columns) → ``refine`` ×2 — and rounds repeat while
another one fits into ``--seconds`` (at least two), so each metric's samples
are spread over the whole run instead of bunched where the machine happened
to be slow.  Every call is timed on the CPU clock under the contention probe
(see ``probe``); a timing is the median over the run of the corrected
samples.  The five stages' own timings are not end-to-end metrics (the
traced run reports them as ``solver.*``); they go into the result file's
``stages`` and are printed.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Any, Dict, List

import numpy as np

from repro import Solver

from .harness import PANEL, REFINE_TOL, Problem, Result, summarize
from .oracle import Checks, at_most, relative_difference
from .probe import Probe, Sample
from .workloads import GRID

MIN_ROUNDS = 2
SOLVES_PER_ROUND = 6
REFINES_PER_ROUND = 2
#: accuracy a refined solution must reach, by the oracle's residual
REFINED_ERROR_LIMIT = 1e-10
#: and its distance to scipy's splu solution
REFERENCE_DIFF_LIMIT = 1e-6


def run(problem: Problem, seconds: float) -> Result:
    wl, a, rhs = problem.workload, problem.a, problem.rhs
    cfg = wl.config()
    b = rhs[:, 0]
    probe = Probe()
    timed = probe.timed
    stages: Dict[str, List[Sample]] = {
        k: [] for k in ("analyze_s", "factorize_s", "solve_s",
                        "solve_panel16_s", "refine_s")}
    to_solution: List[List[Sample]] = []   # per round: what a solution took
    factor_facts = []            # (total_flops, factor_bytes, peak_bytes)
    singles: Dict[int, np.ndarray] = {}   # column -> its single-RHS solve
    panel = refined = solver = None
    start = time.perf_counter()
    round_s = 0.0
    while (len(to_solution) < MIN_ROUNDS
           or time.perf_counter() - start + round_s <= seconds):
        round_start = time.perf_counter()
        solver = None            # free the previous factor first
        solver = Solver(a, cfg)
        analyzed, _ = timed(solver.analyze)
        stages["analyze_s"].append(analyzed)
        factorized, stats = timed(solver.factorize)
        stages["factorize_s"].append(factorized)
        factor_facts.append((stats.kernels.total_flops(),
                             stats.factor_nbytes, stats.peak_nbytes))
        first = len(stages["solve_s"])
        for i in range(SOLVES_PER_ROUND):
            j = (first + i) % PANEL
            dt, x = timed(solver.solve, rhs[:, j])
            stages["solve_s"].append(dt)
            singles.setdefault(j, x)
        dt, xs = timed(solver.solve, rhs)
        stages["solve_panel16_s"].append(dt)
        panel = xs if panel is None else panel
        for _ in range(REFINES_PER_ROUND):
            dt, res = timed(solver.refine, b, x0=singles[0], tol=REFINE_TOL)
            stages["refine_s"].append(dt)
            refined = res if refined is None else refined
        to_solution.append([analyzed, factorized, stages["solve_s"][first],
                            stages["refine_s"][-REFINES_PER_ROUND]])
        round_s = time.perf_counter() - round_start
    # high-water mark of the solver alone: read before the scipy oracle
    # factorizes the same matrix in this process
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    oracle = problem.oracle
    errors = [oracle.backward_error(panel[:, j], rhs[:, j])
              for j in range(PANEL)]
    checks = Checks()
    checks.check("solve.backward_error",
                 lambda: at_most(max(errors), wl.solve_error_limit))
    checks.check("refine.true_residual", lambda: at_most(
        oracle.backward_error(refined.x, b), REFINED_ERROR_LIMIT))
    checks.check("refine.vs_splu", lambda: at_most(
        relative_difference(refined.x, oracle.reference_solution(b)),
        REFERENCE_DIFF_LIMIT))
    for j, x in sorted(singles.items()):
        checks.check(f"panel.column{j}.bit_identical", lambda j=j, x=x: (
            np.array_equal(panel[:, j], x), "panel column vs single solve"))
    if wl.inertia is not None:
        checks.check("factor.inertia",
                     lambda: _inertia_matches(problem, solver))
    checks.check("factorize.repeats_exactly", lambda: (
        len(set(factor_facts)) == 1, f"{len(factor_facts)} factorizations"))

    def corrected(samples: List[Sample]) -> Dict[str, Any]:
        """``values`` and what was read beside them, for ``summarize``."""
        return dict(
            values=[probe.corrected(s) for s in samples],
            stat="median of contention-corrected CPU seconds",
            cpu_s=[s.cpu_s for s in samples],
            wall_s=[s.wall_s for s in samples],
            slowdown=[s.probe_mean_s / probe.reference_s() for s in samples])

    out = Result("run", problem, seconds)
    out.put("setup_s", problem.setup_s)
    out.put_samples(
        "time_to_solution_s",
        [sum(probe.corrected(s) for s in parts) for parts in to_solution],
        stat="median over the rounds of contention-corrected CPU seconds",
        derived="analyze + factorize + first solve(b) + first refine "
                "of each round",
        cpu_s=[sum(s.cpu_s for s in parts) for parts in to_solution],
        wall_s=[sum(s.wall_s for s in parts) for parts in to_solution])
    out.put_samples("solve_s", **corrected(stages["solve_s"]))
    flops, factor_bytes, peak_bytes = factor_facts[0]
    out.put("total_flops", flops)
    out.put("factor_bytes", factor_bytes)
    out.put("peak_bytes", peak_bytes)
    out.put("peak_rss_bytes", peak_rss)
    out.put("backward_error", statistics.median(errors),
            columns=PANEL, max=max(errors))
    out.finish(checks, rounds=len(to_solution),
               refine_iters=refined.iterations,
               stages={name: summarize(unit="s", **corrected(samples))
                       for name, samples in stages.items()},
               probe={"reference_s": probe.reference_s(),
                      "probes": len(probe.times),
                      "mean_s": statistics.fmean(probe.times),
                      "percentiles_s": dict(zip(
                          ("0", "0.1", "1", "5", "25", "50", "75", "95"),
                          np.percentile(probe.times, (
                              0, 0.1, 1, 5, 25, 50, 75, 95)).tolist()))})
    return out


def _inertia_matches(problem: Problem, solver: Any) -> Any:
    want = (problem.workload.inertia if problem.grid == GRID
            else problem.oracle.inertia())
    got = tuple(int(v) for v in solver.inertia())
    return got == tuple(want), f"{got} == {tuple(want)}"
