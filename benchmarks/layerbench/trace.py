"""The traced run: per-layer metrics of one workload (layer = ``src/repro``
sub-package), measured from outside.

One process does, under the benchmark's own span recorder:

``pipeline``   the workload twice, stage by stage: each stage first through
               the public ``Solver`` API (``reference.*`` spans, the clock
               the rest compares with), then by hand through the layers'
               public functions (``Graph.from_matrix`` →
               ``nested_dissection`` → ``symbolic_factorization`` →
               ``permute_symmetric`` → ``assemble`` → ``run_sequential`` →
               ``solve_factored`` → ``matvec``), one span per call, kernel
               tallies and backend op counts read at the same boundaries;
``observe``    ``Solver.factorize`` again with the program's own
               ``SpanProfiler`` + ``Telemetry`` attached, to price watching;
``micro``      direct calls of the low-rank kernels on seeded synthetic blocks.

End-to-end metrics never come from here.
"""

from __future__ import annotations

import statistics
import time
import uuid
from typing import Any, Callable, Dict, List

import numpy as np

from repro import Solver, SpanProfiler, Telemetry, get_backend
from repro.analysis.profile import phase_rollup
from repro.core.factor import assemble
from repro.core.scheduler import run_sequential
from repro.core.trisolve import solve_factored
from repro.lowrank.kernels import (
    compress_block,
    lr2ge_update,
    lr2lr_update,
    lr_product,
    rank_cap,
)
from repro.ordering.graph import Graph
from repro.ordering.nested_dissection import nested_dissection
from repro.runtime.stats import KERNEL_CATEGORIES
from repro.sparse.permute import permute_symmetric
from repro.symbolic.factorization import SymbolicOptions, symbolic_factorization

from .harness import REFINE_TOL, Problem, Result
from .oracle import Checks, at_most
from .spans import SpanRecorder, tree_problems
from .workloads import SHARED, TAU

#: repetitions of the cheap calls (solves, matvec) inside the traced run
REPS = 3
#: calls per micro-benchmarked kernel
MICRO_CALLS = 200
#: which layer owns each Table-2 kernel category
CATEGORY_LAYER = {"block_facto": "core", "panel_solve": "core",
                  "dense_update": "core", "compress": "lowrank",
                  "lr_product": "lowrank", "lr_addition": "lowrank"}
BACKEND_OPS = ("gemm", "trsm", "getrf", "ldlt_pivot", "panel_gemm",
               "panel_trsm", "lr_apply")
#: share of the traced wall time the top-level spans must cover
COVERAGE_LIMIT = 0.95


def trace(problem: Problem) -> Result:
    wl, a, rhs = problem.workload, problem.a, problem.rhs
    b = rhs[:, 0]
    rec = SpanRecorder(uuid.uuid4().hex)
    out = Result("trace", problem)
    checks = Checks()

    def spanned(name: str, fn: Callable[..., Any], *args: Any,
                **kwargs: Any) -> Any:
        with rec.span(name) as s:
            result = fn(*args, **kwargs)
        return s.duration, result

    with rec.span("trace") as root:
        # reference and replay go stage by stage, each reference stage right
        # before its replay, so that a noisy spell hits both halves of a pair
        with rec.span("pipeline"):
            cfg = wl.config()
            opts = SymbolicOptions.from_config(cfg)
            ref = Solver(a, cfg)
            analyze_s, _ = spanned("reference.analyze", ref.analyze)
            graph_s, g = spanned("ordering.graph", Graph.from_matrix, a)
            nd_s, nd = spanned("ordering.nd", nested_dissection, g,
                               cmin=opts.cmin)
            symbolic_s, (symb, perm) = spanned(
                "symbolic.analyze", symbolic_factorization, a, opts)

            factorize_s, ref_stats = spanned("reference.factorize",
                                             ref.factorize)
            permute_s, a_perm = spanned("sparse.permute", permute_symmetric,
                                        a, perm)
            backend = get_backend()
            ops_before = backend.counts_snapshot()
            assemble_s, fac = spanned("core.assemble", assemble, a_perm,
                                      symb, cfg)
            kernels = fac.stats.kernels
            kernel_s_assembled = kernels.total_time()
            numeric_s, _ = spanned("core.numeric", run_sequential, fac)
            kernel_s = kernels.total_time() - kernel_s_assembled

            solves, trisolves = [], []
            for i in range(REPS):
                solves.append(spanned("reference.solve", ref.solve, b))
                trisolves.append(spanned("core.trisolve", solve_factored,
                                         fac, b[perm]))
                if i == 0:
                    # one window over assemble + numeric + one single-RHS
                    # solve: factorization ops and solve-path ops never mix
                    ops = backend.counts_delta(ops_before)
            solve_s = min(dt for dt, _ in solves)
            trisolve_s = min(dt for dt, _ in trisolves)
            x_ref = solves[0][1]
            x_replay = np.empty_like(b)
            x_replay[perm] = trisolves[0][1]
            panel_s, _ = spanned("reference.solve_panel16", ref.solve, rhs)
            trisolve_panel_s, _ = spanned("core.trisolve_panel16",
                                          solve_factored, fac, rhs[perm])
            refine_s, refined = spanned("reference.refine", ref.refine, b,
                                        x0=x_ref, tol=REFINE_TOL)
            matvec_s = min(spanned("sparse.matvec", a.matvec, x_replay)[0]
                           for _ in range(REPS))
        replayed_factorize_s = permute_s + assemble_s + numeric_s
        stage_ratios = [symbolic_s / analyze_s,
                        replayed_factorize_s / factorize_s,
                        trisolve_panel_s / panel_s,
                        *(t[0] / r[0] for t, r in zip(trisolves, solves))]

        # -- observe: what the program's own instrumentation costs --------
        with rec.span("observe"):
            tele = Telemetry()
            prof = SpanProfiler(telemetry=tele)
            watched = Solver(a, wl.config(profiler=prof, telemetry=tele))
            # the analysis is value-free and already paid for above
            watched.symbolic, watched.perm = ref.symbolic, ref.perm
            observed_s, _ = spanned("runtime.observed_factorize",
                                    watched.factorize)
            doc = prof.to_json()
            rollup_s, rollup = spanned("analysis.rollup", phase_rollup, doc)

        with rec.span("micro"):
            micro = _micro_kernels(problem.seed, rec)

        with rec.span("checks"):
            oracle = problem.oracle
            checks.check("replay.equals_reference", lambda: (
                np.array_equal(x_replay, x_ref),
                "by-hand solve vs Solver.solve, bit for bit"))
            checks.check("replay.backward_error", lambda: at_most(
                oracle.backward_error(x_replay, b), wl.solve_error_limit))
            checks.check("replay.flops_equal_reference", lambda: (
                kernels.total_flops() == ref_stats.kernels.total_flops(),
                f"{kernels.total_flops()} == "
                f"{ref_stats.kernels.total_flops()}"))

    spans = rec.to_json()
    top = [s for s in spans["spans"] if s["parent"] == root.span_id]
    coverage = sum(s["end"] - s["start"] for s in top) / root.duration
    problems = tree_problems(spans)
    checks.check("spans.well_formed",
                 lambda: (not problems, "; ".join(problems) or "ok"))
    checks.check("spans.coverage", lambda: (
        coverage >= COVERAGE_LIMIT, f"{coverage:.4f} >= {COVERAGE_LIMIT}"))

    # -- the public Solver calls the layers below add up to ----------------
    out.put("solver.analyze_s", analyze_s)
    out.put("solver.factorize_s", factorize_s)
    out.put("solver.solve_s", solve_s)
    out.put("solver.solve_panel16_s", panel_s)
    out.put("solver.refine_s", refine_s)
    # -- sparse / ordering / symbolic --------------------------------------
    out.put("sparse.generate_s", problem.generate_s)
    out.put("sparse.permute_s", permute_s)
    out.put("sparse.matvec_s", matvec_s)
    out.put("ordering.graph_s", graph_s)
    out.put("ordering.nd_s", nd_s)
    out.put("ordering.nd_partitions", len(nd.partitions))
    out.put("symbolic.analyze_s", symbolic_s)
    out.put("symbolic.self_s", symbolic_s - graph_s - nd_s,
            derived="symbolic.analyze_s - ordering.graph_s - ordering.nd_s")
    out.put("symbolic.ncblk", symb.ncblk)
    out.put("symbolic.noffdiag_blocks", symb.total_off_blocks())
    out.put("symbolic.dense_factor_bytes", fac.dense_factor_nbytes())
    # -- core / lowrank, inside the factorization --------------------------
    out.put("core.assemble_s", assemble_s)
    out.put("core.numeric_s", numeric_s)
    for cat in KERNEL_CATEGORIES:
        prefix = f"{CATEGORY_LAYER[cat]}.{cat}"
        out.put(f"{prefix}_s", kernels.time(cat))
        out.put(f"{prefix}_flops", kernels.flop(cat))
        out.put(f"{prefix}_calls", kernels.call_count(cat))
    out.put("core.kernel_s", kernel_s)
    out.put("core.orchestration_frac", 1.0 - kernel_s / numeric_s,
            derived="1 - core.kernel_s / core.numeric_s")
    for op in BACKEND_OPS:
        out.put(f"core.backend_calls.{op}", ops.get(op, 0))
    out.put("core.blocks_compressed", ref_stats.nblocks_compressed)
    out.put("core.blocks_dense", ref_stats.nblocks_dense)
    attempts = kernels.call_count("compress")
    out.put("lowrank.compress_accept_ratio",
            ref_stats.nblocks_compressed / attempts if attempts else 0.0,
            derived="core.blocks_compressed / lowrank.compress_calls")
    # -- core, solve -------------------------------------------------------
    out.put("core.trisolve_s", trisolve_s)
    out.put("core.solve_wrap_s", solve_s - trisolve_s,
            derived="Solver.solve(b) - core.trisolve_s")
    out.put("core.trisolve_panel16_s", trisolve_panel_s)
    out.put("core.panel_per_rhs_ratio", panel_s / (16 * solve_s),
            derived="Solver.solve(B) / (16 * Solver.solve(b))")
    out.put("core.refine_iters", refined.iterations)
    for name, value in micro.items():
        out.put(name, value)
    # -- runtime / analysis ------------------------------------------------
    out.put("runtime.observe_overhead_frac",
            observed_s / min(factorize_s, replayed_factorize_s) - 1.0,
            derived="observed factorize / the faster of reference factorize "
                    "and replayed permute + assemble + numeric, - 1")
    out.put("runtime.spans_recorded", len(doc["spans"]))
    out.put("runtime.bench_trace_overhead_frac",
            statistics.median(stage_ratios) - 1.0,
            derived="median over the paired stages (analyze, factorize, "
                    f"{REPS} solves, panel solve) of replay / reference, - 1")
    out.put("analysis.rollup_s", rollup_s)
    out.put("analysis.rollup_coverage",
            sum(p["time"] for p in rollup["phases"].values())
            / rollup["total_time"])
    out.finish(checks, spans=spans, span_coverage=coverage,
               reference={"analyze_s": analyze_s, "factorize_s": factorize_s,
                          "solve_s": solve_s, "solve_panel16_s": panel_s})
    return out


def _decaying_block(rng: np.random.Generator, m: int, n: int,
                    rank: int) -> np.ndarray:
    """Dense ``m x n`` block of exact rank ``rank`` whose singular values
    halve from one to the next."""
    u, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    v, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    return (u * 0.5 ** np.arange(rank)) @ v.T


def _micro_kernels(seed: int, rec: SpanRecorder) -> Dict[str, float]:
    """Per-call median seconds of each low-rank kernel on a 192×64 rank-10
    target and a 64×64 rank-6 contribution landing at row 64."""
    rng = np.random.default_rng(seed)
    target = _decaying_block(rng, 192, 64, 10)
    contrib = _decaying_block(rng, 64, 64, 6)
    cap = rank_cap(192, 64, SHARED["rank_ratio"])
    target_lr = compress_block(target, TAU, "rrqr", max_rank=cap)
    contrib_lr = compress_block(contrib, TAU, "rrqr")
    scratch = target.copy()
    kernels: Dict[str, Callable[[], Any]] = {
        "compress_rrqr_s": lambda: compress_block(target, TAU, "rrqr",
                                                  max_rank=cap),
        "compress_svd_s": lambda: compress_block(target, TAU, "svd",
                                                 max_rank=cap),
        "lr_product_s": lambda: lr_product(target_lr, contrib_lr, TAU,
                                           "rrqr"),
        "lr2ge_s": lambda: lr2ge_update(scratch, contrib_lr, 64, 0),
        "lr2lr_rrqr_s": lambda: lr2lr_update(target_lr, contrib_lr, 64, 0,
                                             TAU, "rrqr", max_rank=cap),
        "lr2lr_svd_s": lambda: lr2lr_update(target_lr, contrib_lr, 64, 0,
                                            TAU, "svd", max_rank=cap),
    }
    out = {}
    for name, kernel in kernels.items():
        with rec.span(f"lowrank.micro.{name}"):
            samples: List[float] = []
            for _ in range(MICRO_CALLS):
                t0 = time.perf_counter()
                kernel()
                samples.append(time.perf_counter() - t0)
        out[f"lowrank.micro.{name}"] = statistics.median(samples)
    return out
