"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``solve``
    Read a Matrix Market file (or generate a built-in workload), factorize
    under the chosen strategy/kernel/tolerance, solve against a right-hand
    side (all-ones by default), optionally refine, and print the Table
    2-style statistics.
``analyze``
    Run only the value-free analysis and print (or render to SVG) the
    symbolic block structure — the Figure 1 view.
``report``
    Render a ``RunReport`` JSON artifact (written by ``solve --report``)
    to markdown, optionally regenerating its SVG figures.  With
    ``--against OLD.json`` a last section ranks what moved since the old
    run: per-phase and per-level time deltas, factor bytes, rank drift
    and recovery actions.
``scenarios``
    Replay the committed matrix-zoo scenarios (zoo case x factotype/
    pivoting x BLR strategy x bare/armed recovery), printing status,
    backward error and pivot statistics per scenario; ``--json`` writes
    the results, ``--baseline`` gates pass/fail flips against the
    committed ``SCENARIOS.json``.

Examples::

    python -m repro solve --generate lap3d:12 --strategy minimal-memory \
        --tolerance 1e-8 --refine
    python -m repro solve --generate lap3d:12 --refine --report run.json
    python -m repro report run.json -o run.md --figures figs/
    python -m repro report run.json --against old.json
    python -m repro analyze --generate lap3d:10 --svg structure.svg
    python -m repro solve matrix.mtx --factotype cholesky
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.runtime.faults import FaultInjector

from repro.config import (
    DTYPES,
    FACTOTYPES,
    KERNELS,
    ORDERINGS,
    PIVOTINGS,
    STRATEGIES,
    THRESHOLD_MODES,
    SolverConfig,
)
from repro.core.solver import Solver
from repro.runtime.stats import KERNEL_CATEGORIES
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import (
    anisotropic_laplacian_3d,
    convection_diffusion_3d,
    elasticity_3d,
    helmholtz_3d,
    heterogeneous_poisson_3d,
    laplacian_2d,
    laplacian_3d,
    saddle_point_kkt,
    stretched_mesh_3d,
)
from repro.sparse.io import read_matrix_market

GENERATORS = {
    "lap2d": lambda k: laplacian_2d(k),
    "lap3d": lambda k: laplacian_3d(k),
    "convdiff": lambda k: convection_diffusion_3d(k),
    "elasticity": lambda k: elasticity_3d(k),
    "hetero": lambda k: heterogeneous_poisson_3d(k),
    "aniso": lambda k: anisotropic_laplacian_3d(k),
    # real symmetric indefinite Helmholtz (ldlt territory)
    "helmholtz": lambda k: helmholtz_3d(k, wavenumber=0.6),
    # damped (absorbing) Helmholtz: complex symmetric, use lu + complex dtype
    "helmholtz-damped": lambda k: helmholtz_3d(k, wavenumber=0.6, damping=0.5),
    # saddle-point KKT (k is the grid side of the A block): symmetric
    # indefinite with an exactly-zero (2,2) block -- ldlt territory
    "kkt": lambda k: saddle_point_kkt(k),
    # boundary-layer graded mesh: SPD with strong through-domain anisotropy
    "stretched": lambda k: stretched_mesh_3d(k),
}


def _load_matrix(args: argparse.Namespace) -> CSCMatrix:
    if args.generate:
        name, _, size = args.generate.partition(":")
        if name not in GENERATORS:
            raise SystemExit(
                f"unknown generator {name!r}; choose from "
                f"{sorted(GENERATORS)} (e.g. lap3d:12)")
        try:
            k = int(size or 10)
        except ValueError:
            raise SystemExit(f"--generate size must be an integer, got "
                             f"{size!r} (e.g. lap3d:12)")
        return GENERATORS[name](k)
    if not args.matrix:
        raise SystemExit("provide a MatrixMarket file or --generate NAME:SIZE")
    return read_matrix_market(args.matrix)


def _config(args: argparse.Namespace) -> SolverConfig:
    recovery = None
    if getattr(args, "recovery", False):
        from repro.runtime.recovery import RecoveryPolicy

        recovery = RecoveryPolicy()
    try:
        return SolverConfig.laptop_scale(
            strategy=args.strategy,
            threshold_mode=getattr(args, "threshold_mode", "local"),
            kernel=args.kernel,
            tolerance=args.tolerance,
            factotype=args.factotype,
            pivoting=getattr(args, "pivoting", "static"),
            **({"pivot_u": args.pivot_u}
               if getattr(args, "pivot_u", None) is not None else {}),
            ordering=args.ordering,
            dtype=args.dtype,
            recovery=recovery,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("matrix", nargs="?", help="MatrixMarket file (.mtx[.gz])")
    p.add_argument("--generate", metavar="NAME:SIZE",
                   help=f"built-in workload: {sorted(GENERATORS)}")
    p.add_argument("--strategy", default="just-in-time", choices=STRATEGIES)
    p.add_argument("--threshold-mode", default="local",
                   dest="threshold_mode", choices=THRESHOLD_MODES,
                   help="compression threshold scaling (BLR-stability "
                        "betatype): local block norms, 1/p-scaled, or "
                        "global ||A||_F referenced")
    p.add_argument("--kernel", default="rrqr", choices=KERNELS)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--factotype", default="lu", choices=FACTOTYPES)
    p.add_argument("--pivoting", default="static", choices=PIVOTINGS,
                   help="LDLt pivoting mode: static perturbation or "
                        "Bunch-Kaufman-style 1x1/2x2 threshold pivoting "
                        "(indefinite systems) -- see docs/robustness.md")
    p.add_argument("--pivot-u", type=float, default=None, dest="pivot_u",
                   metavar="U",
                   help="threshold-pivoting acceptance threshold in "
                        "(0, 0.5] (default 0.1)")
    p.add_argument("--ordering", default="nested-dissection",
                   choices=ORDERINGS)
    p.add_argument("--dtype", default=None, choices=DTYPES,
                   help="arithmetic precision (default: the matrix dtype; "
                        "float64 for real inputs)")
    p.add_argument("--recovery", action="store_true",
                   help="arm the self-healing layer (breakdown detection + "
                        "escalation ladder) with default RecoveryPolicy "
                        "knobs; see docs/robustness.md")


def _arm_chaos(solver: Solver, seed: int) -> "FaultInjector":
    """Arm one transient fault at each of the three recovery sites.

    Picks pseudo-random column blocks (seeded, so runs are reproducible)
    and injects a factor-kernel failure, a NaN-poisoned panel and a
    compression failure — each fires exactly once, then heals.  With
    ``--recovery`` the solve must still complete; this is the CLI face of
    the chaos CI job.
    """
    from repro.runtime.faults import FaultInjector

    ncblk = solver.analyze().ncblk
    inj = FaultInjector(seed=seed)
    inj.fail_factor(inj.pick_block(ncblk), transient=True)
    inj.nan_in_panel(inj.pick_block(ncblk), transient=True)
    inj.fail_compress(inj.pick_block(ncblk), transient=True)
    return inj


def cmd_solve(args: argparse.Namespace) -> int:
    if args.gantt and not args.report:
        raise SystemExit("--gantt requires --report (the chart is drawn "
                         "from the spans the report records)")
    a = _load_matrix(args)
    cfg = _config(args)
    profiler = None
    if args.report:
        from repro.runtime.spans import SpanProfiler
        from repro.runtime.telemetry import Telemetry

        tele = Telemetry()
        profiler = SpanProfiler(telemetry=tele)
        cfg = cfg.with_options(telemetry=tele, profiler=profiler)
    solver = Solver(a, cfg)
    print(f"n = {a.n}, nnz = {a.nnz}, strategy = {args.strategy}/"
          f"{args.kernel}, tau = {args.tolerance:.0e}")
    faults = None
    if args.chaos is not None:
        if not args.recovery:
            raise SystemExit("--chaos requires --recovery (the injected "
                             "faults would simply kill the solve)")
        faults = _arm_chaos(solver, args.chaos)
        print(f"chaos: 3 transient faults armed (seed {args.chaos})")
    t0 = time.perf_counter()
    stats = solver.factorize(faults=faults)
    print(f"factorization: {time.perf_counter() - t0:.2f}s "
          f"(analysis {solver.analyze_time:.2f}s)")
    for cat in KERNEL_CATEGORIES:
        t = stats.kernels.time(cat)
        if t > 0:
            print(f"  {cat:<14} {t:8.2f}s  "
                  f"{stats.kernels.flop(cat) / 1e9:8.3f} Gflop")
    print(f"factor size: {stats.factor_nbytes / 1e6:.2f} MB "
          f"({stats.memory_ratio:.2f}x dense), "
          f"peak {stats.peak_nbytes / 1e6:.2f} MB"
          + (f" + {stats.accumulator_peak_nbytes / 1e6:.2f} MB extend-add "
             f"accumulator" if stats.accumulator_peak_nbytes else ""))
    if solver.last_recovery is not None:
        counts = solver.last_recovery.get("counts") or {}
        acted = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"recovery: {acted or 'no actions needed'}")

    rng = np.random.default_rng(args.seed)
    b = np.ones(a.n) if args.rhs == "ones" else rng.standard_normal(a.n)
    x = solver.solve(b)
    err = solver.backward_error(x, b)
    print(f"backward error: {err:.2e}")
    if args.refine:
        res = solver.refine(b, tol=1e-12, maxiter=20)
        print(f"refined ({res.iterations} iterations): "
              f"{res.backward_error:.2e}")
        err = res.backward_error

    if profiler is not None:
        from repro.analysis.report import save_run_report

        profiler.finish()
        for p in profiler.check_invariants():  # pragma: no cover
            print(f"profile invariant violation: {p}", file=sys.stderr)
        workload = args.generate or args.matrix
        report = solver.run_report(workload=workload, backward_error=err)
        tasks = report["profile"]["kernels"]["task"]
        print(f"tasks: {tasks['count']}, {tasks['time']:.3f} s")
        if args.gantt:
            from repro.analysis.charts import gantt_chart

            gantt_chart(args.gantt, profiler.to_json()["spans"],
                        title=f"factorization tasks ({args.strategy})")
            print(f"gantt chart -> {args.gantt}")
        path = save_run_report(report, args.report)
        print(f"run report -> {path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import (
        load_run_report,
        render_figures,
        render_markdown,
    )

    report = load_run_report(args.report_file)
    against = load_run_report(args.against) if args.against else None
    figures = None
    if args.figures:
        # image links resolve from the markdown's own directory
        base = os.path.dirname(args.output or "") or "."
        figures = [Path(os.path.relpath(fig, base))
                   for fig in render_figures(report, args.figures)]
    md = render_markdown(report, figures=figures, against=against)
    if args.output:
        Path(args.output).write_text(md, encoding="utf-8")
        print(f"markdown -> {args.output}")
        if figures:
            print(f"{len(figures)} figure(s) -> {args.figures}")
    else:
        print(md, end="")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.visualize import (
        structure_stats_table,
        structure_to_ascii,
        structure_to_svg,
    )

    a = _load_matrix(args)
    solver = Solver(a, _config(args))
    symb = solver.analyze()
    print(structure_stats_table(symb))
    if args.svg:
        path = structure_to_svg(symb, args.svg)
        print(f"\nstructure written to {path}")
    if args.ascii:
        print()
        print(structure_to_ascii(symb, width=args.ascii))
    return 0


def run_scenarios(seed: int = 0, cases: Optional[list] = None,
                  strategies: tuple = ("dense", "minimal-memory",
                                       "just-in-time")) -> list:
    """Run the matrix-zoo scenario sweep and return one record per run.

    Every zoo case is crossed with the admissible factotypes (Cholesky
    only for declared-positive matrices, LDLᵀ with static *and* threshold
    pivoting for everything), the requested strategies (``cuf`` =
    minimal-memory, ``ucf`` = just-in-time), and the recovery axis: bare
    (no recovery — breakdowns surface as recorded failures) and armed
    (escalation ladder with a zero perturbation budget, so static
    pivoting that perturbs must walk the static→threshold rung).

    Each record carries a stable ``id``, an outcome ``status`` (``"ok"``
    or ``"breakdown:<cause>"``), the raw (unrefined) backward error, the
    pivot statistics and the recovery attempt count — the replay contract
    the committed ``SCENARIOS.json`` baseline pins.
    """
    from repro.runtime.recovery import RecoveryPolicy
    from repro.sparse.generators import zoo

    zoo_cases = zoo()
    if cases:
        known = {c.name for c in zoo_cases}
        unknown = set(cases) - known
        if unknown:
            raise SystemExit(f"unknown zoo case(s) {sorted(unknown)}; "
                             f"choose from {sorted(known)}")
        zoo_cases = [c for c in zoo_cases if c.name in set(cases)]

    blr = dict(cmin=8, frat=0.08, split_size=16, split_min=8,
               compress_min_width=8, compress_min_height=3,
               tolerance=1e-10)
    results = []
    for case in zoo_cases:
        a = case.build()
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(a.n)
        combos = []
        if case.definiteness == "positive":
            combos.append(("cholesky", "static"))
        combos += [("ldlt", "static"), ("ldlt", "threshold")]
        for facto, pivoting in combos:
            for strategy in strategies:
                for armed in (False, True):
                    recovery = (RecoveryPolicy(max_retries=6,
                                               pivot_budget=0.0)
                                if armed else None)
                    cfg = SolverConfig.laptop_scale(
                        strategy=strategy, factotype=facto,
                        pivoting=pivoting, recovery=recovery, **blr)
                    sid = (f"{case.name}/{facto}-{pivoting}/{strategy}/"
                           f"{'recovery' if armed else 'bare'}")
                    rec = {"id": sid, "definiteness": case.definiteness}
                    try:
                        solver = Solver(a, cfg)
                        solver.factorize()
                        x = solver.solve(b)
                        be = float(np.linalg.norm(b - a.matvec(x))
                                   / np.linalg.norm(b))
                        fac = solver.factor
                        rec["status"] = "ok"
                        rec["backward_error"] = be
                        rec["pivoting"] = {
                            "swaps": int(fac.pivot_swaps),
                            "two_by_two": int(fac.pivots_2x2),
                            "perturbations": int(fac.nperturbed),
                            "growth": float(fac.pivot_growth),
                        }
                        if solver.last_recovery is not None:
                            rec["recovery_attempts"] = int(
                                solver.last_recovery.get("attempts", 1))
                    except Exception as exc:
                        cause = getattr(exc, "cause", None)
                        rec["status"] = (f"breakdown:{cause}" if cause
                                         else f"error:{type(exc).__name__}")
                        rec["backward_error"] = None
                    results.append(rec)
    return results


def compare_scenarios(current: list, baseline: dict) -> tuple:
    """Diff a scenario run against the committed baseline.

    Returns ``(failures, warnings)``: a pass/fail flip (or a scenario
    missing from the run) is a failure — the CI gate exits nonzero — while
    backward-error drift beyond 10× (above a 1e-14 noise floor) and
    baseline-less new scenarios only warn.
    """
    base = {r["id"]: r for r in baseline.get("scenarios", [])}
    cur = {r["id"]: r for r in current}
    failures, warnings = [], []
    for sid in sorted(cur):
        rec, old = cur[sid], base.get(sid)
        if old is None:
            warnings.append(f"new scenario (no baseline): {sid}")
            continue
        now_ok = rec["status"] == "ok"
        was_ok = old["status"] == "ok"
        if now_ok != was_ok:
            failures.append(f"{sid}: {old['status']} -> {rec['status']}")
        elif now_ok:
            ob = float(old.get("backward_error") or 0.0)
            nb = float(rec.get("backward_error") or 0.0)
            if nb > 10.0 * max(ob, 1e-14):
                warnings.append(f"{sid}: backward error drift "
                                f"{ob:.1e} -> {nb:.1e}")
    for sid in sorted(set(base) - set(cur)):
        failures.append(f"scenario missing from run: {sid}")
    return failures, warnings


def cmd_scenarios(args: argparse.Namespace) -> int:
    """Replay the matrix-zoo scenario suite and gate against a baseline."""
    import json

    cases = [c for c in (args.cases or "").split(",") if c] or None
    results = run_scenarios(seed=args.seed, cases=cases)
    n_ok = sum(1 for r in results if r["status"] == "ok")
    for r in results:
        be = r.get("backward_error")
        piv = r.get("pivoting") or {}
        extra = ""
        if piv.get("swaps") or piv.get("two_by_two") or piv.get(
                "perturbations"):
            extra = (f"  [sw={piv['swaps']} 2x2={piv['two_by_two']} "
                     f"pert={piv['perturbations']}]")
        if r.get("recovery_attempts", 1) > 1:
            extra += f"  ({r['recovery_attempts']} attempts)"
        status = (f"BE={be:.1e}" if be is not None else r["status"])
        print(f"  {r['id']:<55} {status}{extra}")
    print(f"{n_ok}/{len(results)} scenarios ok")

    if args.json:
        payload = {"seed": args.seed, "scenarios": results}
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"scenario results -> {args.json}")

    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text(
            encoding="utf-8"))
        failures, warnings = compare_scenarios(results, baseline)
        for w in warnings:
            print(f"warning: {w}")
        for f in failures:
            print(f"FAIL: {f}")
        if failures:
            print(f"{len(failures)} scenario regression(s) vs "
                  f"{args.baseline}")
            return 1
        print(f"baseline {args.baseline}: no pass/fail flips "
              f"({len(warnings)} warning(s))")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Block Low-Rank supernodal sparse direct solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="factorize and solve")
    _add_common(p_solve)
    p_solve.add_argument("--refine", action="store_true",
                         help="run preconditioned GMRES/CG afterwards")
    p_solve.add_argument("--rhs", choices=("ones", "random"), default="ones")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--gantt", metavar="FILE",
                         help="with --report: also render a Gantt SVG "
                              "of the kernel spans on one time lane")
    p_solve.add_argument("--report", metavar="FILE",
                         help="attach telemetry and the span profiler "
                              "and write a RunReport JSON artifact (render "
                              "it with 'repro report FILE')")
    p_solve.add_argument("--chaos", type=int, nargs="?", const=0,
                         default=None, metavar="SEED",
                         help="inject one transient fault at each recovery "
                              "site (factor kernel, panel NaN, compression) "
                              "to exercise the self-healing path; requires "
                              "--recovery")
    p_solve.set_defaults(func=cmd_solve)

    p_an = sub.add_parser("analyze", help="symbolic structure only")
    _add_common(p_an)
    p_an.add_argument("--svg", metavar="FILE",
                      help="render the block structure to an SVG file")
    p_an.add_argument("--ascii", type=int, metavar="WIDTH", default=0,
                      help="print an ASCII rendering of the structure")
    p_an.set_defaults(func=cmd_analyze)

    p_rep = sub.add_parser("report",
                           help="render a RunReport JSON to markdown")
    p_rep.add_argument("report_file", help="RunReport JSON "
                       "(from 'repro solve --report')")
    p_rep.add_argument("-o", "--output", metavar="FILE",
                       help="write markdown here (default: stdout)")
    p_rep.add_argument("--figures", metavar="DIR",
                       help="also render the telemetry series to SVG "
                            "charts in this directory")
    p_rep.add_argument("--against", metavar="OLD",
                       help="an older RunReport JSON: append the ranked "
                            "per-phase deltas, factor-byte delta, rank "
                            "drift and recovery deltas since it")
    p_rep.set_defaults(func=cmd_report)

    p_sc = sub.add_parser("scenarios",
                          help="replay the matrix-zoo robustness scenarios "
                               "(zoo x strategy x factotype x recovery)")
    p_sc.add_argument("--cases", default=None, metavar="NAME,NAME",
                      help="comma-separated subset of zoo case names "
                           "(default: the full committed zoo)")
    p_sc.add_argument("--seed", type=int, default=0,
                      help="right-hand-side seed (part of the replay "
                           "contract; the committed baseline uses 0)")
    p_sc.add_argument("--json", metavar="FILE",
                      help="write the scenario records as JSON (the "
                           "format SCENARIOS.json commits)")
    p_sc.add_argument("--baseline", metavar="FILE",
                      help="compare against a committed baseline: "
                           "pass/fail flips exit 1, backward-error "
                           "drift >10x warns")
    p_sc.set_defaults(func=cmd_scenarios)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
