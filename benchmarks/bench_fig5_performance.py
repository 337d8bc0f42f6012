"""Experiment fig5 — performance of JIT and MM vs the dense solver.

Paper artifact: Figure 5 plots, for six matrices and three tolerances, the
ratio ``time(BLR) / time(PaStiX dense)`` for (a) Just-In-Time/RRQR and
(b) Minimal Memory/RRQR, with the backward error printed above each bar.

At laptop scale the Python per-block overhead hides kernel-level wall-clock
wins, so next to the wall-clock ratio we report the *flop* ratio — the
machine-independent cost our instrumented kernels count, which is the
quantity the paper's MKL-backed kernels translate into time.  Shape
expectations (checked loosely):

* JIT flop ratio < 1 and decreasing with looser tolerance (paper: up to
  3.3x faster at 1e-4);
* MM slower than dense (paper: ~1.8x average loss), with tolerance having
  a weaker effect (Figure 5b);
* backward errors track τ.
"""

from __future__ import annotations

import numpy as np

from common import (
    TOLERANCES,
    bench_config,
    bench_scale,
    build_suite,
    print_header,
    run_solver,
    save_json,
)


def run_experiment(scale: str, strategies=("just-in-time",
                                           "minimal-memory")) -> dict:
    suite = build_suite(scale)
    out = {"scale": scale, "matrices": {}}
    for name, (a, factotype) in suite.items():
        dense_cfg = bench_config(scale, strategy="dense",
                                 factotype=factotype)
        dense = run_solver(a, dense_cfg)
        rows = {"dense": dense}
        for strategy in strategies:
            for tol in TOLERANCES:
                cfg = bench_config(scale, strategy=strategy, kernel="rrqr",
                                   tolerance=tol, factotype=factotype)
                rows[f"{strategy}@{tol:.0e}"] = run_solver(a, cfg)
        out["matrices"][name] = rows
    return out


def print_report(res: dict) -> None:
    for strategy, fig in (("just-in-time", "5(a)"),
                          ("minimal-memory", "5(b)")):
        print_header(f"fig{fig}: {strategy}/RRQR vs dense "
                     f"(time ratio | flop ratio | backward error)")
        header = f"{'matrix':>12}"
        for tol in TOLERANCES:
            header += f" | {'tau=' + format(tol, '.0e'):>24}"
        print(header)
        for name, rows in res["matrices"].items():
            dense = rows["dense"]
            line = f"{name:>12}"
            for tol in TOLERANCES:
                r = rows[f"{strategy}@{tol:.0e}"]
                tr = r["facto_time"] / dense["facto_time"]
                fr = r["total_flops"] / dense["total_flops"]
                line += (f" | {tr:5.2f}x {fr:5.2f}f "
                         f"{r['backward_error']:9.1e}")
            print(line)


def check_shape(res: dict) -> None:
    jit_flop_by_tol = {tol: [] for tol in TOLERANCES}
    mm_time_ratios = []
    for name, rows in res["matrices"].items():
        dense = rows["dense"]
        for tol in TOLERANCES:
            jit = rows[f"just-in-time@{tol:.0e}"]
            mm = rows[f"minimal-memory@{tol:.0e}"]
            jit_flop_by_tol[tol].append(jit["total_flops"]
                                        / dense["total_flops"])
            mm_time_ratios.append(mm["facto_time"] / dense["facto_time"])
            # backward error tracks tau (with BLR error-accumulation slack)
            assert jit["backward_error"] < tol * 1e4
            assert mm["backward_error"] < tol * 1e4
    # the paper's speedup source: on compressible matrices JIT beats the
    # dense solver in update flops, most clearly at the loosest tolerance
    loosest, tightest = max(TOLERANCES), min(TOLERANCES)
    assert min(jit_flop_by_tol[loosest]) < 1.0, \
        "no matrix benefits from JIT compression at the loosest tolerance"
    # looser tolerance => cheaper JIT factorization (Figure 5a trend)
    assert float(np.mean(jit_flop_by_tol[loosest])) <= \
        float(np.mean(jit_flop_by_tol[tightest])) + 0.05
    # MM buys memory, not time (paper: average ~1.8x loss with one LR2LR
    # per update; with one recompression per target it sits at ~1.0-1.3x
    # here, so only "no faster than dense beyond timing noise" is asserted)
    assert float(np.mean(mm_time_ratios)) > 0.9


def test_fig5_performance(benchmark):
    scale = bench_scale()
    res = benchmark.pedantic(lambda: run_experiment(scale), rounds=1,
                             iterations=1)
    print_report(res)
    save_json("fig5_performance", res)
    check_shape(res)


if __name__ == "__main__":
    import sys

    scale = sys.argv[1] if len(sys.argv) > 1 else bench_scale("standard")
    res = run_experiment(scale)
    print_report(res)
    save_json("fig5_performance", res)
    check_shape(res)
