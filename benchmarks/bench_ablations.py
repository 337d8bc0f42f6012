"""Ablation studies of the design choices DESIGN.md calls out.

Not a paper artifact per se, but each knob corresponds to a claim in the
paper's text:

* **TSP reordering** (§1 / [21]: "divides by more than two the number of
  off-diagonal blocks") — off-diagonal block count and factorization time
  with and without the intra-supernode reordering;
* **amalgamation** (Scotch ``frat`` = 0.08): block count / time with and
  without column aggregation;
* **JIT peak** (§4.3: "delay the allocation and the compression of the
  original blocks"): JIT's tracked peak against the dense solver's, now
  that every column block is allocated in its own task.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    SCALE_PARAMS,
    bench_config,
    bench_scale,
    print_header,
    run_solver,
    save_json,
)

from repro import Solver
from repro.sparse.generators import laplacian_3d


def ablate_reordering(scale: str) -> dict:
    grid = SCALE_PARAMS[scale]["lap"]
    a = laplacian_3d(grid)
    out = {}
    for flag in (False, True):
        cfg = bench_config(scale, strategy="minimal-memory", tolerance=1e-8,
                           reorder_supernodes=flag)
        solver = Solver(a, cfg)
        solver.analyze()
        rec = run_solver(a, cfg)
        rec["off_blocks"] = solver.symbolic.total_off_blocks()
        out["tsp" if flag else "plain"] = rec
    return out


def ablate_amalgamation(scale: str) -> dict:
    grid = SCALE_PARAMS[scale]["lap"]
    a = laplacian_3d(grid)
    out = {}
    for frat in (0.0, 0.08, 0.3):
        cfg = bench_config(scale, strategy="dense", frat=frat)
        solver = Solver(a, cfg)
        solver.analyze()
        rec = run_solver(a, cfg)
        rec["ncblk"] = solver.symbolic.ncblk
        rec["off_blocks"] = solver.symbolic.total_off_blocks()
        out[f"frat={frat}"] = rec
    return out


def ablate_jit_peak(scale: str) -> dict:
    """§4.3's proposal, which every task now follows: JIT allocates a
    column block when its task starts, so its peak is its compressed factor
    plus one dense column block in flight, not the dense solver's peak."""
    grid = SCALE_PARAMS[scale]["lap"]
    a = laplacian_3d(grid)
    out = {}
    for strategy in ("dense", "just-in-time"):
        cfg = bench_config(scale, strategy=strategy, tolerance=1e-4)
        solver = Solver(a, cfg)
        stats = solver.factorize()
        fac = solver.factor
        out[strategy] = {
            "peak_nbytes": stats.peak_nbytes,
            "factor_nbytes": stats.factor_nbytes,
            "max_cblk_nbytes": max(
                (c.ncols ** 2 + fac.sides * c.ncols
                 * sum(b.nrows for b in c.off_blocks()))
                * fac.dtype.itemsize for c in fac.symb.cblks),
            "facto_time": stats.total_time,
        }
    return out


def ablate_kernels(scale: str) -> dict:
    """Both compression kernel families on the same MM factorization."""
    grid = SCALE_PARAMS[scale]["lap"]
    a = laplacian_3d(grid)
    out = {}
    for kernel in ("rrqr", "svd"):
        cfg = bench_config(scale, strategy="minimal-memory", kernel=kernel,
                           tolerance=1e-4)
        rec = run_solver(a, cfg)
        out[kernel] = {k: rec[k] for k in ("facto_time", "memory_ratio",
                                           "backward_error",
                                           "nblocks_compressed")}
    return out


def ablate_ordering(scale: str) -> dict:
    """Algebraic (level-set) vs geometric (plane) nested dissection."""
    from repro.ordering.geometric import grid_coords

    grid = SCALE_PARAMS[scale]["lap"]
    a = laplacian_3d(grid)
    coords = grid_coords(grid, grid, grid)
    out = {}
    for ordering in ("nested-dissection", "geometric"):
        cfg = bench_config(scale, strategy="minimal-memory", tolerance=1e-4,
                           ordering=ordering)
        solver = Solver(a, cfg,
                        coords=coords if ordering == "geometric" else None)
        solver.analyze()
        stats = solver.factorize()
        out[ordering] = {
            "off_blocks": solver.symbolic.total_off_blocks(),
            "nnz_blocks": solver.symbolic.nnz(),
            "memory_ratio": stats.memory_ratio,
            "facto_time": stats.total_time,
        }
    return out


def ablate_wavenumber(scale: str) -> dict:
    """Compressibility vs physics: Helmholtz ranks grow with wavenumber.

    The well-known limitation of low-rank methods on oscillatory operators
    — an extension experiment beyond the paper's elliptic suite.
    """
    from repro.sparse.generators import helmholtz_3d

    grid = max(12, SCALE_PARAMS[scale]["lap"] - 4)
    out = {}
    for k in (0.0, 0.5, 1.0, 1.5):
        a = helmholtz_3d(grid, wavenumber=k)
        cfg = bench_config(scale, strategy="minimal-memory", kernel="rrqr",
                           tolerance=1e-4, factotype="ldlt")
        solver = Solver(a, cfg)
        stats = solver.factorize()
        out[f"k={k}"] = {
            "memory_ratio": stats.memory_ratio,
            "nblocks_compressed": stats.nblocks_compressed,
        }
    return out


def run_experiment(scale: str) -> dict:
    return {
        "scale": scale,
        "reordering": ablate_reordering(scale),
        "amalgamation": ablate_amalgamation(scale),
        "jit_peak": ablate_jit_peak(scale),
        "kernels": ablate_kernels(scale),
        "ordering": ablate_ordering(scale),
        "wavenumber": ablate_wavenumber(scale),
    }


def print_report(res: dict) -> None:
    print_header("ablations")
    r = res["reordering"]
    print(f"TSP reordering : off-blocks {r['plain']['off_blocks']} -> "
          f"{r['tsp']['off_blocks']}, "
          f"facto {r['plain']['facto_time']:.2f}s -> "
          f"{r['tsp']['facto_time']:.2f}s")
    print("amalgamation   : " + ", ".join(
        f"{k}: {v['ncblk']} cblks / {v['off_blocks']} blocks / "
        f"{v['facto_time']:.2f}s" for k, v in res["amalgamation"].items()))
    jp = res["jit_peak"]
    print(f"JIT peak       : dense peak "
          f"{jp['dense']['peak_nbytes'] / 1e6:.1f}MB, JIT peak "
          f"{jp['just-in-time']['peak_nbytes'] / 1e6:.1f}MB "
          f"(factors {jp['just-in-time']['factor_nbytes'] / 1e6:.1f}MB)")
    print("kernel families: " + ", ".join(
        f"{k}: {v['facto_time']:.1f}s/mem {v['memory_ratio']:.3f}/"
        f"err {v['backward_error']:.0e}"
        for k, v in res["kernels"].items()))
    o = res["ordering"]
    print("ordering       : " + ", ".join(
        f"{k}: {v['off_blocks']} blocks / nnz {v['nnz_blocks']} / "
        f"mem {v['memory_ratio']:.3f}" for k, v in o.items()))
    print("helmholtz k    : " + ", ".join(
        f"{k}: mem {v['memory_ratio']:.3f} ({v['nblocks_compressed']} lr)"
        for k, v in res["wavenumber"].items()))


def check_shape(res: dict) -> None:
    r = res["reordering"]
    assert r["tsp"]["off_blocks"] <= r["plain"]["off_blocks"]
    am = res["amalgamation"]
    assert am["frat=0.08"]["ncblk"] <= am["frat=0.0"]["ncblk"]
    assert am["frat=0.3"]["ncblk"] <= am["frat=0.08"]["ncblk"]
    jit = res["jit_peak"]["just-in-time"]
    assert jit["peak_nbytes"] <= (1.01 * jit["factor_nbytes"]
                                  + jit["max_cblk_nbytes"])
    for k, v in res["kernels"].items():
        assert v["memory_ratio"] <= 1.0 + 1e-9, k
        assert v["backward_error"] < 1e-1, k
    o = res["ordering"]
    assert o["geometric"]["off_blocks"] <= \
        o["nested-dissection"]["off_blocks"]
    # oscillatory physics hurts compression: memory grows with k
    wv = res["wavenumber"]
    assert wv["k=0.0"]["memory_ratio"] <= wv["k=1.5"]["memory_ratio"] + 0.02


def test_ablations(benchmark):
    scale = bench_scale()
    res = benchmark.pedantic(lambda: run_experiment(scale), rounds=1,
                             iterations=1)
    print_report(res)
    save_json("ablations", res)
    check_shape(res)


if __name__ == "__main__":
    import sys

    scale = sys.argv[1] if len(sys.argv) > 1 else bench_scale("standard")
    res = run_experiment(scale)
    print_report(res)
    save_json("ablations", res)
    check_shape(res)
