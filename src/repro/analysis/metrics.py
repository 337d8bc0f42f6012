"""Evaluation metrics: backward error, compression statistics, ranks.

``backward_error`` is the paper's accuracy metric (printed above every bar
of Figures 5/6); ``compression_report``/``rank_histogram`` dissect a
factorization the way §4.1's discussion of ranks and factor sizes does.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.factor import NumericFactor
from repro.lowrank.block import LowRankBlock
from repro.sparse.csc import CSCMatrix


def backward_error(a: CSCMatrix, x: np.ndarray, b: np.ndarray) -> float:
    """``||Ax - b||₂ / ||b||₂``."""
    return float(np.linalg.norm(a.matvec(x) - b) / np.linalg.norm(b))


def rank_histogram(fac: NumericFactor) -> Dict[int, int]:
    """Histogram {rank: count} over all low-rank blocks of the factor."""
    hist: Dict[int, int] = {}
    for nc in fac.cblks:
        for blocks in (nc.lblocks, nc.ublocks):
            if blocks is None:
                continue
            for b in blocks:
                if isinstance(b, LowRankBlock):
                    hist[b.rank] = hist.get(b.rank, 0) + 1
    return hist


def cblk_levels(fac: NumericFactor) -> List[int]:
    """Elimination-tree depth of every column block (roots at level 0).

    The block elimination tree is postordered (children precede parents),
    so depths resolve in one reverse sweep.
    """
    parent = fac.symb.block_etree()
    ncblk = fac.symb.ncblk
    levels = [0] * ncblk
    for k in range(ncblk - 1, -1, -1):
        p = int(parent[k])
        levels[k] = 0 if p < 0 else levels[p] + 1
    return levels


def rank_histogram_by_level(fac: NumericFactor) -> Dict[int, Dict[int, int]]:
    """Per-elimination-level rank histograms: {level: {rank: count}}.

    Level 0 is the root separator (the largest, most compressible
    supernodes); deeper levels sit closer to the leaves.  Splitting the
    rank distribution by depth attributes rank growth under LR2LR
    recompression to its place in the tree, as the paper's §4.1 discussion
    does when it blames the Minimal Memory rank inflation on the large
    blocks near the top of the tree.
    """
    levels = cblk_levels(fac)
    hist: Dict[int, Dict[int, int]] = {}
    for k, nc in enumerate(fac.cblks):
        lvl = levels[k]
        for blocks in (nc.lblocks, nc.ublocks):
            if blocks is None:
                continue
            for b in blocks:
                if isinstance(b, LowRankBlock):
                    per = hist.setdefault(lvl, {})
                    per[b.rank] = per.get(b.rank, 0) + 1
    return hist


def compression_report(fac: NumericFactor) -> Dict[str, float]:
    """Summary of where the factor's bytes live.

    Returns compressed/dense block counts, byte totals per class, the
    overall memory ratio, and rank statistics.
    """
    lr_bytes = dense_bytes = diag_bytes = 0
    n_lr = n_dense = 0
    ranks: List[int] = []
    for nc in fac.cblks:
        if nc.diag is not None:
            diag_bytes += nc.diag.nbytes
        if nc.lpanel is not None:
            # a panel holds one dense block per side and off-diagonal block
            dense_bytes += nc.lpanel.nbytes
            n_dense += nc.sym.noff * fac.sides
            if nc.upanel is not None:
                dense_bytes += nc.upanel.nbytes
            continue
        for blocks in (nc.lblocks, nc.ublocks):
            if blocks is None:
                continue
            for b in blocks:
                if isinstance(b, LowRankBlock):
                    lr_bytes += b.nbytes
                    n_lr += 1
                    ranks.append(b.rank)
                else:
                    dense_bytes += b.nbytes
                    n_dense += 1
    total = lr_bytes + dense_bytes + diag_bytes
    dense_total = fac.dense_factor_nbytes()
    return {
        "n_lowrank_blocks": n_lr,
        "n_dense_blocks": n_dense,
        "lowrank_nbytes": lr_bytes,
        "dense_nbytes": dense_bytes,
        "diag_nbytes": diag_bytes,
        "total_nbytes": total,
        "dense_factor_nbytes": dense_total,
        "memory_ratio": total / dense_total if dense_total else 1.0,
        "mean_rank": float(np.mean(ranks)) if ranks else 0.0,
        "max_rank": int(max(ranks)) if ranks else 0,
    }
