"""Low-rank update kernels (paper §3.3) with flop accounting.

Every kernel optionally charges a :class:`~repro.runtime.stats.KernelStats`
instance under the Table 2 categories.  Operands are either dense
``numpy.ndarray`` blocks or :class:`~repro.lowrank.block.LowRankBlock`; the
dispatch follows the paper:

* ``lr_product`` — contribution ``L(i),k · (Uᵗ(j),k)ᵗ`` in compressed form
  (eqs. 1–4, with the T-matrix recompression that exploits ``rank(ABᵗ) <=
  min(rA, rB)``);
* ``lr2ge_update`` — subtract a (possibly low-rank) contribution from a
  dense target: the Just-In-Time update, Θ(mA mB rAB);
* ``lr2lr_update_multi`` — extend-add of a batch of contributions into a
  low-rank target with zero padding (Figure 4) and one SVD/RRQR
  recompression: the Minimal Memory update (``lr2lr_update`` is its
  one-contribution form).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.backend import KERNELS
from repro.lowrank.block import LowRankBlock
from repro.lowrank.recompress import recompress_rrqr, recompress_svd, sqnorm
from repro.lowrank.rrqr import rrqr_compress, rrqr_flops
from repro.lowrank.svd import svd_compress, svd_flops
from repro.runtime.stats import KernelStats

Block = Union[np.ndarray, LowRankBlock]


def rank_cap(m: int, n: int, rank_ratio: float) -> int:
    """Admissible rank for an ``m x n`` block.

    Two ceilings apply: the paper's ratio cap (§3.4 — compression stops
    helping once ranks pass ``min(m, n) * rank_ratio``) and the
    storage-neutral bound ``(m + n) r < m n``, which guarantees every block
    kept in low-rank form is strictly smaller than its dense storage.
    """
    ratio_cap = int(rank_ratio * min(m, n))
    storage_cap = (m * n - 1) // (m + n) if (m + n) else 0
    return max(1, min(ratio_cap, storage_cap))


def block_nbytes(b: Block) -> int:
    if isinstance(b, LowRankBlock):
        return b.nbytes
    return int(b.size) * int(b.itemsize)


def compress_block(a: np.ndarray, tol: float, kernel: str,
                   max_rank: Optional[int] = None,
                   stats: Optional[KernelStats] = None,
                   norm_ref: Optional[float] = None) -> Optional[LowRankBlock]:
    """Compress a dense block; ``None`` when the rank cap is exceeded.

    ``kernel`` selects ``"svd"`` or ``"rrqr"`` (§3.1); flops are charged to
    ``compress``.  ``norm_ref`` raises the truncation reference from the
    block's own Frobenius norm to ``max(||a||_F, norm_ref)`` — how the
    global threshold modes of ``SolverConfig.compress_thresholds`` reach
    every kernel.
    A kernel that fails (``LinAlgError``) keeps the block dense — always,
    whatever the recovery policy — and the verdict is recorded on the run
    (``stats.recovery``).
    """
    m, n = a.shape
    t0 = time.perf_counter()
    try:
        if kernel == "svd":
            out = svd_compress(a, tol, max_rank, norm_ref=norm_ref)
            fl = svd_flops(m, n)
        elif kernel == "rrqr":
            out = rrqr_compress(a, tol, max_rank, norm_ref=norm_ref)
            r = out.rank if out is not None else (max_rank or min(m, n))
            fl = rrqr_flops(m, n, max(r, 1))
        else:
            # unknown kernel is a config error, not a numerical failure —
            # it must not fall through to the keep-dense verdict below
            raise ValueError(f"unknown kernel {kernel!r}")
    except np.linalg.LinAlgError as exc:
        # kernel non-convergence: keep the block dense (always-on verdict,
        # independent of the recovery policy) and record it on the run
        out = None
        fl = 0.0
        if stats is not None and stats.recovery is not None:
            stats.recovery.record("compress_failure", site=kernel,
                                  error=type(exc).__name__, m=m, n=n)
    if stats is not None:
        stats.add("compress", seconds=time.perf_counter() - t0, flops=fl)
        if stats.telemetry is not None and out is not None:
            stats.telemetry.record_compress(m, n, out.rank)
    return out


def lr_product(a: Block, b: Block, tol: float, kernel: str,
               stats: Optional[KernelStats] = None,
               norm_ref: Optional[float] = None
               ) -> Optional[Block]:
    """Contribution ``a @ b.T`` in the cheapest exact-at-τ representation.

    Returns a :class:`LowRankBlock` when at least one operand is low-rank,
    a dense array when both are dense, and ``None`` when the product is
    numerically zero at the working tolerance.  The GEMMs run through
    :data:`repro.core.backend.KERNELS`.
    """
    t0 = time.perf_counter()
    fl = 0.0
    out: Optional[Block]
    if isinstance(a, LowRankBlock) and isinstance(b, LowRankBlock):
        if a.rank == 0 or b.rank == 0:
            return None
        # eqs. (1)-(4): T = vAᵗ vB, compress T, fold into the orbits
        t_mat = KERNELS.gemm(a.v, b.v, trans_a="T")  # (rA, rB)
        fl += 2.0 * a.v.shape[0] * a.rank * b.rank   # (1): Θ(nA rA rB)
        t_hat = (svd_compress(t_mat, tol, norm_ref=norm_ref)
                 if kernel == "svd"
                 else rrqr_compress(t_mat, tol, norm_ref=norm_ref))
        fl += (svd_flops(*t_mat.shape) if kernel == "svd"
               else rrqr_flops(t_mat.shape[0], t_mat.shape[1],
                               max(t_hat.rank, 1)))
        if t_hat.rank == 0:
            out = None
        else:
            u_ab = KERNELS.gemm(a.u, t_hat.u)        # (3): Θ(mA rA rAB)
            v_ab = KERNELS.gemm(b.u, t_hat.v)        # (4): Θ(mB rB rAB)
            fl += 2.0 * a.m * a.rank * t_hat.rank
            fl += 2.0 * b.m * b.rank * t_hat.rank
            out = LowRankBlock(u_ab, v_ab)
    elif isinstance(a, LowRankBlock):
        if a.rank == 0:
            return None
        b_arr = b  # dense (m_b, n) — contribution is (a.m, m_b)
        v_new = KERNELS.gemm(b_arr, a.v)             # (m_b, rA)
        fl += 2.0 * b_arr.shape[0] * b_arr.shape[1] * a.rank
        out = LowRankBlock(a.u, v_new)
    elif isinstance(b, LowRankBlock):
        if b.rank == 0:
            return None
        a_arr = a
        u_new = KERNELS.gemm(a_arr, b.v)             # (m_a, rB)
        fl += 2.0 * a_arr.shape[0] * a_arr.shape[1] * b.rank
        out = LowRankBlock(u_new, b.u)
    else:
        out = KERNELS.gemm(a, b, trans_b="T")
        fl += 2.0 * a.shape[0] * b.shape[0] * a.shape[1]
    if stats is not None:
        stats.add("lr_product", seconds=time.perf_counter() - t0, flops=fl)
    return out


def lr2ge_update(target: np.ndarray, contrib: Block,
                 row_off: int, col_off: int,
                 stats: Optional[KernelStats] = None) -> None:
    """Subtract ``contrib`` from ``target[row_off:.., col_off:..]`` in place.

    The Just-In-Time update kernel: when the contribution is low-rank the
    dense apply costs Θ(mA mB rAB) (Table 1, LR2GE "dense update" row).
    """
    t0 = time.perf_counter()
    if isinstance(contrib, LowRankBlock):
        if contrib.rank == 0:
            return
        m, n = contrib.m, contrib.n
        target[row_off:row_off + m, col_off:col_off + n] -= \
            KERNELS.gemm(contrib.u, contrib.v, trans_b="T")
        fl = 2.0 * m * n * contrib.rank + m * n
    else:
        m, n = contrib.shape
        target[row_off:row_off + m, col_off:col_off + n] -= contrib
        fl = float(m * n)
    if stats is not None:
        stats.add("dense_update", seconds=time.perf_counter() - t0, flops=fl)


def lr2lr_update(target: LowRankBlock, contrib: Block,
                 row_off: int, col_off: int,
                 tol: float, kernel: str,
                 max_rank: Optional[int] = None,
                 stats: Optional[KernelStats] = None,
                 norm_ref: Optional[float] = None
                 ) -> Optional[LowRankBlock]:
    """Extend-add ``target -= contrib`` of a single contribution landing
    at ``(row_off, col_off)`` (§3.3.2): :func:`lr2lr_update_multi` with one
    piece."""
    return lr2lr_update_multi(target, [(contrib, row_off, col_off)], tol,
                              kernel, max_rank=max_rank, stats=stats,
                              norm_ref=norm_ref)


def lr2lr_update_multi(target: LowRankBlock,
                       contribs: Sequence[Tuple[Block, int, int]],
                       tol: float, kernel: str,
                       max_rank: Optional[int] = None,
                       stats: Optional[KernelStats] = None,
                       norm_ref: Optional[float] = None,
                       tail: Optional[List[float]] = None
                       ) -> Optional[LowRankBlock]:
    """Batched extend-add ``target -= Σ contribs`` with one recompression
    (§3.3.2; the accumulate-then-recompress of BLR-MUMPS's LUAR, §5).

    ``contribs`` holds ``(block, row_off, col_off)`` pieces landing in the
    same ``(mC, nC)`` target frame.  Dense pieces are summed into one
    frame-sized scratch that is compressed once, under the *target's*
    ``max_rank``; low-rank pieces are zero-padded to the frame (Figure 4)
    and stacked behind it as ``[u_1 … u_p]``; the stack is then
    recompressed against the target once — fewer recompressions at the
    price of a larger stacked rank, the trade-off the paper attributes to
    LUAR.

    Returns the new target block (``target`` itself when nothing lands),
    or ``None`` when the dense sum or the recompressed result exceeds
    ``max_rank`` — the caller must then fall back to dense storage.  A
    ``tail`` list receives the squared Frobenius norm each truncation
    dropped: the dense scratch's compression, then the recompression.
    """
    m_c, n_c = target.m, target.n
    dense = [c for c in contribs if isinstance(c[0], np.ndarray)]
    pieces = [c for c in contribs
              if isinstance(c[0], LowRankBlock) and c[0].rank]
    if dense:
        if len(dense) == 1 and dense[0][0].shape == (m_c, n_c):
            scratch = dense[0][0]
        else:
            scratch = np.zeros((m_c, n_c), dtype=np.result_type(
                target.dtype, *(d.dtype for d, _, _ in dense)))
            for d, row_off, col_off in dense:
                scratch[row_off:row_off + d.shape[0],
                        col_off:col_off + d.shape[1]] += d
        lr = compress_block(scratch, tol, kernel, max_rank=max_rank,
                            stats=stats, norm_ref=norm_ref)
        if lr is None:
            return None
        if tail is not None:
            tail.append(sqnorm(scratch) - sqnorm(lr.v))
        if lr.rank:
            pieces.insert(0, (lr, 0, 0))
    if not pieces:
        return target

    t0 = time.perf_counter()
    r_c = target.rank
    r_ab = sum(p.rank for p, _, _ in pieces)
    dt = np.result_type(target.dtype, *(p.dtype for p, _, _ in pieces))
    u_cat = np.zeros((m_c, r_ab), dtype=dt)
    v_cat = np.zeros((n_c, r_ab), dtype=dt)
    col = 0
    for p, row_off, col_off in pieces:
        u_cat[row_off:row_off + p.m, col:col + p.rank] = p.u
        v_cat[col_off:col_off + p.n, col:col + p.rank] = p.v
        col += p.rank
    # a stack wider than the frame spans at most the frame: the QRs below
    # return min(dimension, columns) directions, and the models follow
    if kernel == "svd":
        out = recompress_svd(target.u, target.v, u_cat, v_cat, tol, max_rank,
                             norm_ref=norm_ref, tail=tail)
        r_tot = r_c + r_ab
        k_u, k_v = min(m_c, r_tot), min(n_c, r_tot)
        r_new = out.rank if out is not None else min(k_u, k_v)
        fl = (2.0 * (m_c * k_u + n_c * k_v) * r_tot    # eq. (7) QRs
              + 22.0 * min(k_u, k_v) ** 3              # small SVD
              + 2.0 * (m_c * k_u + n_c * k_v) * r_new)  # eq. (8)
    else:
        out = recompress_rrqr(target.u, target.v, u_cat, v_cat, tol,
                              max_rank, norm_ref=norm_ref, tail=tail)
        k_ab = min(m_c, r_ab)
        r_new = max(out.rank if out is not None else (max_rank or r_c), 1)
        fl = (2.0 * m_c * r_c * r_ab                   # eq. (9)
              + 2.0 * m_c * r_ab * k_ab                # QR of E
              + 2.0 * n_c * r_ab * r_c                 # eq. (11) core
              + 4.0 * (r_c + k_ab) * n_c * r_new       # truncated RRQR
              + 2.0 * m_c * (r_c + k_ab) * r_new)      # eq. (12)
    if stats is not None:
        stats.add("lr_addition", seconds=time.perf_counter() - t0, flops=fl)
        if stats.telemetry is not None:
            stats.telemetry.record_recompress(
                m_c, n_c, r_c, out.rank if out is not None else -1)
    return out
