"""Rank-revealing QR compression kernel (paper §3.1.2).

A from-scratch column-pivoted Householder QR — the equivalent of the
BLR-MUMPS extension of LAPACK's ``xGEQP3`` the paper uses — with the crucial
property the paper's complexity analysis relies on: the factorization *stops
as soon as the trailing submatrix norm drops below the tolerance*, giving
Θ(m·n·r) work instead of Θ(m·n·min(m,n)).

Pivoting uses the classical partial-column-norm downdating with the LAPACK
safeguard (recompute a column norm exactly when cancellation has destroyed
the downdated estimate).

The solver itself runs :func:`rrqr_lapack` (LAPACK ``?geqp3``, truncation,
then ``?orgqr`` / ``?ungqr`` for a kept block only): the compression of
:func:`rrqr_compress`, the product cores of :func:`repro.lowrank.kernels.
lr_product` and the recompressions of :mod:`repro.lowrank.recompress` all
call it.  The early-exit loop
:func:`rrqr` is kept for ``benchmarks/bench_table1_complexity.py``, which
measures its Θ(m·n·r) work, and for its own tests.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, NamedTuple, Optional, Tuple

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import get_lapack_funcs

from repro.lowrank.block import LowRankBlock

#: when a downdated squared column norm falls below this fraction of its
#: last exactly-computed value, recompute it exactly (cancellation guard)
_RECOMPUTE_THRESHOLD = 1e-6


class RRQRResult(NamedTuple):
    """Outcome of :func:`rrqr`.

    ``q`` is ``(m, rank)`` with orthonormal columns, ``r`` is ``(rank, n)``
    upper trapezoidal, ``jpvt`` the column permutation such that
    ``a[:, jpvt] ≈ q @ r``; ``converged`` is False when the tolerance was
    not reached within ``max_rank`` steps (the caller should then keep the
    block dense).
    """

    q: np.ndarray
    r: np.ndarray
    jpvt: np.ndarray
    converged: bool


def rrqr_flops(m: int, n: int, r: int) -> float:
    """Flop model: r Householder steps, each touching the trailing block."""
    return 4.0 * m * n * r


def rrqr(a: np.ndarray, tol: float,
         max_rank: Optional[int] = None,
         norm_ref: Optional[float] = None) -> RRQRResult:
    """Truncated column-pivoted QR: stop once ``||trailing||_F <= tol ||a||_F``.

    Parameters
    ----------
    a:
        Input block (not modified).
    tol:
        Relative Frobenius tolerance τ.
    max_rank:
        Abort (``converged=False``) if the revealed rank would exceed this.
    norm_ref:
        Optional external norm scale; the stopping threshold becomes
        ``tol * max(||a||_F, norm_ref)``.  Recompression passes the norms of
        the *operands* here, so an update that cancels a block truncates to
        rank 0 instead of keeping a full-rank representation of noise.
    """
    if np.asarray(a).dtype.kind == "c":
        # the Householder loop below is written for real arithmetic
        # (np.copysign); complex blocks take the LAPACK path, which
        # handles them natively
        return rrqr_lapack(a, tol, max_rank, norm_ref)

    m, n = a.shape
    kmax = min(m, n)
    limit = kmax if max_rank is None else min(kmax, int(max_rank))

    # run natively in the input precision: a float32 block is compressed in
    # float32 (non-inexact inputs are promoted to float64 once, here)
    dt = a.dtype if a.dtype.kind == "f" else np.dtype(np.float64)
    w = np.array(a, dtype=dt, copy=True, order="F")
    jpvt = np.arange(n, dtype=np.int64)
    colnorms2 = np.einsum("ij,ij->j", w, w)
    ref_norms2 = colnorms2.copy()  # last exactly-computed values
    norm_a = float(np.sqrt(colnorms2.sum()))
    scale = max(norm_a, norm_ref or 0.0)
    threshold2 = (tol * scale) ** 2

    vs = np.zeros((m, limit), dtype=dt)  # Householder vectors (unit lead)
    taus = np.zeros(limit, dtype=dt)

    rank = 0
    converged = norm_a == 0.0 or threshold2 >= norm_a ** 2
    if not converged:
        for k in range(kmax):
            trailing2 = float(colnorms2[k:].sum())
            if trailing2 <= threshold2:
                converged = True
                break
            if k >= limit:
                break  # rank would exceed the cap: not converged

            # --- pivot -------------------------------------------------
            j = k + int(np.argmax(colnorms2[k:]))
            if j != k:
                w[:, [k, j]] = w[:, [j, k]]
                colnorms2[[k, j]] = colnorms2[[j, k]]
                ref_norms2[[k, j]] = ref_norms2[[j, k]]
                jpvt[[k, j]] = jpvt[[j, k]]

            # --- Householder reflector for column k ---------------------
            x = w[k:, k]
            sigma = float(np.linalg.norm(x))
            if sigma == 0.0:
                taus[k] = 0.0
                rank = k + 1
                continue
            alpha = float(x[0])
            beta = -np.copysign(sigma, alpha)
            v = x.copy()
            v[0] = alpha - beta
            vnorm2 = float(v @ v)
            if vnorm2 == 0.0:  # pragma: no cover - x already e1-aligned
                taus[k] = 0.0
                rank = k + 1
                continue
            tau = 2.0 / vnorm2
            vs[k:, k] = v
            taus[k] = tau
            w[k, k] = beta
            w[k + 1:, k] = 0.0

            # --- apply to the trailing submatrix (the Θ(m n) step) -------
            if k + 1 < n:
                trailing = w[k:, k + 1:]
                proj = v @ trailing  # (n - k - 1,)
                trailing -= np.outer(v, tau * proj)
                # downdate column norms, with cancellation safeguard
                row = w[k, k + 1:]
                colnorms2[k + 1:] -= row * row
                np.maximum(colnorms2[k + 1:], 0.0, out=colnorms2[k + 1:])
                stale = colnorms2[k + 1:] < _RECOMPUTE_THRESHOLD * ref_norms2[k + 1:]
                if np.any(stale):
                    idx = np.flatnonzero(stale) + k + 1
                    fresh = np.einsum("ij,ij->j", w[k + 1:, idx], w[k + 1:, idx])
                    colnorms2[idx] = fresh
                    ref_norms2[idx] = fresh
            colnorms2[k] = 0.0
            rank = k + 1
        else:
            converged = True  # exhausted all kmax columns: exact QR

        if rank == kmax:
            converged = True

    r_mat = np.triu(w[:rank, :]) if rank else np.zeros((0, n), dtype=dt)
    q = _form_q(vs[:, :rank], taus[:rank], m, rank)
    return RRQRResult(q=q, r=r_mat, jpvt=jpvt, converged=converged)


def _form_q(vs: np.ndarray, taus: np.ndarray, m: int, rank: int) -> np.ndarray:
    """Accumulate Q_r = H_0 H_1 ... H_{r-1} @ I_{m x r} (reverse application)."""
    q = np.zeros((m, rank), dtype=vs.dtype)
    q[:rank, :rank] = np.eye(rank, dtype=vs.dtype)
    for k in range(rank - 1, -1, -1):
        tau = taus[k]
        if tau == 0.0:
            continue
        v = vs[k:, k]
        proj = v @ q[k:, :]
        q[k:, :] -= np.outer(v, tau * proj)
    return q


@functools.lru_cache(maxsize=None)
def qr_routines(dtype: np.dtype) -> Tuple[Callable[..., Any],
                                         Callable[..., Any]]:
    """LAPACK ``(?geqp3, ?orgqr)`` (``?ungqr`` for complex) for blocks of
    this dtype — the routines ``scipy.linalg.qr`` looks up again on every
    call."""
    geqp3, orgqr = get_lapack_funcs(("geqp3", "orgqr"),
                                    (np.empty(0, dtype=dtype),))
    return geqp3, orgqr


@functools.lru_cache(maxsize=None)
def _qr_lwork(dtype: np.dtype, m: int, n: int) -> Tuple[int, int]:
    """Optimal workspace sizes of ``?geqp3`` on an ``m × n`` block and of
    ``?orgqr`` forming its ``m × min(m, n)`` Q: the sizes
    ``scipy.linalg.qr`` queries on every call.  The blocked routines round
    by their workspace, so the same sizes give the same bits."""
    geqp3, orgqr = qr_routines(dtype)
    k = min(m, n)
    work = geqp3(np.zeros((m, n), dtype=dtype, order="F"), lwork=-1)[-2]
    qwork = orgqr(np.zeros((m, k), dtype=dtype, order="F"),
                  np.zeros(k, dtype=dtype), lwork=-1)[-2]
    return int(work[0].real), int(qwork[0].real)


def rrqr_lapack(a: np.ndarray, tol: float,
                max_rank: Optional[int] = None,
                norm_ref: Optional[float] = None) -> RRQRResult:
    """Truncated RRQR via LAPACK ``?geqp3``, then ``?orgqr`` / ``?ungqr``.

    LAPACK computes the *full* pivoted factorization — it cannot stop at the
    revealed rank like :func:`rrqr` — but it runs at C speed, which at
    laptop-scale block sizes beats the early exit by a wide margin (the
    substitution is recorded in DESIGN.md; the complexity benchmark
    ``benchmarks/bench_table1_complexity.py`` uses the genuinely truncated
    :func:`rrqr` to demonstrate the Θ(m·n·r) behaviour the paper relies
    on).  Truncation picks the smallest r with
    ``||R[r:, :]||_F <= tol ||a||_F``.

    Both routines are bound once per dtype (:func:`qr_routines`) and their
    workspace sizes cached per shape.  Q is formed only for a block that is
    kept (rank within ``max_rank``), from all ``min(m, n)`` reflectors and
    then sliced to the rank: ``q``, ``r`` and ``jpvt`` are
    ``scipy.linalg.qr(a, mode="economic", pivoting=True)`` truncated, bit
    for bit.  A LAPACK failure raises ``LinAlgError``, which the
    compression keeps dense (``compress_failure``).
    """
    m, n = a.shape
    k = min(m, n)
    if a.size == 0:
        return RRQRResult(q=np.empty_like(a, shape=(m, 0)),
                          r=np.empty_like(a, shape=(0, n)),
                          jpvt=np.arange(n, dtype=np.int64), converged=True)
    geqp3, orgqr = qr_routines(a.dtype)
    lwork, qlwork = _qr_lwork(a.dtype, m, n)
    qr, jpvt, tau, _, info = geqp3(a, lwork=lwork)
    if info:
        raise LinAlgError(f"geqp3 failed (info={info})")
    r = np.triu(qr[:k])
    # Frobenius tail of discarding rows >= rank
    row_sq = np.einsum("ij,ij->i", r.conj(), r).real
    tail = np.sqrt(np.maximum(np.cumsum(row_sq[::-1])[::-1], 0.0))
    norm_a = float(tail[0])
    scale = max(norm_a, norm_ref or 0.0)
    if scale == 0.0:
        rank = 0
    else:
        ok = np.flatnonzero(tail <= tol * scale)
        rank = int(ok[0]) if ok.size else k
    jpvt = jpvt.astype(np.int64) - 1  # geqp3 numbers columns from 1
    if max_rank is not None and rank > max_rank:
        return RRQRResult(q=np.empty((m, 0), dtype=qr.dtype), r=r[:0],
                          jpvt=jpvt, converged=False)
    q, _, info = orgqr(qr[:, :k], tau, lwork=qlwork, overwrite_a=True)
    if info:
        raise LinAlgError(f"orgqr failed (info={info})")
    return RRQRResult(q=np.ascontiguousarray(q[:, :rank]),
                      r=np.ascontiguousarray(r[:rank]),
                      jpvt=jpvt, converged=True)


def rrqr_compress(a: np.ndarray, tol: float,
                  max_rank: Optional[int] = None,
                  norm_ref: Optional[float] = None) -> Optional[LowRankBlock]:
    """Compress ``a`` into ``u vᵗ`` via truncated RRQR (:func:`rrqr_lapack`).

    ``u = Q_r`` (orthonormal), ``vᵗ = R_r Pᵗ`` (the column permutation
    undone), so ``||a - u vᵗ||_F <= tol ||a||_F``.  Returns ``None`` when
    the rank cap is exceeded.  ``norm_ref`` raises the truncation reference
    to ``max(||a||_F, norm_ref)`` for the global threshold modes.
    """
    m, n = a.shape
    if min(m, n) == 0:
        return LowRankBlock.zero(m, n, dtype=a.dtype)
    res = rrqr_lapack(a, tol, max_rank, norm_ref=norm_ref)
    if not res.converged:
        return None
    rank = res.q.shape[1]
    if rank == 0:
        return LowRankBlock.zero(m, n, dtype=a.dtype)
    vt = np.empty((rank, n), dtype=res.r.dtype)
    vt[:, res.jpvt] = res.r
    return LowRankBlock(res.q, vt.T.copy())

