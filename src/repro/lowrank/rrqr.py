"""Rank-revealing QR compression kernel (paper §3.1.2).

A from-scratch column-pivoted Householder QR — the equivalent of the
BLR-MUMPS extension of LAPACK's ``xGEQP3`` the paper uses — with the crucial
property the paper's complexity analysis relies on: the factorization *stops
as soon as the trailing submatrix norm drops below the tolerance*, giving
Θ(m·n·r) work instead of Θ(m·n·min(m,n)).

Pivoting uses the classical partial-column-norm downdating with the LAPACK
safeguard (recompute a column norm exactly when cancellation has destroyed
the downdated estimate).

The solver itself runs :func:`rrqr_lapack` (``dgeqp3`` then truncation):
the compression of :func:`rrqr_compress` and the recompressions of
:mod:`repro.lowrank.recompress` both call it.  The early-exit loop
:func:`rrqr` is kept for ``benchmarks/bench_table1_complexity.py``, which
measures its Θ(m·n·r) work, and for its own tests.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

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


def rrqr_lapack(a: np.ndarray, tol: float,
                max_rank: Optional[int] = None,
                norm_ref: Optional[float] = None) -> RRQRResult:
    """Truncated RRQR via LAPACK ``dgeqp3`` (scipy's pivoted QR).

    LAPACK computes the *full* pivoted factorization — it cannot stop at the
    revealed rank like :func:`rrqr` — but it runs at C speed, which at
    laptop-scale block sizes beats the early exit by a wide margin (the
    substitution is recorded in DESIGN.md; the complexity benchmark
    ``benchmarks/bench_table1_complexity.py`` uses the genuinely truncated
    :func:`rrqr` to demonstrate the Θ(m·n·r) behaviour the paper relies
    on).  Truncation picks the smallest r with
    ``||R[r:, :]||_F <= tol ||a||_F``.
    """
    import scipy.linalg as sla

    m, n = a.shape
    q, r, jpvt = sla.qr(a, mode="economic", pivoting=True,
                        check_finite=False)
    # Frobenius tail of discarding rows >= rank
    row_sq = np.einsum("ij,ij->i", r.conj(), r).real
    tail = np.sqrt(np.maximum(np.cumsum(row_sq[::-1])[::-1], 0.0))
    norm_a = float(tail[0]) if tail.size else 0.0
    scale = max(norm_a, norm_ref or 0.0)
    if scale == 0.0:
        rank = 0
    else:
        ok = np.flatnonzero(tail <= tol * scale)
        rank = int(ok[0]) if ok.size else int(r.shape[0])
    if max_rank is not None and rank > max_rank:
        return RRQRResult(q=q[:, :0], r=r[:0], jpvt=jpvt.astype(np.int64),
                          converged=False)
    return RRQRResult(q=np.ascontiguousarray(q[:, :rank]),
                      r=np.ascontiguousarray(r[:rank]),
                      jpvt=jpvt.astype(np.int64), converged=True)


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

