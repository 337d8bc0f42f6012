"""Recompression of low-rank sums (paper §3.3.2).

The extend-add ``Ĉ' = uC vCᵗ − uAB vABᵗ = [uC, uAB] [vC, −vAB]ᵗ`` doubles
the stored rank; recompression restores a minimal rank while preserving the
prescribed accuracy.  Both of the paper's variants are implemented:

* **SVD recompression** (eqs. 7–8): QR both concatenated factors, SVD the
  small core ``R1 R2ᵗ``, truncate.
* **RRQR recompression** (eqs. 9–12): exploit the orthonormality of ``uC``
  — orthogonalize ``uAB`` against it (eq. 9), so only the *new* directions
  need a QR — then run the truncated RRQR on the small stacked core and map
  back.  ``uC'`` comes out orthonormal, ready for the next update.

Both return ``None`` instead of a block when the revealed rank exceeds
``max_rank``: the caller then falls back to dense storage for the target.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.linalg as sla

from repro.lowrank.block import LowRankBlock
from repro.lowrank.rrqr import rrqr_lapack
from repro.lowrank.svd import svd_truncate


def _operand_scale(v_c: np.ndarray, v_ab: np.ndarray) -> float:
    """Norm scale of the extend-add operands.

    With orthonormal ``u`` factors, ``||uvᵗ||_F = ||v||_F``, so the operand
    scale is ``hypot(||vC||, ||vAB||)``.  Truncating relative to this scale
    (rather than to the possibly tiny result) makes a cancelling update
    collapse to rank 0 instead of storing full-rank roundoff noise.
    """
    return float(np.hypot(np.linalg.norm(v_c), np.linalg.norm(v_ab)))


def recompress_svd(u_c: np.ndarray, v_c: np.ndarray,
                   u_ab: np.ndarray, v_ab: np.ndarray,
                   tol: float,
                   max_rank: Optional[int] = None,
                   norm_ref: Optional[float] = None,
                   tail: Optional[List[float]] = None) -> Optional[LowRankBlock]:
    """SVD extend-add: ``C' = uC vCᵗ − uAB vABᵗ`` recompressed at ``tol``.

    ``uAB`` / ``vAB`` must already be padded to C's row/column frame
    (Figure 4).  Complexity Θ((mC + nC)(rC + rAB)² + (rC + rAB)³).
    ``norm_ref`` folds an external reference (e.g. ``||A||_F`` for the
    global threshold modes) into the truncation scale.  A ``tail`` list
    receives the squared Frobenius norm the truncation dropped.
    """
    u_cat = np.hstack([u_c, u_ab])
    v_cat = np.hstack([v_c, -v_ab])
    dt = np.result_type(u_cat, v_cat)
    if u_cat.shape[1] == 0:
        return LowRankBlock.zero(u_c.shape[0], v_c.shape[0], dtype=dt)
    q1, r1 = np.linalg.qr(u_cat)       # eq. (7)
    q2, r2 = np.linalg.qr(v_cat)
    core = r1 @ r2.T
    uu, sigma, vvt = sla.svd(core, full_matrices=False,
                             check_finite=False)
    scale = max(float(np.linalg.norm(sigma)), _operand_scale(v_c, v_ab))
    if norm_ref is not None:
        scale = max(scale, float(norm_ref))
    rank = svd_truncate(sigma, tol, norm_a=scale)
    if max_rank is not None and rank > max_rank:
        return None
    if tail is not None:
        tail.append(float((sigma[rank:] ** 2).sum()))
    if rank == 0:
        return LowRankBlock.zero(u_c.shape[0], v_c.shape[0], dtype=dt)
    u_new = q1 @ uu[:, :rank]          # eq. (8)
    v_new = q2 @ (vvt[:rank].T * sigma[:rank])
    return LowRankBlock(u_new, v_new)


def recompress_rrqr(u_c: np.ndarray, v_c: np.ndarray,
                    u_ab: np.ndarray, v_ab: np.ndarray,
                    tol: float,
                    max_rank: Optional[int] = None,
                    norm_ref: Optional[float] = None,
                    tail: Optional[List[float]] = None) -> Optional[LowRankBlock]:
    """RRQR extend-add (eqs. 9–12).

    Requires ``uC`` orthonormal (the solver invariant).  ``uAB``/``vAB``
    must be padded to C's frame.  The returned ``u`` is orthonormal; the
    CGS2 projection against ``uC`` applies ``uCᴴ`` — a Hermitian adjoint,
    a no-copy pass-through for real factors.  A ``tail`` list receives
    the squared Frobenius norm the truncation dropped, ``‖core‖² −
    ‖R_r‖²`` (the core is the sum in an orthonormal basis).

    Complexity Θ(mC rC rAB + nC (rC + rAB) rC') — it depends on the target
    size ``mC, nC`` rather than on the contribution size, the very property
    that makes Minimal Memory slower than the dense solver (paper §3.4).
    """
    m, n = u_c.shape[0], v_c.shape[0]
    r_c, r_ab = u_c.shape[1], u_ab.shape[1]
    dt = np.result_type(u_c, v_c, u_ab, v_ab)
    scale = _operand_scale(v_c, v_ab)
    if norm_ref is not None:
        scale = max(scale, float(norm_ref))
    if r_ab == 0:
        return LowRankBlock(u_c, v_c)
    if r_c == 0:
        # no existing directions: plain truncated QR of the contribution
        q2, r2 = np.linalg.qr(u_ab)
        core = r2 @ (-v_ab.T)
        res = rrqr_lapack(core, tol, max_rank, norm_ref=scale)
        if not res.converged:
            return None
        if tail is not None:
            tail.append(sqnorm(core) - sqnorm(res.r))
        rank = res.q.shape[1]
        if rank == 0:
            return LowRankBlock.zero(m, n, dtype=dt)
        vt = np.empty((rank, n), dtype=res.r.dtype)
        vt[:, res.jpvt] = res.r
        return LowRankBlock(q2 @ res.q, vt.T.copy())

    # eq. (9): orthogonalize the new directions against uC (Hermitian
    # projection — .conj() is a no-copy pass-through for real factors)
    x = u_c.conj().T @ u_ab                # (rC, rAB)
    e = u_ab - u_c @ x
    # one reorthogonalization pass for numerical safety (CGS2)
    x2 = u_c.conj().T @ e
    e -= u_c @ x2
    x += x2
    q2, r2 = np.linalg.qr(e)               # new orthonormal directions

    # eq. (11): the small core [[I, X], [0, R2]] @ [vC, -vAB]ᵗ
    top = v_c.T - x @ v_ab.T               # (rC, n)
    bot = -(r2 @ v_ab.T)                   # (rAB, n)
    core = np.vstack([top, bot])

    res = rrqr_lapack(core, tol, max_rank, norm_ref=scale)
    if not res.converged:
        return None
    if tail is not None:
        tail.append(sqnorm(core) - sqnorm(res.r))
    rank = res.q.shape[1]
    if rank == 0:
        return LowRankBlock.zero(m, n, dtype=dt)

    # eq. (12): map back through the orthonormal basis [uC, Q2]
    basis = np.hstack([u_c, q2])
    u_new = basis @ res.q
    vt = np.empty((rank, n), dtype=res.r.dtype)
    vt[:, res.jpvt] = res.r
    return LowRankBlock(u_new, vt.T.copy())


def sqnorm(a: np.ndarray) -> float:
    """Squared Frobenius norm of ``a``."""
    return float(np.linalg.norm(a)) ** 2
