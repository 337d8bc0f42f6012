"""Iterative refinement preconditioned by the BLR factorization (§4.4).

The paper uses the low-rank factorization either as a low-accuracy direct
solver or as a preconditioner: "GMRES for general matrices and Conjugate
Gradient for SPD matrices", stopped after 20 iterations or a backward error
below 1e-12 (Figure 8).  All three schemes here take an abstract
``precond(r) -> z`` callable (the solver's :meth:`~repro.core.solver.Solver.
solve` bound with ``refine=False``) and record the backward-error history
``||A x_k - b||₂ / ||b||₂`` that Figure 8 plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.sparse.csc import CSCMatrix


def _work_dtype(a: CSCMatrix, b: np.ndarray) -> np.dtype:
    """Workspace dtype of a refinement run (complex matrix or rhs promotes
    everything; non-inexact input falls back to float64)."""
    dt = np.result_type(a.values.dtype, np.asarray(b).dtype)
    return dt if dt.kind in "fc" else np.dtype(np.float64)


@dataclass
class RefinementResult:
    """Solution plus convergence trace.

    ``history`` holds the *full* per-iteration residual record the three
    schemes append to (``history[0]`` is the residual of the starting
    guess, ``history[i]`` the residual after iteration ``i``) — the series
    Figure 8 plots.  :attr:`residual_history` exposes it under its
    report name: the RunReport's ``refinement`` section carries it and
    ``render_figures`` draws it from there (no telemetry series).

    For a multi-RHS panel ``b`` of shape ``(n, k)``, ``x`` is the ``(n,
    k)`` solution panel, :attr:`col_history` carries the per-column
    residual records, and ``history`` is their per-iteration *maximum*
    (shorter columns — frozen once converged — padded with their final
    residual), so every consumer of the single-RHS history (telemetry,
    reports, the escalation classifier) keeps working unchanged: the max
    reaching ``tol`` means every column did.
    """

    x: np.ndarray
    history: List[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    #: no ``drop``× residual reduction over the last ``window`` iterations
    #: (set by :func:`classify_history` when the scheme does not converge)
    stagnated: bool = False
    #: the residual grew well past its best value, or went non-finite
    diverged: bool = False
    #: per-column residual histories for panel right-hand sides
    #: (``None`` for single-RHS runs; zero-norm columns get ``[]``)
    col_history: Optional[List[List[float]]] = None

    @property
    def backward_error(self) -> float:
        return self.history[-1] if self.history else np.inf

    @property
    def residual_history(self) -> List[float]:
        """Per-iteration residuals (GMRES/CG/IR), starting guess first;
        the per-column maximum for panel right-hand sides."""
        return list(self.history)


def classify_history(history: List[float], window: int = 4,
                     drop: float = 10.0, growth: float = 10.0
                     ) -> Tuple[bool, bool]:
    """``(stagnated, diverged)`` verdict on a residual history.

    *Diverged*: the last residual is non-finite, or grew more than
    ``growth``× past the best residual seen.  *Stagnated*: more than
    ``window`` recorded iterations and the last residual did not drop
    ``drop``× below the residual ``window`` iterations ago (the "no 10×
    drop in k iterations" rule).  The recovery layer treats both as a
    breakdown of the preconditioner quality and escalates.
    """
    if not history:
        return False, False
    last = history[-1]
    if not math.isfinite(last):
        return False, True
    if len(history) > 1:
        best = min(history[:-1])
        if math.isfinite(best) and last > growth * best:
            return False, True
    if len(history) > window:
        ref = history[-1 - window]
        if ref != 0.0 and last > ref / drop:
            return True, False
    return False, False


def _backward_error(a: CSCMatrix, x: np.ndarray, b: np.ndarray,
                    norm_b: float) -> float:
    return float(np.linalg.norm(a.matvec(x) - b) / norm_b)


# ----------------------------------------------------------------------
# multi-RHS panel support
# ----------------------------------------------------------------------

def _merge_histories(col_history: List[List[float]]) -> List[float]:
    """Per-iteration maximum over the column histories.

    Columns freeze once converged, so their histories may be shorter;
    frozen columns contribute their final residual to later iterations
    (last-value padding).  Zero-norm columns (empty histories, converged
    by construction) are skipped entirely.
    """
    live = [h for h in col_history if h]
    if not live:
        return []
    merged = []
    for i in range(max(len(h) for h in live)):
        merged.append(max(h[min(i, len(h) - 1)] for h in live))
    return merged


def _columnwise(single: Callable[..., RefinementResult], a: CSCMatrix,
                b: np.ndarray, x0: Optional[np.ndarray],
                **kwargs: object) -> RefinementResult:
    """Run a single-RHS scheme per panel column and stack the results
    into one panel :class:`RefinementResult`.

    Each column is passed as a fresh contiguous vector, so the per-column
    runs are bit-identical to solving that column alone.
    """
    cols = []
    for j in range(b.shape[1]):
        xj = None if x0 is None else np.ascontiguousarray(x0[:, j])
        cols.append(single(a, np.ascontiguousarray(b[:, j]), x0=xj,
                           **kwargs))
    x = (np.stack([c.x for c in cols], axis=1) if cols
         else np.zeros((b.shape[0], 0), dtype=_work_dtype(a, b)))
    return RefinementResult(
        x=x,
        history=_merge_histories([c.history for c in cols]),
        converged=all(c.converged for c in cols),
        iterations=max((c.iterations for c in cols), default=0),
        stagnated=any(c.stagnated for c in cols),
        diverged=any(c.diverged for c in cols),
        col_history=[list(c.history) for c in cols],
    )


def iterative_refinement(a: CSCMatrix, b: np.ndarray,
                         precond: Callable[[np.ndarray], np.ndarray],
                         tol: float = 1e-12, maxiter: int = 20,
                         x0: Optional[np.ndarray] = None) -> RefinementResult:
    """Classical residual correction: ``x += M⁻¹ (b - A x)``, iterating in
    ``_work_dtype(a, b)``.

    ``b`` may be an ``(n, k)`` panel or a vector, which refines as the
    one-column panel (``precond`` then sees ``(n, 1)`` panels).  The
    residual and correction solves run on the whole panel (one
    BLAS-3-shaped pass per iteration — the multi-RHS payoff), restricted
    to the still-active columns; a column freezes once it converges.
    Because the matvec and the preconditioner are column-stable, every
    column's iterates — and its residual history — are bit-identical to a
    run on that column alone (for identical dtypes).
    """
    b = np.asarray(b)
    if b.ndim == 1:
        res = iterative_refinement(
            a, b[:, None], precond, tol, maxiter,
            None if x0 is None else np.asarray(x0)[:, None])
        res.x, res.col_history = res.x[:, 0], None
        return res
    n, k = b.shape
    dt = _work_dtype(a, b)
    col_hist: List[List[float]] = [[] for _ in range(k)]
    if k == 0:
        return RefinementResult(x=np.zeros((n, 0), dtype=dt),
                                converged=True, col_history=col_hist)
    # per-column norms of contiguous copies: the same reduction a 1-D
    # right-hand side gets
    norm_b = np.array([
        float(np.linalg.norm(np.ascontiguousarray(b[:, j])))
        for j in range(k)])
    nz = [j for j in range(k) if norm_b[j] > 0.0]
    x = np.zeros((n, k), dtype=dt)
    if nz:
        if x0 is None:
            x[:, nz] = precond(np.ascontiguousarray(b[:, nz]))
        else:
            x[:, nz] = np.asarray(x0, dtype=dt)[:, nz]
    iters = [0] * k
    for j in nz:
        col_hist[j].append(_backward_error(
            a, np.ascontiguousarray(x[:, j]),
            np.ascontiguousarray(b[:, j]), norm_b[j]))
    active = [j for j in nz if col_hist[j][-1] > tol]
    for it in range(maxiter):
        if not active:
            break
        r = b - a.matvec(x)
        x[:, active] += precond(np.ascontiguousarray(r[:, active]))
        for j in active:
            col_hist[j].append(_backward_error(
                a, np.ascontiguousarray(x[:, j]),
                np.ascontiguousarray(b[:, j]), norm_b[j]))
            iters[j] = it + 1
        active = [j for j in active if col_hist[j][-1] > tol]
    res = RefinementResult(
        x=x,
        history=_merge_histories(col_hist),
        converged=all(not h or h[-1] <= tol for h in col_hist),
        iterations=max(iters, default=0),
        col_history=col_hist,
    )
    if not res.converged:
        flags = [classify_history(h) for h in col_hist
                 if h and h[-1] > tol]
        res.stagnated = any(s for s, _ in flags)
        res.diverged = any(d for _, d in flags)
    return res


def gmres(a: CSCMatrix, b: np.ndarray,
          precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
          tol: float = 1e-12, maxiter: int = 20, restart: int = 30,
          x0: Optional[np.ndarray] = None) -> RefinementResult:
    """Right-preconditioned restarted GMRES (Arnoldi + Givens rotations).

    Right preconditioning keeps the monitored residual equal to the true
    residual of ``A x = b``, so the recorded history is directly the
    backward error of Figure 8.  Each cycle keeps the ``z_j = M⁻¹ v_j``
    its Arnoldi steps computed and updates ``x += Z y`` (flexible-GMRES
    bookkeeping): ``precond`` runs once per iteration, and for a linear
    ``precond`` the iterate is ``x + M⁻¹ (V y)`` up to rounding.  Complex
    systems use the Hermitian inner product in the Gram-Schmidt sweep and
    apply each Givens rotation's adjoint (LAPACK ``zrotg`` convention: real
    cosines, conjugated sines).

    Panel right-hand sides run column by column (the Krylov space is
    per-column by nature) and merge into one panel result.
    """
    if np.asarray(b).ndim == 2:
        return _columnwise(gmres, a, b, x0, precond=precond, tol=tol,
                           maxiter=maxiter, restart=restart)
    n = a.n
    dt = _work_dtype(a, b)
    complex_arith = dt.kind == "c"
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return RefinementResult(x=np.zeros(n, dtype=dt), converged=True)
    m_op = precond if precond is not None else (lambda r: r)
    x = np.zeros(n, dtype=dt) if x0 is None else np.array(x0, dtype=dt)
    res = RefinementResult(x=x)
    res.history.append(_backward_error(a, x, b, norm_b))
    total_it = 0

    while total_it < maxiter and res.history[-1] > tol:
        r = b - a.matvec(x)
        beta = float(np.linalg.norm(r))
        if beta == 0.0:
            break
        m = min(restart, maxiter - total_it)
        v = np.zeros((m + 1, n), dtype=dt)
        h = np.zeros((m + 1, m), dtype=dt)
        cs = np.zeros(m, dtype=np.finfo(dt).dtype)  # zrotg: cosines are real
        sn = np.zeros(m, dtype=dt)
        g = np.zeros(m + 1, dtype=dt)
        g[0] = beta
        v[0] = r / beta
        # z_j = M⁻¹ v_j, kept for x += Z y: no solve of V y at the end
        zs: List[np.ndarray] = []
        j_used = 0
        for j in range(m):
            zs.append(m_op(v[j]))
            w = a.matvec(zs[-1])
            # modified Gram-Schmidt (Hermitian inner product when complex)
            for i in range(j + 1):
                # solverlint: ignore[python-hot-loop] -- MGS recurrence: each h[i,j] depends on the w updated by the previous i
                h[i, j] = (np.vdot(v[i], w) if complex_arith
                           else float(w @ v[i]))
                w -= h[i, j] * v[i]
            wnorm = float(np.linalg.norm(w))
            h[j + 1, j] = wnorm
            if wnorm > 0.0:
                v[j + 1] = w / wnorm
            # apply previous Givens rotations to the new column
            # (np.conj is a no-op pass-through for the real sines)
            for i in range(j):
                tmp = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                # solverlint: ignore[python-hot-loop] -- sequential rotation chain: rotation i feeds h entries read by rotation i+1
                h[i + 1, j] = (-np.conj(sn[i]) * h[i, j]
                               + cs[i] * h[i + 1, j])
                h[i, j] = tmp
            # new rotation annihilating h[j+1, j]
            if complex_arith:
                # LAPACK zrotg: c real, s = (f/|f|) conj(g) / r
                f, gv = complex(h[j, j]), complex(h[j + 1, j])
                if gv == 0.0:
                    cs[j], sn[j], r_val = 1.0, 0.0, f
                elif f == 0.0:
                    cs[j] = 0.0
                    sn[j] = np.conj(gv) / abs(gv)
                    r_val = abs(gv)
                else:
                    d = float(np.hypot(abs(f), abs(gv)))
                    cs[j] = abs(f) / d
                    phase = f / abs(f)
                    sn[j] = phase * np.conj(gv) / d
                    r_val = phase * d
                h[j, j] = r_val
            else:
                denom = float(np.hypot(h[j, j], h[j + 1, j]))
                if denom == 0.0:
                    cs[j], sn[j] = 1.0, 0.0
                else:
                    cs[j], sn[j] = h[j, j] / denom, h[j + 1, j] / denom
                # solverlint: ignore[python-hot-loop] -- O(1) scalar update on the Hessenberg diagonal, once per Arnoldi step
                h[j, j] = cs[j] * h[j, j] + sn[j] * h[j + 1, j]
            h[j + 1, j] = 0.0
            g[j + 1] = -np.conj(sn[j]) * g[j]
            # solverlint: ignore[python-hot-loop] -- O(1) scalar update of the rotated rhs, once per Arnoldi step
            g[j] = cs[j] * g[j]
            j_used = j + 1
            total_it += 1
            res.history.append(float(abs(g[j + 1])) / norm_b)
            if res.history[-1] <= tol or total_it >= maxiter:
                break
        # solve the small triangular system and update x
        if j_used:
            y = np.linalg.solve(h[:j_used, :j_used], g[:j_used])
            x = x + np.stack(zs, axis=1) @ y
        # replace the Arnoldi residual estimate with the true backward error
        res.history[-1] = _backward_error(a, x, b, norm_b)
        if beta / norm_b <= res.history[-1] * (1.0 + 1e-12):
            break  # stagnation: the cycle made no progress

    res.x = x
    res.iterations = total_it
    res.converged = res.history[-1] <= tol
    if not res.converged:
        res.stagnated, res.diverged = classify_history(res.history)
    return res


def conjugate_gradient(a: CSCMatrix, b: np.ndarray,
                       precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                       tol: float = 1e-12, maxiter: int = 20,
                       x0: Optional[np.ndarray] = None) -> RefinementResult:
    """Preconditioned conjugate gradient (for SPD matrices).

    Panel right-hand sides run column by column and merge into one panel
    result."""
    if np.asarray(b).ndim == 2:
        return _columnwise(conjugate_gradient, a, b, x0, precond=precond,
                           tol=tol, maxiter=maxiter)
    n = a.n
    dt = _work_dtype(a, b)
    complex_arith = dt.kind == "c"
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return RefinementResult(x=np.zeros(n, dtype=dt), converged=True)
    m_op = precond if precond is not None else (lambda r: r)
    x = np.zeros(n, dtype=dt) if x0 is None else np.array(x0, dtype=dt)
    r = b - a.matvec(x)
    z = m_op(r)
    p = z.copy()
    # Hermitian inner products for complex (HPD) systems
    rz = complex(np.vdot(r, z)) if complex_arith else float(r @ z)
    res = RefinementResult(x=x)
    res.history.append(float(np.linalg.norm(r)) / norm_b)
    for it in range(maxiter):
        if res.history[-1] <= tol:
            break
        ap = a.matvec(p)
        pap = complex(np.vdot(p, ap)) if complex_arith else float(p @ ap)
        if pap == 0.0:
            break
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res.history.append(float(np.linalg.norm(r)) / norm_b)
        res.iterations = it + 1
        if res.history[-1] <= tol:
            break
        z = m_op(r)
        rz_new = complex(np.vdot(r, z)) if complex_arith else float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    res.x = x
    res.converged = res.history[-1] <= tol
    if not res.converged:
        res.stagnated, res.diverged = classify_history(res.history)
    return res
