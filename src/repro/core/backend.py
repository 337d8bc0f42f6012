"""The kernel module: every dense BLAS/LAPACK call of the solver.

Every numeric hot path of the solver funnels through the one
:class:`Kernels` instance, :data:`KERNELS` (also returned by
:func:`get_backend` and held by every factor as ``fac.backend``): the
diagonal-block factorizations (``getrf`` / ``potrf`` / ``ldlt`` with static
pivoting, ``ldlt_pivot`` with threshold pivoting), the BLAS-3 panel solves
(``trsm``), the update products (``gemm`` / ``syrk``), and the *panel*
kernels the triangular solve phase applies to ``(n, k)`` right-hand-side
blocks (``panel_gemm`` / ``panel_trsm`` / ``lr_apply``).  Each call ticks a
per-op counter (:meth:`Kernels.counts_snapshot` /
:meth:`Kernels.counts_delta`), which the solver reports as
``FactorizationStats.backend_kernel_calls``.

Two distinct numerical contracts coexist here, and the split is the whole
design:

* **Factorization kernels** (``gemm``/``trsm``/``getrf``/``potrf``/
  ``ldlt``/``syrk``) wrap BLAS/LAPACK exactly the way the seed code did —
  same call patterns, same transpose tricks — so a float64 factorization
  is *bit-identical* to the seed solver (the conformance suite pins
  sha256 digests on this).

* **Panel kernels** (``panel_gemm``/``panel_trsm``/``lr_apply``) are
  **column-stable**: column ``j`` of the result depends only on column
  ``j`` of the input, bit-for-bit, regardless of how many other columns
  ride in the panel: each column is its own BLAS gemv or LAPACK ``trtrs``
  call.  One gemm/trsm over the panel would change its blocking, and so
  its summation order, with the panel width; the column-wise calls are
  what make blocked multi-RHS solves equal column-by-column solves.

See ``docs/performance.md`` for both contracts in full.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Tuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import get_lapack_funcs

__all__ = ["KERNELS", "Kernels", "PivotError", "get_backend"]


# ----------------------------------------------------------------------
# triangular solve on the LAPACK routine, bound once per dtype pair
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _trtrs(a_dtype: np.dtype, b_dtype: np.dtype) -> Callable[..., Any]:
    """LAPACK ``?trtrs`` for operands of these dtypes — the routine
    ``scipy.linalg.solve_triangular`` looks up again on every call."""
    return get_lapack_funcs(
        ("trtrs",),
        (np.empty(0, dtype=a_dtype), np.empty(0, dtype=b_dtype)))[0]


def _bind_trtrs(a: np.ndarray, b: np.ndarray, trans: str, lower: bool,
                unit_diagonal: bool
                ) -> Tuple[np.dtype, Callable[[np.ndarray, bool], np.ndarray]]:
    """``(dtype, solve)``: ``trtrs`` for ``op(a) x = rhs`` bound once for
    right-hand sides like ``b`` — shapes checked, routine looked up, ``a``
    converted to its ``dtype`` and Fortran order here, not on every call.
    ``solve(rhs, True)`` solves a contiguous ``rhs`` of ``dtype`` in place."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected square matrix")
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"shapes of a {a.shape} and b {b.shape} are incompatible")
    trtrs = _trtrs(a.dtype, b.dtype)
    a = np.asarray(a, dtype=trtrs.dtype)
    t = "NTC".index(trans)
    if t == 2:
        a = np.asfortranarray(a)
    elif not a.flags.f_contiguous:
        # trtrs expects Fortran ordering: solve the transposed system
        a, lower, t = a.T, not lower, int(not t)

    def solve(rhs: np.ndarray, overwrite_b: bool) -> np.ndarray:
        # positional: keywords cost the wrapper more than a small solve
        x, info = trtrs(a, rhs, lower, t, unit_diagonal, a.shape[0],
                        overwrite_b)
        if info > 0:
            raise LinAlgError(
                f"singular matrix: resolution failed at diagonal {info - 1}")
        if info < 0:
            raise ValueError(
                f"illegal value in {-info}-th argument of internal trtrs")
        return x
    return trtrs.dtype, solve


def _solve_triangular(a: np.ndarray, b: np.ndarray, trans: str = "N",
                      lower: bool = False,
                      unit_diagonal: bool = False) -> np.ndarray:
    """``scipy.linalg.solve_triangular(a, b, ..., check_finite=False)``
    without its per-call batching, validation and routine lookup: the same
    shape checks, the same ``trtrs`` call (so the same bits), the same
    empty right-hand side and the same errors."""
    dtype, solve = _bind_trtrs(a, b, trans, lower, unit_diagonal)
    if b.size == 0:
        return np.empty_like(b, dtype=dtype)
    return solve(b, False)


# ----------------------------------------------------------------------
# the diagonal-block factorizations (static pivoting)
# ----------------------------------------------------------------------

def _lu_nopivot(a: np.ndarray, pivot_threshold: float = 1e-14
                ) -> Tuple[np.ndarray, int]:
    """LU without row pivoting (static pivoting), LAPACK packed layout."""
    lu = np.array(a, copy=True)
    if lu.dtype.kind not in "fc":
        lu = lu.astype(np.float64)
    n = lu.shape[0]
    if lu.shape[1] != n:
        raise ValueError("diagonal block must be square")
    max_diag = float(np.abs(np.diag(lu)).max())
    floor = pivot_threshold * (max_diag if max_diag > 0 else 1.0)
    nperturbed = 0
    # blocked right-looking elimination; block size tuned for BLAS3 payoff
    bs = 64
    for k0 in range(0, n, bs):
        k1 = min(k0 + bs, n)
        # factor the diagonal sub-block with scalar loop + static pivoting
        for k in range(k0, k1):
            piv = lu[k, k]
            if abs(piv) < floor:
                if lu.dtype.kind == "c":
                    # keep the complex phase (floor for an exact zero)
                    piv = floor if piv == 0 else piv / abs(piv) * floor
                else:
                    piv = floor if piv >= 0 else -floor
                lu[k, k] = piv
                nperturbed += 1
            if k + 1 < k1:
                lu[k + 1:k1, k] /= piv
                lu[k + 1:k1, k + 1:k1] -= np.outer(lu[k + 1:k1, k],
                                                   lu[k, k + 1:k1])
        if k1 < n:
            diag = lu[k0:k1, k0:k1]
            # panel solves against the factored sub-block
            lu[k0:k1, k1:] = _solve_triangular(
                diag, lu[k0:k1, k1:], lower=True, unit_diagonal=True)
            lu[k1:, k0:k1] = _solve_triangular(
                diag, lu[k1:, k0:k1].T, trans="T", lower=False).T
            # trailing update (the BLAS3 payload)
            lu[k1:, k1:] -= lu[k1:, k0:k1] @ lu[k0:k1, k1:]
    return lu, nperturbed


def _cholesky_nopivot(a: np.ndarray, pivot_threshold: float = 1e-14
                      ) -> Tuple[np.ndarray, int]:
    """Lower Cholesky with static regularization of non-positive pivots.

    Complex blocks are treated as Hermitian (``L Lᴴ`` with a real
    diagonal), so the rank-1 update conjugates the eliminated column.
    """
    n = a.shape[0]
    try:
        return np.linalg.cholesky(a), 0
    except np.linalg.LinAlgError:
        pass
    # fall back to a scalar loop with pivot boosting (complex blocks are
    # treated as Hermitian: L L^H with a real diagonal)
    l_mat = np.array(a, copy=True)
    if l_mat.dtype.kind not in "fc":
        l_mat = l_mat.astype(np.float64)
    max_diag = float(np.abs(np.diag(a)).max())
    floor = pivot_threshold * (max_diag if max_diag > 0 else 1.0)
    nperturbed = 0
    for k in range(n):
        d = l_mat[k, k].real
        if d <= floor:
            d = floor
            nperturbed += 1
        d = np.sqrt(d)
        l_mat[k, k] = d
        if k + 1 < n:
            l_mat[k + 1:, k] /= d
            l_mat[k + 1:, k + 1:] -= np.outer(l_mat[k + 1:, k],
                                              l_mat[k + 1:, k].conj())
    return np.tril(l_mat), nperturbed


def _ldlt_nopivot(a: np.ndarray, pivot_threshold: float = 1e-14
                  ) -> Tuple[np.ndarray, int]:
    """LDLᵗ (LDLᴴ for complex) without pivoting; unit-lower L packed with
    D on the diagonal.

    Complex blocks are factored as Hermitian ``L D Lᴴ`` (real ``D``), so
    the trailing update conjugates the eliminated column.
    """
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("diagonal block must be square")
    packed = np.array(a, copy=True)
    if packed.dtype.kind not in "fc":
        packed = packed.astype(np.float64)
    hermitian = packed.dtype.kind == "c"
    max_diag = float(np.abs(np.diag(a)).max())
    floor = pivot_threshold * (max_diag if max_diag > 0 else 1.0)
    nperturbed = 0
    for k in range(n):
        # complex blocks are factored as Hermitian L D L^H: D is
        # mathematically real, so roundoff imaginary parts are dropped
        d = packed[k, k].real if hermitian else packed[k, k]
        if abs(d) < floor:
            d = floor if d >= 0 else -floor
            nperturbed += 1
        packed[k, k] = d
        if k + 1 < n:
            col = packed[k + 1:, k] / d
            if hermitian:
                packed[k + 1:, k + 1:] -= np.outer(col,
                                                   packed[k + 1:, k].conj())
            else:
                packed[k + 1:, k + 1:] -= np.outer(col, packed[k + 1:, k])
            packed[k + 1:, k] = col
    return packed, nperturbed


class PivotError(RuntimeError):
    """A pivoting diagonal-block kernel could not complete.

    ``kind`` is ``"pivot-failure"`` (no admissible pivot under the
    threshold ``u`` — the remaining column is numerically zero) or
    ``"pivot-growth"`` (the element growth factor exceeded the configured
    bound).  The factorization layer translates this into a structured
    :class:`~repro.runtime.recovery.NumericalBreakdown` so the recovery
    ladder can relax the threshold or fall back to perturbation.
    """

    def __init__(self, kind: str, col: int, detail: str = "") -> None:
        super().__init__(detail or kind)
        self.kind = kind
        self.col = col


def _ldlt_pivot(a: np.ndarray, u: float = 0.1,
                growth_limit: float = 1e8, fallback: bool = False,
                pivot_threshold: float = 1e-14
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                           Dict[str, Any]]:
    """Threshold-pivoted LDLᵗ (LDLᴴ for complex) with 1×1/2×2 pivots.

    Bunch–Kaufman partial pivoting with the fixed α replaced by the
    caller's threshold ``u`` ∈ (0, 0.5]: a 1×1 pivot ``d`` is admissible
    when ``|d| ≥ u·λ`` (λ the largest off-diagonal magnitude in its
    column), otherwise the standard row test promotes either an
    interchanged 1×1 pivot or a 2×2 pivot built from rows ``(k, r)``.
    Smaller ``u`` accepts more pivots in place (fewer interchanges,
    weaker growth bound); the recovery ladder relaxes it on breakdown.

    Returns ``(packed, perm, d21, stats)``:

    * ``packed`` — unit-lower ``L`` strictly below the diagonal, the 1×1
      pivots / 2×2 pivot *diagonals* on the diagonal (LAPACK ``sytrf``
      layout, upper triangle unspecified).  The ``L`` entry under a 2×2
      pivot's first column is exactly zero, so unit-lower triangular
      solves read the packed array unchanged.
    * ``perm`` — within-block permutation: row ``i`` of the factored
      matrix is row ``perm[i]`` of ``a`` (``a[np.ix_(perm, perm)] ≈
      L D Lᵗ``).
    * ``d21`` — subdiagonals of the 2×2 pivots: ``d21[k]`` is ``D[k+1,k]``
      when a 2×2 pivot starts at ``k``, zero elsewhere.
    * ``stats`` — ``{"swaps", "n2x2", "perturbed", "growth"}``.

    Raises :class:`PivotError` on a numerically-zero column (unless
    ``fallback=True``, which perturbs it static-pivoting style) and on
    growth past ``growth_limit``.

    Complex blocks are factored as Hermitian ``L D Lᴴ`` with real 1×1
    pivots and real 2×2 diagonals, matching :func:`_ldlt_nopivot`.
    """
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("diagonal block must be square")
    w = np.array(a, copy=True)
    if w.dtype.kind not in "fc":
        w = w.astype(np.float64)
    hermitian = w.dtype.kind == "c"
    # Assembled diagonal blocks are only guaranteed in their *lower*
    # triangle (symmetric updates skip the mirrored upper regions, and
    # the unpivoted kernel never reads them) — rebuild the upper triangle
    # from the lower one before any symmetric interchange can mix a stale
    # upper entry into the active submatrix.
    lower = np.tril(w, -1)
    w = lower + (lower.conj().T if hermitian else lower.T)
    didx = np.arange(n)
    w[didx, didx] = (np.diag(a).real if hermitian else np.diag(a))
    perm = np.arange(n, dtype=np.int64)
    d21 = np.zeros(n, dtype=w.dtype)
    a0max = float(np.abs(w).max()) if n else 0.0
    scale = a0max if a0max > 0 else 1.0
    floor = pivot_threshold * scale
    swaps = n2x2 = perturbed = 0
    wmax = a0max

    def _interchange(i: int, j: int) -> None:
        # full symmetric row+column swap keeps the trailing block
        # symmetric/Hermitian, so later pivot searches stay valid
        w[[i, j], :] = w[[j, i], :]
        w[:, [i, j]] = w[:, [j, i]]
        perm[[i, j]] = perm[[j, i]]

    k = 0
    while k < n:
        absakk = abs(w[k, k])
        if k + 1 < n:
            tailcol = np.abs(w[k + 1:, k])
            imax = k + 1 + int(np.argmax(tailcol))
            colmax = float(tailcol[imax - k - 1])
        else:
            imax, colmax = k, 0.0
        use2 = False
        if max(absakk, colmax) <= floor:
            # numerically-zero column: no admissible pivot at any u
            if not fallback:
                raise PivotError(
                    "pivot-failure", k,
                    f"column {k}: |diag| {absakk:.3e} and off-diagonal "
                    f"max {colmax:.3e} both below the pivot floor "
                    f"{floor:.3e}")
            w[k, k] = floor if w[k, k].real >= 0 else -floor
            perturbed += 1
        elif absakk >= u * colmax:
            pass  # 1x1 pivot in place
        else:
            # row test on the candidate row r = imax (the trailing block
            # is symmetric, so its row is read from w[imax, k:])
            rowabs = np.abs(w[imax, k:]).copy()
            rowabs[imax - k] = 0.0
            rowmax = float(rowabs.max())
            if absakk * rowmax >= u * colmax * colmax:
                pass  # growth of the in-place 1x1 pivot is bounded
            elif abs(w[imax, imax]) >= u * rowmax:
                _interchange(k, imax)  # the larger diagonal leads
                swaps += 1
            else:
                if imax != k + 1:
                    _interchange(k + 1, imax)
                    swaps += 1
                use2 = True
        if use2:
            d11 = w[k, k].real if hermitian else w[k, k]
            d22 = w[k + 1, k + 1].real if hermitian else w[k + 1, k + 1]
            dlo = w[k + 1, k]
            dup = np.conj(dlo) if hermitian else dlo
            det = d11 * d22 - dup * dlo
            if det == 0:
                # BK guarantees |det| >= (1-u^2) colmax^2 > 0 here; an
                # exact zero means pathological cancellation
                if not fallback:
                    raise PivotError(
                        "pivot-failure", k,
                        f"singular 2x2 pivot at column {k}")
                d11 = d11 + (floor if d11 >= 0 else -floor)
                det = d11 * d22 - dup * dlo
                perturbed += 1
            if k + 2 < n:
                c = w[k + 2:, k:k + 2].copy()
                # explicit 2x2 inverse (no LAPACK: keeps the kernel
                # self-contained and bit-reproducible)
                l2 = np.empty_like(c)
                l2[:, 0] = (c[:, 0] * d22 - c[:, 1] * dlo) / det
                l2[:, 1] = (c[:, 1] * d11 - c[:, 0] * dup) / det
                ch = c.conj().T if hermitian else c.T
                w[k + 2:, k + 2:] -= l2 @ ch
                w[k + 2:, k:k + 2] = l2
            w[k, k] = d11
            w[k + 1, k + 1] = d22
            d21[k] = dlo
            w[k + 1, k] = 0.0  # L is unit-lower across the 2x2 pivot
            n2x2 += 1
            knext = k + 2
        else:
            d = w[k, k].real if hermitian else w[k, k]
            w[k, k] = d
            if k + 1 < n:
                col = w[k + 1:, k] / d
                if hermitian:
                    w[k + 1:, k + 1:] -= np.outer(col,
                                                  w[k + 1:, k].conj())
                else:
                    w[k + 1:, k + 1:] -= np.outer(col, w[k + 1:, k])
                w[k + 1:, k] = col
            knext = k + 1
        if knext < n:
            wmax = max(wmax, float(np.abs(w[knext:, knext:]).max()))
            if wmax / scale > growth_limit:
                raise PivotError(
                    "pivot-growth", k,
                    f"element growth {wmax / scale:.3e} exceeds the "
                    f"limit {growth_limit:.3e} after column {k}")
        k = knext
    stats: Dict[str, Any] = {
        "swaps": swaps, "n2x2": n2x2, "perturbed": perturbed,
        "growth": wmax / scale,
    }
    return w, perm, d21, stats


# ----------------------------------------------------------------------
# column-stable panel products
# ----------------------------------------------------------------------

def _stable_gemm(a: np.ndarray, x: np.ndarray,
                 trans: str = "N") -> np.ndarray:
    """``op(a) @ x`` with a per-column-deterministic reduction.

    Each output column is an independent BLAS gemv against the same ``a``
    and a contiguous copy of the input column, so its bits cannot depend
    on the panel width.  A single BLAS gemm (or even ``np.einsum``) does
    *not* have this property: their blocking / SIMD inner-loop selection
    changes with the output shape, which changes the summation tree per
    column.

    ``trans='T'`` applies ``aᵗ`` and ``'C'`` the Hermitian adjoint ``aᴴ``
    through the transposed gemv, which reads a C-contiguous ``a`` in place
    (``aᴴ x`` as ``conj(aᵗ conj(x))``; ``.conj()`` passes real arrays
    through).
    """
    xt = np.ascontiguousarray(x.T)  # one copy; each row is a contiguous col
    if trans == "C":
        xt = xt.conj()
    dtype = np.result_type(a, x)
    op = a if trans == "N" else a.T
    if trans == "N" or a.dtype != dtype:
        # a narrow ``a`` is cast once here, into the C-ordered operand the
        # gemvs below would each have cast it to
        op = np.ascontiguousarray(op, dtype=dtype)
    out = np.empty((op.shape[0], x.shape[1]), dtype=dtype)
    for j in range(xt.shape[0]):
        # solverlint: ignore[python-hot-loop] -- one BLAS gemv per column: the per-column independence is the stability contract, and each iteration is a full vectorized matvec, not scalar work
        out[:, j] = op @ xt[j]
    return out.conj() if trans == "C" else out


# ----------------------------------------------------------------------
# the kernels
# ----------------------------------------------------------------------

class Kernels:
    """BLAS/LAPACK (via numpy/scipy) for the factorization kernels,
    one gemv / ``trtrs`` per right-hand-side column for the column-stable
    panel kernels.

    Call counts are tallied per operation in :attr:`counts` (best-effort
    under threads: increments are not locked) and surface as telemetry
    counters and ``FactorizationStats.backend_kernel_calls``.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    # -- call accounting ----------------------------------------------
    def _tick(self, op: str, n: int = 1) -> None:
        self.counts[op] = self.counts.get(op, 0) + n

    def counts_snapshot(self) -> Dict[str, int]:
        """Copy of the cumulative per-op call counts."""
        return dict(self.counts)

    def counts_delta(self, before: Dict[str, int]) -> Dict[str, int]:
        """Per-op calls since a :meth:`counts_snapshot`."""
        return {op: n - before.get(op, 0)
                for op, n in self.counts.items()
                if n - before.get(op, 0)}

    # -- factorization kernels -----------------------------------------
    def gemm(self, a: np.ndarray, b: np.ndarray,
             trans_a: str = "N", trans_b: str = "N") -> np.ndarray:
        """``op(a) @ op(b)``; flag ``'C'`` takes the Hermitian adjoint."""
        self._tick("gemm")
        lhs = a if trans_a == "N" else (a.T if trans_a == "T"
                                        else a.conj().T)
        rhs = b if trans_b == "N" else (b.T if trans_b == "T"
                                        else b.conj().T)
        return lhs @ rhs

    def syrk(self, a: np.ndarray, herk: bool = False) -> np.ndarray:
        """``a @ aᵗ``, or the Hermitian ``a @ aᴴ`` when ``herk=True``."""
        self._tick("herk" if herk else "syrk")
        return a @ (a.conj().T if herk else a.T)

    def trsm(self, a: np.ndarray, b: np.ndarray, *, side: str = "left",
             lower: bool = True, trans: str = "N",
             unit_diagonal: bool = False) -> np.ndarray:
        """Triangular solve; ``trans='C'`` solves against the Hermitian
        adjoint ``aᴴ`` via conjugate / transpose-solve / conjugate."""
        self._tick("trsm")
        if side == "left":
            if trans == "C":
                # op(a) = aᴴ: solve the conjugated system and conjugate
                # back (a no-copy pass-through for real operands)
                return _solve_triangular(
                    a, b.conj(), "T", lower, unit_diagonal).conj()
            return _solve_triangular(a, b, trans, lower, unit_diagonal)
        if side != "right":
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        # X op(a) = b  <=>  op(a)ᵗ Xᵗ = bᵗ — exactly the transpose tricks
        # the pre-backend right-solve helpers used, kept call-for-call so
        # float64 factorizations stay bit-identical to the seed
        if trans == "N":
            return _solve_triangular(a, b.T, "T", lower, unit_diagonal).T
        if trans == "T":
            return _solve_triangular(a, b.T, "N", lower, unit_diagonal).T
        # trans == "C": X aᴴ = b  <=>  a (Xᴴ)ᵗ... — conjugate/solve/conjugate
        return _solve_triangular(
            a, b.conj().T, "N", lower, unit_diagonal).conj().T

    def getrf(self, a: np.ndarray, pivot_threshold: float = 1e-14
              ) -> Tuple[np.ndarray, int]:
        """Statically-pivoted LU of a diagonal block; ``(lu, nperturbed)``."""
        self._tick("getrf")
        return _lu_nopivot(a, pivot_threshold)

    def potrf(self, a: np.ndarray, pivot_threshold: float = 1e-14
              ) -> Tuple[np.ndarray, int]:
        """Regularized lower Cholesky; ``(l, nperturbed)``."""
        self._tick("potrf")
        return _cholesky_nopivot(a, pivot_threshold)

    def ldlt(self, a: np.ndarray, pivot_threshold: float = 1e-14
             ) -> Tuple[np.ndarray, int]:
        """Statically-pivoted LDLᵗ/LDLᴴ; ``(packed, nperturbed)``."""
        self._tick("ldlt")
        return _ldlt_nopivot(a, pivot_threshold)

    def ldlt_pivot(self, a: np.ndarray, u: float = 0.1,
                   growth_limit: float = 1e8, fallback: bool = False,
                   pivot_threshold: float = 1e-14
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                              Dict[str, Any]]:
        """Threshold-pivoted LDLᵗ/LDLᴴ with 1×1/2×2 pivots;
        ``(packed, perm, d21, stats)`` — see :func:`_ldlt_pivot` for the
        layout and :class:`PivotError` semantics."""
        self._tick("ldlt_pivot")
        return _ldlt_pivot(a, u, growth_limit, fallback, pivot_threshold)

    # -- column-stable panel kernels -----------------------------------
    def panel_gemm(self, a: np.ndarray, x: np.ndarray,
                   trans: str = "N") -> np.ndarray:
        """``op(a) @ x`` on a panel of ``k`` columns, column-stable;
        ``trans='T'`` applies ``aᵗ`` and ``'C'`` the Hermitian adjoint
        ``aᴴ``, without the caller materialising the transpose."""
        self._tick("panel_gemm")
        return _stable_gemm(a, x, trans)

    def panel_trsm(self, a: np.ndarray, b: np.ndarray, *,
                   lower: bool = True, trans: str = "N",
                   unit_diagonal: bool = False) -> np.ndarray:
        """Column-stable triangular panel solve ``op(a) X = b``;
        ``trans='C'`` solves against the Hermitian adjoint ``aᴴ``.

        Every right-hand-side column is its own LAPACK ``trtrs`` call,
        bound once per panel as :func:`_solve_triangular` binds it, so
        column ``j`` of the result is ``_solve_triangular(a, b[:, j:j+1],
        …)`` bit for bit, whatever the panel width.  Only the requested
        triangle of ``a`` is read, so LAPACK-packed diagonal blocks (L and
        U sharing storage) can be passed directly.  Returns a fresh array;
        ``b`` is never modified.
        """
        self._tick("panel_trsm")
        dtype, solve = _bind_trtrs(a, b, trans, lower, unit_diagonal)
        x = np.array(b, dtype=dtype, order="F")  # contiguous columns
        for j in range(x.shape[1]):
            solve(x[:, j], True)  # in place
        return x

    def lr_apply(self, u: np.ndarray, v: np.ndarray, x: np.ndarray,
                 mode: str = "n") -> np.ndarray:
        """Apply a low-rank block ``Â = u vᵗ`` to an ``(·, k)`` panel.

        ``mode='n'``: ``Â x``; ``'t'``: ``Âᵗ x``; ``'h'``: the Hermitian
        adjoint ``Âᴴ x = conj(v) uᴴ x``.  Column-stable, rank-0 safe.
        """
        self._tick("lr_apply")
        rank = u.shape[1]
        if rank == 0:
            rows = u.shape[0] if mode == "n" else v.shape[0]
            dt = np.result_type(u, v, x)
            return np.zeros((rows, x.shape[1]), dtype=dt)
        if mode == "n":       # u (vᵗ x)
            return _stable_gemm(u, _stable_gemm(v, x, "T"))
        if mode == "t":       # v (uᵗ x)
            return _stable_gemm(v, _stable_gemm(u, x, "T"))
        # mode == "h": conj(v) (uᴴ x)
        return _stable_gemm(v.conj(), _stable_gemm(u, x, "C"))


#: the one kernel instance (its call counters accumulate across solves)
KERNELS = Kernels()


def get_backend() -> Kernels:
    """The one kernel instance, :data:`KERNELS`."""
    return KERNELS
