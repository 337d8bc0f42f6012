"""The kernel module: every dense BLAS/LAPACK call of the solver.

Every numeric hot path of the solver funnels through the one
:class:`Kernels` instance, :data:`KERNELS` (also returned by
:func:`get_backend` and held by every factor as ``fac.backend``): the
diagonal-block factorizations (``getrf`` / ``potrf`` / ``ldlt`` with static
pivoting, ``ldlt_pivot`` with threshold pivoting), the BLAS-3 panel solves
(``trsm``), the update products (``gemm``), and the
*column-stable* products the triangular solves apply to a stack of ``k``
right-hand sides (:func:`trtrs_rows`, :func:`stable_gemv`,
:func:`lr_gemv`).  Each kernel call ticks a per-op counter, and a
triangular solve charges its sweep's ``panel_trsm`` / ``panel_gemm`` /
``lr_apply`` calls in bulk (:meth:`Kernels.counts_snapshot` /
:meth:`Kernels.counts_delta`); the solver reports them as
``FactorizationStats.backend_kernel_calls``.

Two distinct numerical contracts coexist here, and the split is the whole
design:

* **Factorization kernels** (``gemm``/``trsm``/``getrf``/``potrf``/
  ``ldlt``) call BLAS/LAPACK with fixed call patterns and transpose
  tricks, so a factorization repeats bit for bit
  (``tests/golden/pins.json`` holds its sha256 digests).  ``trsm``
  calls LAPACK ``?trtrs`` (:func:`trtrs_routine`, bound once per dtype
  pair) and ``getrf`` calls ``?getrf`` (:func:`getrf_routine`, once per
  dtype) on each 64-wide diagonal tile.  A ``?getrf`` tile is kept only
  when it is the statically pivoted LU — ``info == 0``, no row
  interchanged, every ``|U_kk|`` at or above the static-pivot floor — so
  it differs from the scalar elimination :func:`_lu_nopivot` only by
  rounding; any other block is that elimination's result, bit for bit.

* **Solve products** (``trtrs_rows`` / ``stable_gemv`` / ``lr_gemv``) are
  **column-stable**: right-hand side ``j`` of the result depends only on
  right-hand side ``j`` of the input, bit-for-bit, however many others
  ride along: each is its own LAPACK ``trtrs`` call, or its own BLAS gemv
  inside one batched ``np.matmul``.  One gemm/trsm over the panel would
  change its blocking, and so its summation order, with the panel width;
  the per-item calls are what make blocked multi-RHS solves equal
  column-by-column solves.

See ``docs/performance.md`` for both contracts in full.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs

__all__ = ["KERNELS", "Kernels", "PivotError", "accumulate_product",
           "gemm_routine", "get_backend", "getrf_routine", "ldlt_routine",
           "lr_gemv", "stable_gemv", "trtrs_routine", "trtrs_rows"]


# ----------------------------------------------------------------------
# triangular solve on the LAPACK routine, bound once per dtype pair
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def trtrs_routine(a_dtype: np.dtype, b_dtype: np.dtype) -> Callable[..., Any]:
    """LAPACK ``?trtrs`` for operands of these dtypes — the routine
    ``scipy.linalg.solve_triangular`` looks up again on every call."""
    return get_lapack_funcs(
        ("trtrs",),
        (np.empty(0, dtype=a_dtype), np.empty(0, dtype=b_dtype)))[0]


def _trtrs_operand(trtrs: Callable[..., Any], a: np.ndarray, trans: str,
                   lower: bool) -> Tuple[np.ndarray, bool, int]:
    """``(a, lower, t)``: ``op(a)`` as ``trtrs`` reads it — ``a`` in the
    routine's dtype and Fortran order (a C-ordered ``a`` is read as the
    transposed system), ``t`` LAPACK's transpose flag (0 N, 1 T, 2 C)."""
    if a.dtype != trtrs.dtype:
        a = a.astype(trtrs.dtype)
    if trans == "C":
        return np.asfortranarray(a), lower, 2
    if a.flags.f_contiguous:
        return a, lower, int(trans == "T")
    return a.T, not lower, int(trans == "N")


def _trtrs_failed(info: int) -> Exception:
    if info > 0:
        return LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    return ValueError(
        f"illegal value in {-info}-th argument of internal trtrs")


def _solve_triangular(a: np.ndarray, b: np.ndarray, trans: str = "N",
                      lower: bool = False,
                      unit_diagonal: bool = False) -> np.ndarray:
    """``scipy.linalg.solve_triangular(a, b, ..., check_finite=False)``
    without its per-call batching, validation and routine lookup: the same
    shape checks, the same ``trtrs`` call (so the same bits), the same
    empty right-hand side and the same errors."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected square matrix")
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"shapes of a {a.shape} and b {b.shape} are incompatible")
    trtrs = trtrs_routine(a.dtype, b.dtype)
    if b.size == 0:
        return np.empty_like(b, dtype=trtrs.dtype)
    a, lower, t = _trtrs_operand(trtrs, a, trans, lower)
    # positional: keywords cost the wrapper more than a small solve
    x, info = trtrs(a, b, lower, t, unit_diagonal, a.shape[0], False)
    if info:
        raise _trtrs_failed(info)
    return x


# ----------------------------------------------------------------------
# a product accumulated in place on the BLAS routine, bound once per dtype
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def gemm_routine(dtype: np.dtype) -> Callable[..., Any]:
    """BLAS ``?gemm`` for operands of this dtype, looked up once."""
    return get_blas_funcs(("gemm",), (np.empty(0, dtype=dtype),))[0]


def accumulate_product(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``c += a · bᵗ`` in place: one ``?gemm`` with ``beta = 1``.  ``c`` is
    Fortran-ordered in the routine's dtype; ``a`` and ``b`` are C-ordered
    and read as the Fortran arrays ``aᵗ`` / ``bᵗ``, so nothing is copied."""
    # positional: (alpha, a, b, beta, c, trans_a, trans_b, overwrite_c)
    gemm_routine(c.dtype)(1.0, a.T, b.T, 1.0, c, 1, 0, 1)


# ----------------------------------------------------------------------
# the diagonal-block factorizations (static pivoting)
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def getrf_routine(dtype: np.dtype) -> Callable[..., Any]:
    """LAPACK ``?getrf`` for blocks of this dtype, looked up once."""
    return get_lapack_funcs(("getrf",), (np.empty(0, dtype=dtype),))[0]


#: width of the diagonal tiles of the blocked LU (its BLAS-3 payoff)
_LU_TILE = 64

#: a tile kernel factors ``lu[k0:k1, k0:k1]`` in place against the static
#: pivot floor and returns its perturbation count, or -1 to refuse the tile
TileKernel = Callable[[np.ndarray, int, int, float], int]


def _scalar_tile(lu: np.ndarray, k0: int, k1: int, floor: float) -> int:
    """Static pivoting itself: eliminate the tile column by column,
    raising every pivot below ``floor`` to it (keeping its sign, or a
    complex pivot's phase)."""
    nperturbed = 0
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
    return nperturbed


def _lapack_tile(lu: np.ndarray, k0: int, k1: int, floor: float) -> int:
    """The tile by LAPACK ``?getrf``, kept only when it *is* the statically
    pivoted LU: ``info == 0``, no row interchanged and no ``|U_kk|`` under
    ``floor``.  Otherwise -1 (also for a dtype LAPACK has no routine for),
    and ``lu`` is left as it was."""
    getrf = getrf_routine(lu.dtype)
    if getrf.dtype != lu.dtype:
        return -1
    out, piv, info = getrf(lu[k0:k1, k0:k1])
    if (info != 0 or piv.tolist() != list(range(k1 - k0))
            or not np.abs(out.diagonal()).min() >= floor):
        return -1
    lu[k0:k1, k0:k1] = out
    return 0


def _lu_blocked(a: np.ndarray, pivot_threshold: float,
                tile: TileKernel) -> Tuple[np.ndarray, int]:
    """Right-looking LU without row pivoting of a copy of ``a``, LAPACK
    packed layout: each ``_LU_TILE``-wide diagonal tile by ``tile`` against
    the static-pivot floor ``pivot_threshold · max |a_kk|``, then the panel
    solves and the trailing update.  Returns ``(lu, nperturbed)``, with
    ``nperturbed == -1`` as soon as ``tile`` refuses a tile."""
    lu = np.array(a, copy=True)
    if lu.dtype.kind not in "fc":
        lu = lu.astype(np.float64)
    n = lu.shape[0]
    if lu.shape[1] != n:
        raise ValueError("diagonal block must be square")
    max_diag = float(np.abs(lu.diagonal()).max())
    floor = pivot_threshold * (max_diag if max_diag > 0 else 1.0)
    nperturbed = 0
    for k0 in range(0, n, _LU_TILE):
        k1 = min(k0 + _LU_TILE, n)
        count = tile(lu, k0, k1, floor)
        if count < 0:
            return lu, -1
        nperturbed += count
        if k1 < n:
            diag = lu[k0:k1, k0:k1]
            # panel solves against the factored tile
            lu[k0:k1, k1:] = _solve_triangular(
                diag, lu[k0:k1, k1:], lower=True, unit_diagonal=True)
            lu[k1:, k0:k1] = _solve_triangular(
                diag, lu[k1:, k0:k1].T, trans="T", lower=False).T
            # trailing update (the BLAS3 payload)
            lu[k1:, k1:] -= lu[k1:, k0:k1] @ lu[k0:k1, k1:]
    return lu, nperturbed


def _lu_nopivot(a: np.ndarray, pivot_threshold: float = 1e-14
                ) -> Tuple[np.ndarray, int]:
    """LU without row pivoting (static pivoting), LAPACK packed layout:
    the scalar elimination that defines it, tile by tile."""
    return _lu_blocked(a, pivot_threshold, _scalar_tile)


def _lu_static(a: np.ndarray, pivot_threshold: float = 1e-14
               ) -> Tuple[np.ndarray, int]:
    """:func:`_lu_nopivot`, each diagonal tile by LAPACK ``?getrf`` when
    that tile needs no interchange and no perturbation: the same
    factorization up to rounding, with ``nperturbed == 0``.  Any other
    block gets :func:`_lu_nopivot`'s result, bit for bit.

    The tiles keep a wide block's bits independent of the BLAS thread
    count: OpenBLAS factors a block of 10 000 entries or more on several
    threads, which rounds differently from its serial ``getrf``."""
    lu, nperturbed = _lu_blocked(a, pivot_threshold, _lapack_tile)
    return (lu, 0) if nperturbed == 0 else _lu_nopivot(a, pivot_threshold)


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


@functools.lru_cache(maxsize=None)
def ldlt_routine(dtype: np.dtype) -> Callable[..., Any]:
    """LAPACK ``?sytrf`` (real) or ``?hetrf`` (complex, factored as
    Hermitian like :func:`_ldlt_nopivot`) for blocks of this dtype, looked
    up once."""
    name = "hetrf" if np.dtype(dtype).kind == "c" else "sytrf"
    return get_lapack_funcs((name,), (np.empty(0, dtype=dtype),))[0]


def _ldlt_lapack(a: np.ndarray, pivot_threshold: float
                 ) -> Optional[np.ndarray]:
    """The static LDLᵗ (LDLᴴ) of ``a`` by LAPACK ``?sytrf`` / ``?hetrf``
    (lower), or ``None`` unless that *is* the statically pivoted one:
    ``info == 0``, every pivot 1×1 with no interchange (``ipiv[k] ==
    k + 1``) and every ``|D_kk|`` at or above :func:`_ldlt_nopivot`'s
    floor (also ``None`` for a dtype LAPACK has no routine for).  It reads
    the lower triangle only; the upper triangle of the result is
    unspecified."""
    n = a.shape[0]
    ldlt = ldlt_routine(a.dtype)
    if not n or a.shape[1] != n or ldlt.dtype != a.dtype:
        return None
    ldu, ipiv, info = ldlt(a, lower=1)
    max_diag = float(np.abs(np.diag(a)).max())
    floor = pivot_threshold * (max_diag if max_diag > 0 else 1.0)
    if (info == 0 and ipiv.tolist() == list(range(1, n + 1))
            and np.abs(ldu.diagonal()).min() >= floor):
        return ldu
    return None


def _ldlt_static(a: np.ndarray, pivot_threshold: float = 1e-14
                 ) -> Tuple[np.ndarray, int]:
    """:func:`_ldlt_nopivot` by LAPACK where that is the same
    factorization (:func:`_ldlt_lapack`) — up to rounding, with
    ``nperturbed == 0``; any other block gets the loop's result and
    ``nperturbed``, bit for bit."""
    ldu = _ldlt_lapack(a, pivot_threshold)
    if ldu is not None:
        return ldu, 0
    return _ldlt_nopivot(a, pivot_threshold)


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
    if swaps == n2x2 == perturbed == 0:
        # no pivot taken: the static factorization (Kernels.ldlt), so a
        # block that needs no pivoting factors alike under both
        ldu = _ldlt_lapack(a, pivot_threshold)
        if ldu is not None:
            w = ldu
    stats: Dict[str, Any] = {
        "swaps": swaps, "n2x2": n2x2, "perturbed": perturbed,
        "growth": wmax / scale,
    }
    return w, perm, d21, stats


# ----------------------------------------------------------------------
# column-stable products on stacked right-hand sides
# ----------------------------------------------------------------------

def trtrs_rows(trtrs: Callable[..., Any], a: np.ndarray, xt: np.ndarray,
               lower: bool, trans: str = "N",
               unit_diagonal: bool = False) -> None:
    """Solve ``op(a) y = xt[j]`` in place for every row ``j`` of the
    ``(k, n)`` stack ``xt`` with ``trtrs`` (:func:`trtrs_routine`).

    Every row is its own LAPACK ``trtrs`` call, so row ``j`` is
    ``_solve_triangular(a, xt[j][:, None], …)`` bit for bit whatever ``k``;
    one ``trsm`` over the stack would block, and so round, by ``k``.  A
    contiguous row of the routine's dtype (every row of a column range of
    a C-ordered stack is one) is solved where it lies, any other through
    the wrapper's copy.  Only the requested triangle of ``a`` is read, so
    LAPACK-packed diagonal blocks can be passed directly."""
    a, lower, t = _trtrs_operand(trtrs, a, trans, lower)
    n = len(a)
    for j in range(len(xt)):
        row = xt[j]
        sol, info = trtrs(a, row, lower, t, unit_diagonal, n, True)
        if info:
            raise _trtrs_failed(info)
        if sol is not row:
            row[...] = sol


def stable_gemv(a: np.ndarray, xt: np.ndarray, trans: str = "N"
                ) -> np.ndarray:
    """``op(a) @ xt[j]`` for every row ``j`` of the ``(k, n)`` stack ``xt``
    (of the product's dtype), as one ``(k, m)`` array.

    One batched ``np.matmul``, which numpy issues as one BLAS gemv per
    item — the call a lone ``op(a) @ xt[j]`` makes — so row ``j`` has that
    product's bits whatever ``k``; one gemm over the stack would not (its
    blocking, and so its summation tree, changes with the output shape).
    The stack is made contiguous first: a strided item reaches gemv with
    another increment, and other bits.  ``trans='T'`` / ``'C'`` apply
    ``aᵗ`` / the adjoint ``aᴴ`` through the transposed gemv, which reads a
    C-contiguous ``a`` in place (``aᴴ x`` as ``conj(aᵗ conj(x))``)."""
    op = a if trans == "N" else a.T
    if a.dtype != xt.dtype or (trans == "N" and not op.flags.c_contiguous):
        # a narrow ``a`` is cast once here, into the C-ordered operand the
        # gemvs below would each have cast it to
        op = np.ascontiguousarray(op, dtype=xt.dtype)
    xt = np.ascontiguousarray(xt)
    if trans == "C":
        xt = xt.conj()
    out = np.matmul(op, xt[..., None])[..., 0]
    return out.conj() if trans == "C" else out


def lr_gemv(u: np.ndarray, v: np.ndarray, xt: np.ndarray,
            trans: str = "N") -> np.ndarray:
    """:func:`stable_gemv` for a low-rank block ``Â = u vᵗ``: ``Â x = u (vᵗ
    x)``, ``Âᵗ x = v (uᵗ x)`` and the adjoint ``Âᴴ x = conj(v) (uᴴ x)``.
    Rank-0 safe."""
    if u.shape[1] == 0:
        rows = u.shape[0] if trans == "N" else v.shape[0]
        return np.zeros((xt.shape[0], rows), dtype=xt.dtype)
    if trans == "N":
        return stable_gemv(u, stable_gemv(v, xt, "T"))
    return stable_gemv(v.conj() if trans == "C" else v,
                       stable_gemv(u, xt, trans))


# ----------------------------------------------------------------------
# the kernels
# ----------------------------------------------------------------------

class Kernels:
    """BLAS/LAPACK (via numpy/scipy) for the factorization kernels.

    Call counts are tallied per operation in :attr:`counts` and surface as
    ``FactorizationStats.backend_kernel_calls``.  Callers that skip the
    wrapper charge theirs through :meth:`tick`: the triangular solves
    (``panel_trsm`` / ``panel_gemm`` / ``lr_apply``) and the fan-in task,
    whose visits multiply their dense rows through ``@`` (``gemm``).
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    # -- call accounting ----------------------------------------------
    def tick(self, op: str, n: int = 1) -> None:
        """Charge ``n`` calls of ``op`` (a batched caller charges in bulk)."""
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
        self.tick("gemm")
        lhs = a if trans_a == "N" else (a.T if trans_a == "T"
                                        else a.conj().T)
        rhs = b if trans_b == "N" else (b.T if trans_b == "T"
                                        else b.conj().T)
        return lhs @ rhs

    def trsm(self, a: np.ndarray, b: np.ndarray, *, side: str = "left",
             lower: bool = True, trans: str = "N",
             unit_diagonal: bool = False) -> np.ndarray:
        """Triangular solve; ``trans='C'`` solves against the Hermitian
        adjoint ``aᴴ`` via conjugate / transpose-solve / conjugate."""
        self.tick("trsm")
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
        """Statically-pivoted LU of a diagonal block; ``(lu, nperturbed)``
        (LAPACK ``?getrf`` per tile where it needs no interchange and no
        perturbation, see :func:`_lu_static`)."""
        self.tick("getrf")
        return _lu_static(a, pivot_threshold)

    def potrf(self, a: np.ndarray, pivot_threshold: float = 1e-14
              ) -> Tuple[np.ndarray, int]:
        """Regularized lower Cholesky; ``(l, nperturbed)``."""
        self.tick("potrf")
        return _cholesky_nopivot(a, pivot_threshold)

    def ldlt(self, a: np.ndarray, pivot_threshold: float = 1e-14
             ) -> Tuple[np.ndarray, int]:
        """Statically-pivoted LDLᵗ/LDLᴴ; ``(packed, nperturbed)``
        (LAPACK ``?sytrf`` / ``?hetrf`` where it needs no interchange, no
        2×2 pivot and no perturbation, see :func:`_ldlt_static`)."""
        self.tick("ldlt")
        return _ldlt_static(a, pivot_threshold)

    def ldlt_pivot(self, a: np.ndarray, u: float = 0.1,
                   growth_limit: float = 1e8, fallback: bool = False,
                   pivot_threshold: float = 1e-14
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                              Dict[str, Any]]:
        """Threshold-pivoted LDLᵗ/LDLᴴ with 1×1/2×2 pivots;
        ``(packed, perm, d21, stats)`` — see :func:`_ldlt_pivot` for the
        layout and :class:`PivotError` semantics."""
        self.tick("ldlt_pivot")
        return _ldlt_pivot(a, u, growth_limit, fallback, pivot_threshold)


#: the one kernel instance (its call counters accumulate across solves)
KERNELS = Kernels()


def get_backend() -> Kernels:
    """The one kernel instance, :data:`KERNELS`."""
    return KERNELS
