"""Triangular solves on the block factorization (paper step 4).

Works on the mixed dense/low-rank storage produced by any strategy.  A
column block that is still one stacked panel (nothing in it compressed)
applies as one product per sweep and side; in blocks mode low-rank blocks
apply as ``u (vᵗ x)`` — the solve step is what the paper's Table 2 "Solve
time" row measures, and it is *faster* than the dense solve because the work
is proportional to the stored ranks.

Conventions (matching :mod:`repro.core.factorization`):

* LU: ``P A Pᵗ = L U`` with unit-lower L; the diagonal blocks pack L and U
  LAPACK-style; off-diagonal U is stored transposed (Uᵗ blocks shaped like
  L blocks).
* Cholesky: ``P A Pᵗ = L Lᵗ`` with the lower factor in the diagonal blocks.

Right-hand sides may be a vector ``(n,)`` or a panel ``(n, k)`` — including
``k = 0``.  The whole solve runs on the *column-stable* panel kernels of the
kernel module :mod:`repro.core.backend` (``panel_trsm`` /
``panel_gemm`` / ``lr_apply``): column ``j`` of the result depends only on
column ``j`` of ``b``, bit-for-bit, so a blocked ``(n, k)`` solve equals
``k`` single-RHS solves exactly (for identical dtypes).  BLAS gemm/trsm do
not have that property — their internal blocking changes the summation
order with the panel width — which is why the solve phase deliberately
avoids them.  The diagonal blocks are passed packed: the panel kernels read
only the requested triangle, so no ``np.triu`` copies are taken.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.factor import Block, NumericColumnBlock, NumericFactor
from repro.core.factorization import ldlt_d_solve_rows
from repro.lowrank.block import LowRankBlock


def _apply_below(fac: NumericFactor, nc: NumericColumnBlock,
                 panel: Optional[np.ndarray],
                 blocks: Optional[List[Block]], x: np.ndarray) -> None:
    """``x[rows below] -= A(1:bk),k · x[k's columns]`` — the forward step
    of one column block.  A panel is one stacked column-stable product
    scattered through the column block's row frame; in blocks mode every
    dense block applies as a panel of its own and every low-rank block as
    ``u (vᵗ x)``."""
    be = fac.backend
    x_cols = x[nc.sym.first_col:nc.sym.end_col]
    if panel is not None:
        x[fac.symb.off_rows[nc.sym.id]] -= be.panel_gemm(panel, x_cols)
        return
    for b, block in zip(nc.sym.off_blocks(), blocks):
        if isinstance(block, LowRankBlock):
            x[b.first_row:b.end_row] -= be.lr_apply(block.u, block.v, x_cols)
        else:
            x[b.first_row:b.end_row] -= be.panel_gemm(block, x_cols)


def _apply_below_t(fac: NumericFactor, nc: NumericColumnBlock,
                   panel: Optional[np.ndarray],
                   blocks: Optional[List[Block]], x: np.ndarray,
                   trans: str = "T") -> np.ndarray:
    """``x[k's columns] -= op(A(1:bk),k) · x[rows below]`` with ``op`` the
    transpose (``trans='T'``, the LU paths) or the adjoint (``'C'``, the
    symmetric backward passes; the same bits for real factors) — the
    backward step of one column block, returning the updated view.  The
    transposed product reads the stored panel / block in place."""
    be = fac.backend
    acc = x[nc.sym.first_col:nc.sym.end_col]
    if panel is not None:
        acc -= be.panel_gemm(panel, x[fac.symb.off_rows[nc.sym.id]], trans)
        return acc
    mode = "t" if trans == "T" else "h"
    for b, block in zip(nc.sym.off_blocks(), blocks):
        x_rows = x[b.first_row:b.end_row]
        if isinstance(block, LowRankBlock):
            acc -= be.lr_apply(block.u, block.v, x_rows, mode=mode)
        else:
            acc -= be.panel_gemm(block, x_rows, trans)
    return acc


def solve_factored(fac: NumericFactor, b: np.ndarray,
                   trans: bool = False) -> np.ndarray:
    """Solve ``(P A Pᵗ) x = b`` — or its transpose with ``trans=True`` —
    using the computed factors.

    ``b`` may be ``(n,)`` or an ``(n, k)`` panel; the result has the same
    shape.  Inputs are normalized to a fresh C-contiguous working copy, so
    Fortran-ordered or strided right-hand sides give bit-identical results
    to contiguous ones.

    The transposed solve of an LU factorization runs ``Uᵗ z = b`` then
    ``Lᵗ x = z``: the stored ``Uᵗ`` blocks apply *forward* and the ``L``
    blocks apply transposed, mirroring the plain solve.  For complex LU
    factors ``trans=True`` solves against ``Aᵗ`` (the pure transpose, not
    the adjoint), matching the real-case semantics.  Hermitian
    factorizations (cholesky/ldlt of complex matrices) are their own
    adjoint, and their backward passes apply ``Lᴴ``.
    """
    if fac.faults is not None:
        fac.faults.on_trisolve(fac)
    x = np.array(b, dtype=np.result_type(fac.dtype, np.asarray(b).dtype),
                 copy=True, order="C")
    if x.dtype.kind not in "fc":
        x = x.astype(np.float64)
    single = x.ndim == 1
    if single:
        x = x[:, None]
    prof = fac.profiler
    _sid = (prof.start("trisolve", factotype=fac.config.factotype,
                       nrhs=x.shape[1], trans=trans)
            if prof is not None else None)
    try:
        if fac.config.factotype == "lu":
            if trans:
                _forward_ut(fac, x)
                _backward_lt(fac, x)
            else:
                _forward_lu(fac, x)
                _backward_lu(fac, x)
        elif fac.config.factotype == "cholesky":
            _forward_cholesky(fac, x)
            _backward_cholesky(fac, x)
        else:  # ldlt: L z = b ; y = D⁻¹ z ; Lᵗ x = y
            _forward_ldlt(fac, x)
            _diag_scale_ldlt(fac, x)
            _backward_ldlt(fac, x)
    finally:
        if prof is not None:
            prof.end(_sid)
    return x[:, 0] if single else x


def _forward_lu(fac: NumericFactor, x: np.ndarray) -> None:
    """``L y = b`` (unit-lower), overwriting ``x``."""
    be = fac.backend
    for nc in fac.cblks:
        lo, hi = nc.sym.first_col, nc.sym.end_col
        x[lo:hi] = be.panel_trsm(nc.diag, x[lo:hi], lower=True,
                                 unit_diagonal=True)
        _apply_below(fac, nc, nc.lpanel, nc.lblocks, x)


def _backward_lu(fac: NumericFactor, x: np.ndarray) -> None:
    """``U x = y``; off-diagonal U applied via the stored Uᵗ blocks
    (``U[k, (i)] = (Uᵗ(i),k)ᵗ``)."""
    be = fac.backend
    for nc in reversed(fac.cblks):
        acc = _apply_below_t(fac, nc, nc.upanel, nc.ublocks, x)
        acc[...] = be.panel_trsm(nc.diag, acc, lower=False)


def _forward_cholesky(fac: NumericFactor, x: np.ndarray) -> None:
    be = fac.backend
    for nc in fac.cblks:
        lo, hi = nc.sym.first_col, nc.sym.end_col
        x[lo:hi] = be.panel_trsm(nc.diag, x[lo:hi], lower=True)
        _apply_below(fac, nc, nc.lpanel, nc.lblocks, x)


def _backward_cholesky(fac: NumericFactor, x: np.ndarray) -> None:
    """``Lᴴ x = y`` using the same L blocks adjoint-applied (``Lᵗ`` for
    real factors)."""
    be = fac.backend
    trans = "C" if fac.dtype.kind == "c" else "T"
    for nc in reversed(fac.cblks):
        acc = _apply_below_t(fac, nc, nc.lpanel, nc.lblocks, x, trans)
        acc[...] = be.panel_trsm(nc.diag, acc, lower=True, trans=trans)


def _forward_ldlt(fac: NumericFactor, x: np.ndarray) -> None:
    """``L z = b`` with unit-lower L (D shares the diag storage).

    Threshold-pivoted supernodes store the within-block permutation P on
    ``nc.pivperm``: their global diagonal L block is ``Pᵀ L00``, so the
    forward step solves ``L00 z = P b`` — permute the local right-hand
    side rows, then run the usual unit-lower solve."""
    be = fac.backend
    for nc in fac.cblks:
        lo, hi = nc.sym.first_col, nc.sym.end_col
        rhs = x[lo:hi] if nc.pivperm is None else x[lo:hi][nc.pivperm]
        x[lo:hi] = be.panel_trsm(nc.diag, rhs, lower=True,
                                 unit_diagonal=True)
        _apply_below(fac, nc, nc.lpanel, nc.lblocks, x)


def _diag_scale_ldlt(fac: NumericFactor, x: np.ndarray) -> None:
    """``y = D⁻¹ z`` using the (block-)diagonal of every diagonal block.

    With threshold pivoting D may carry 2×2 pivot blocks whose
    subdiagonal lives on ``nc.pivd21``; those are solved via the explicit
    2×2 inverse (:func:`~repro.core.factorization.ldlt_d_solve_rows`)."""
    for nc in fac.cblks:
        lo, hi = nc.sym.first_col, nc.sym.end_col
        d = np.diag(nc.diag)
        hermitian = d.dtype.kind == "c"
        if hermitian:
            d = d.real  # Hermitian LDLᴴ: D is real by construction
        if nc.pivd21 is None:
            x[lo:hi] /= d[:, None]
        else:
            x[lo:hi] = ldlt_d_solve_rows(x[lo:hi], d, nc.pivd21, hermitian)


def _backward_ldlt(fac: NumericFactor, x: np.ndarray) -> None:
    """``Lᴴ x = y`` with the same unit-lower L blocks adjoint-applied.

    Pivoted supernodes solve ``(Pᵀ L00)ᴴ x = y`` as ``L00ᴴ w = y`` with
    ``w = P x`` — run the adjoint solve, then scatter the rows back
    through the permutation (``x[p] = w``)."""
    be = fac.backend
    trans = "C" if fac.dtype.kind == "c" else "T"
    for nc in reversed(fac.cblks):
        acc = _apply_below_t(fac, nc, nc.lpanel, nc.lblocks, x, trans)
        sol = be.panel_trsm(nc.diag, acc, lower=True, trans=trans,
                            unit_diagonal=True)
        if nc.pivperm is None:
            acc[...] = sol
        else:
            acc[nc.pivperm] = sol


def _forward_ut(fac: NumericFactor, x: np.ndarray) -> None:
    """``Uᵗ z = b`` — Uᵗ is lower triangular and its off-diagonal blocks
    are exactly the stored ``Uᵗ(i),k`` blocks, applied untransposed."""
    be = fac.backend
    for nc in fac.cblks:
        lo, hi = nc.sym.first_col, nc.sym.end_col
        x[lo:hi] = be.panel_trsm(nc.diag, x[lo:hi], lower=False, trans="T")
        _apply_below(fac, nc, nc.upanel, nc.ublocks, x)


def _backward_lt(fac: NumericFactor, x: np.ndarray) -> None:
    """``Lᵗ x = z`` with the unit-lower L blocks applied transposed."""
    be = fac.backend
    for nc in reversed(fac.cblks):
        acc = _apply_below_t(fac, nc, nc.lpanel, nc.lblocks, x)
        acc[...] = be.panel_trsm(nc.diag, acc, lower=True, trans="T",
                                 unit_diagonal=True)
