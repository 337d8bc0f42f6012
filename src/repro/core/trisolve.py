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
* LDLᵗ: unit-lower L with D on the diagonal of the diagonal blocks.

Every factorization solves with one forward and one backward block sweep,
which ``_SWEEPS`` parametrizes by factotype and transpose.

Right-hand sides may be a vector ``(n,)`` or a panel ``(n, k)`` — including
``k = 0``.  The whole solve runs on the *column-stable* panel kernels of
:mod:`repro.core.backend` (``panel_trsm`` / ``panel_gemm`` / ``lr_apply``):
each right-hand-side column is its own gemv or ``trtrs`` call, so a blocked
``(n, k)`` solve equals ``k`` single-RHS solves bit for bit (for identical
dtypes), which one BLAS-3 gemm/trsm over the panel would not.  The diagonal
blocks are passed packed: the panel kernels read only the requested
triangle, so no ``np.triu`` copies are taken.
"""

from __future__ import annotations

import numpy as np

from repro.core.factor import NumericColumnBlock, NumericFactor
from repro.core.factorization import apply_d
from repro.lowrank.block import LowRankBlock
from repro.runtime.spans import span


def _apply_below(fac: NumericFactor, nc: NumericColumnBlock, side: str,
                 x: np.ndarray) -> None:
    """``x[rows below] -= A(1:bk),k · x[k's columns]`` with the off-diagonal
    blocks of ``side`` (``"l"`` the L blocks, ``"u"`` the stored Uᵗ blocks)
    — the forward step of one column block.  A panel is one stacked
    column-stable product scattered through the column block's row frame;
    in blocks mode every dense block applies as a panel of its own and
    every low-rank block as ``u (vᵗ x)``."""
    be = fac.backend
    panel, blocks = getattr(nc, side + "panel"), getattr(nc, side + "blocks")
    x_cols = x[nc.sym.first_col:nc.sym.end_col]
    if panel is not None:
        x[fac.symb.off_rows[nc.sym.id]] -= be.panel_gemm(panel, x_cols)
        return
    for b, block in zip(nc.sym.off_blocks(), blocks):
        if isinstance(block, LowRankBlock):
            x[b.first_row:b.end_row] -= be.lr_apply(block.u, block.v, x_cols)
        else:
            x[b.first_row:b.end_row] -= be.panel_gemm(block, x_cols)


def _apply_below_t(fac: NumericFactor, nc: NumericColumnBlock, side: str,
                   x: np.ndarray, trans: str) -> np.ndarray:
    """``x[k's columns] -= op(A(1:bk),k) · x[rows below]`` with ``op`` the
    transpose (``trans='T'``) or the adjoint (``'C'``) of the blocks of
    ``side`` — the backward step of one column block, returning the
    updated view.  The transposed product reads the stored panel / block
    in place."""
    be = fac.backend
    panel, blocks = getattr(nc, side + "panel"), getattr(nc, side + "blocks")
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


#: ``(factotype, transposed)`` → the arguments of the forward sweep
#: (``side``, and the diagonal solve's ``lower`` / ``trans`` /
#: ``unit_diagonal``) and of the backward sweep (``side``, the transpose
#: its blocks apply with, and the diagonal solve's three).  ``"C"`` is the
#: adjoint of a Hermitian factor and the transpose of a real one.
_SWEEPS = {
    # L y = b ; U x = y, off-diagonal U through the stored Uᵗ blocks
    ("lu", False): (("l", True, "N", True), ("u", "T", False, "N", False)),
    # Uᵗ z = b, the Uᵗ blocks applied untransposed ; Lᵗ x = z
    ("lu", True): (("u", False, "T", False), ("l", "T", True, "T", True)),
    # L y = b ; Lᴴ x = y
    ("cholesky", False): (("l", True, "N", False),
                          ("l", "C", True, "C", False)),
    # L z = b ; y = D⁻¹ z between the sweeps ; Lᴴ x = y, L unit-lower
    ("ldlt", False): (("l", True, "N", True), ("l", "C", True, "C", True)),
}


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
    factotype = fac.config.factotype
    forward, backward = _SWEEPS[factotype, bool(trans) and factotype == "lu"]
    with span(fac.profiler, "trisolve", factotype=factotype,
              nrhs=x.shape[1], trans=trans):
        _forward(fac, x, *forward)
        if factotype == "ldlt":
            _diag_scale_ldlt(fac, x)
        _backward(fac, x, *backward)
    return x[:, 0] if single else x


def _forward(fac: NumericFactor, x: np.ndarray, side: str, lower: bool,
             trans: str, unit: bool) -> None:
    """The forward block sweep, overwriting ``x``: per column block in
    order, the diagonal solve, then the blocks of ``side`` applied below.

    Threshold-pivoted supernodes store the within-block permutation P on
    ``nc.pivperm``: their global diagonal L block is ``Pᵀ L00``, so the
    diagonal step solves ``L00 z = P b`` — the local right-hand-side rows
    are permuted first."""
    be = fac.backend
    for nc in fac.cblks:
        lo, hi = nc.sym.first_col, nc.sym.end_col
        rhs = x[lo:hi] if nc.pivperm is None else x[lo:hi][nc.pivperm]
        x[lo:hi] = be.panel_trsm(nc.diag, rhs, lower=lower, trans=trans,
                                 unit_diagonal=unit)
        _apply_below(fac, nc, side, x)


def _diag_scale_ldlt(fac: NumericFactor, x: np.ndarray) -> None:
    """``y = D⁻¹ z`` with the (block-)diagonal D of every diagonal block,
    2×2 pivot blocks included (:func:`~repro.core.factorization.apply_d`)."""
    for nc in fac.cblks:
        lo, hi = nc.sym.first_col, nc.sym.end_col
        d = np.diag(nc.diag)
        x[lo:hi] = apply_d(x[lo:hi], d.real if fac.hermitian else d,
                           nc.pivd21, fac.hermitian, inverse=True)


def _backward(fac: NumericFactor, x: np.ndarray, side: str,
              apply_trans: str, lower: bool, trans: str,
              unit: bool) -> None:
    """The backward block sweep, overwriting ``x``: per column block in
    reverse, the blocks of ``side`` applied transposed, then the diagonal.

    Pivoted supernodes solve ``(Pᵀ L00)ᴴ x = y`` as ``L00ᴴ w = y`` with
    ``w = P x`` — the solution rows are scattered back through the
    permutation (``x[p] = w``)."""
    be = fac.backend
    if trans == "C" and not fac.hermitian:
        apply_trans = trans = "T"
    for nc in reversed(fac.cblks):
        acc = _apply_below_t(fac, nc, side, x, apply_trans)
        sol = be.panel_trsm(nc.diag, acc, lower=lower, trans=trans,
                            unit_diagonal=unit)
        if nc.pivperm is None:
            acc[...] = sol
        else:
            acc[nc.pivperm] = sol
