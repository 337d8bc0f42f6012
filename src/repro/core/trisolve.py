"""Triangular solves on the block factorization (paper step 4).

Works on the storage every strategy produces: per column block and side,
the panel of its dense off-diagonal rows applies as one product per sweep,
each low-rank block beside it as ``u (vᵗ x)``.  The solve step is what
the paper's Table 2 "Solve time" row measures; as refinement's
preconditioner it runs once more per iteration.

Conventions (matching :mod:`repro.core.factorization`):

* LU: ``P A Pᵗ = L U`` with unit-lower L; the diagonal blocks pack L and U
  LAPACK-style; off-diagonal U is stored transposed (Uᵗ blocks shaped like
  L blocks).
* Cholesky: ``P A Pᵗ = L Lᵗ`` with the lower factor in the diagonal blocks.
* LDLᵗ: unit-lower L with D on the diagonal of the diagonal blocks.

Every factorization solves with one forward and one backward block sweep,
which ``_SWEEPS`` parametrizes by factotype and transpose.

Right-hand sides may be a vector ``(n,)`` or a panel ``(n, k)`` — including
``k = 0`` — and are swept as the rows of one C-contiguous ``(k, n)``
stack, ``k = 1`` the same code.  Each column-block step serves all ``k``
rows with the *column-stable* products of :mod:`repro.core.backend`: one
in-place ``trtrs`` per row and one batched gemv per operator.  No
right-hand side shares a BLAS or LAPACK call with another, so a blocked
``(n, k)`` solve equals ``k`` single-RHS solves bit for bit (for identical
dtypes), which one BLAS-3 gemm/trsm over the panel would not.  Diagonal
blocks are passed packed (only the requested triangle is read).  A sweep
binds nothing per call and charges its kernel calls in bulk.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core.backend import lr_gemv, stable_gemv, trtrs_routine, trtrs_rows
from repro.core.factor import NumericFactor
from repro.core.factorization import apply_d
from repro.runtime.spans import span


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
    shape.  Inputs are normalized to a fresh C-contiguous ``(k, n)`` stack,
    so Fortran-ordered or strided right-hand sides give bit-identical
    results to contiguous ones.

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
    b = np.asarray(b)
    dtype = np.result_type(fac.dtype, b.dtype)
    if dtype.kind not in "fc":
        dtype = np.dtype(np.float64)
    x = np.array(b.T if b.ndim == 2 else b[None], dtype=dtype, order="C")
    factotype = fac.config.factotype
    forward, backward = _SWEEPS[factotype, bool(trans) and factotype == "lu"]
    trtrs = trtrs_routine(fac.dtype, dtype)
    with span(fac.profiler, "trisolve", factotype=factotype,
              nrhs=x.shape[0], trans=trans):
        _forward(fac, x, trtrs, *forward)
        if factotype == "ldlt":
            _diag_scale_ldlt(fac, x.T)
        _backward(fac, x, trtrs, *backward)
    return x[0] if b.ndim == 1 else np.ascontiguousarray(x.T)


def _charge(fac: NumericFactor, nlr: int) -> None:
    """Charge one sweep's calls in bulk: per column block a diagonal solve
    (a skipped unit one included) and a panel product, and ``nlr`` products
    of low-rank blocks."""
    for op, n in (("panel_trsm", len(fac.cblks)),
                  ("panel_gemm", len(fac.cblks)), ("lr_apply", nlr)):
        fac.backend.tick(op, n)


def _forward(fac: NumericFactor, x: np.ndarray, trtrs: Callable[..., Any],
             side: str, lower: bool, trans: str, unit: bool) -> None:
    """The forward block sweep, overwriting the ``(k, n)`` stack ``x``: per
    column block in order, the diagonal solve, then the blocks of ``side``
    (``"l"`` the L blocks, ``"u"`` the stored Uᵗ blocks) applied below —
    each low-rank block, and the panel as one product scattered through
    its rows.

    Threshold-pivoted supernodes store the within-block permutation P on
    ``nc.pivperm``: their global diagonal L block is ``Pᵀ L00``, so the
    diagonal step solves ``L00 z = P b`` — the local right-hand-side
    entries are permuted first.  LAPACK never reads a unit diagonal, so a
    width-1 unit step is skipped."""
    panel, lowrank = side + "panel", side + "lowrank"
    nlr = 0
    for nc in fac.cblks:
        lo, hi = nc.sym.first_col, nc.sym.end_col
        cols = x[:, lo:hi]
        if nc.pivperm is not None:
            rhs = cols.take(nc.pivperm, axis=1)
            trtrs_rows(trtrs, nc.diag, rhs, lower, trans, unit)
            cols[...] = rhs
        elif hi - lo > 1 or not unit:
            trtrs_rows(trtrs, nc.diag, cols, lower, trans, unit)
        rows, blocks = fac.symb.off_rows[nc.sym.id], getattr(nc, lowrank)
        if blocks:
            rows = rows[nc.panel_rows(side)]
            nlr += len(blocks)
            for i, block in blocks.items():
                b = nc.sym.blocks[1 + i]
                x[:, b.first_row:b.end_row] -= lr_gemv(block.u, block.v,
                                                       cols, "N")
        x[:, rows] = x.take(rows, axis=1) - stable_gemv(getattr(nc, panel),
                                                        cols)
    _charge(fac, nlr)


def _diag_scale_ldlt(fac: NumericFactor, x: np.ndarray) -> None:
    """``y = D⁻¹ z`` on the ``(n, k)`` panel ``x`` with the (block-)
    diagonal D of every diagonal block, 2×2 pivot blocks included
    (:func:`~repro.core.factorization.apply_d`)."""
    for nc in fac.cblks:
        lo, hi = nc.sym.first_col, nc.sym.end_col
        d = np.diag(nc.diag)
        x[lo:hi] = apply_d(x[lo:hi], d.real if fac.hermitian else d,
                           nc.pivd21, fac.hermitian, inverse=True)


def _backward(fac: NumericFactor, x: np.ndarray, trtrs: Callable[..., Any],
              side: str, apply_trans: str, lower: bool, trans: str,
              unit: bool) -> None:
    """The backward block sweep, overwriting the ``(k, n)`` stack ``x``:
    per column block in reverse, ``x[k's columns] -= op(A(1:bk),k) ·
    x[rows below]`` with ``op`` the transpose (``apply_trans='T'``) or the
    adjoint (``'C'``) of the blocks of ``side``, read in place, then the
    diagonal solve.

    Pivoted supernodes solve ``(Pᵀ L00)ᴴ x = y`` as ``L00ᴴ w = y`` with
    ``w = P x`` — the solution entries are scattered back through the
    permutation (``x[p] = w``)."""
    if trans == "C" and not fac.hermitian:
        apply_trans = trans = "T"
    panel, lowrank = side + "panel", side + "lowrank"
    nlr = 0
    for nc in reversed(fac.cblks):
        lo, hi = nc.sym.first_col, nc.sym.end_col
        cols = x[:, lo:hi]
        rows, blocks = fac.symb.off_rows[nc.sym.id], getattr(nc, lowrank)
        if blocks:
            rows = rows[nc.panel_rows(side)]
            nlr += len(blocks)
        cols -= stable_gemv(getattr(nc, panel), x.take(rows, axis=1),
                            apply_trans)
        for i, block in blocks.items():
            b = nc.sym.blocks[1 + i]
            cols -= lr_gemv(block.u, block.v, x[:, b.first_row:b.end_row],
                            apply_trans)
        if nc.pivperm is not None:
            sol = cols.copy()
            trtrs_rows(trtrs, nc.diag, sol, lower, trans, unit)
            cols[:, nc.pivperm] = sol
        elif hi - lo > 1 or not unit:
            trtrs_rows(trtrs, nc.diag, cols, lower, trans, unit)
    _charge(fac, nlr)
