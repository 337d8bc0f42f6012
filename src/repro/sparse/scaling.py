"""Matrix equilibration (row/column scaling).

Production direct solvers (PaStiX included) optionally scale the matrix
before factorizing so that all entries are O(1) — it tames wildly varying
coefficients (our Serena proxy jumps by 10³–10⁶ across geological layers)
and makes the static-pivoting threshold meaningful.  We implement symmetric
iterative equilibration in the infinity norm (a Ruiz iteration):

``A_scaled = D_r A D_c`` with diagonal ``D_r, D_c``; for symmetric matrices
``D_r = D_c`` preserves symmetry.  Solving then transforms as
``x = D_c y`` where ``(D_r A D_c) y = D_r b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.sparse.csc import CSCMatrix


@dataclass
class Scaling:
    """Row/column scale vectors with the solve-transform helpers."""

    row: np.ndarray
    col: np.ndarray

    def scale_rhs(self, b: np.ndarray) -> np.ndarray:
        """``b_scaled = D_r b`` (dtype-preserving — complex rhs stays
        complex; non-inexact input is promoted to float64)."""
        b = np.asarray(b)
        if b.dtype.kind not in "fc":
            b = b.astype(np.float64)
        return b * (self.row if b.ndim == 1 else self.row[:, None])

    def unscale_solution(self, y: np.ndarray) -> np.ndarray:
        """``x = D_c y`` (dtype-preserving)."""
        y = np.asarray(y)
        if y.dtype.kind not in "fc":
            y = y.astype(np.float64)
        return y * (self.col if y.ndim == 1 else self.col[:, None])


def _real_dtype(dt: np.dtype) -> np.dtype:
    """Real counterpart of an inexact dtype (complex64 -> float32); scale
    vectors live in this dtype so scaling never promotes a float32 matrix."""
    return np.finfo(dt).dtype if dt.kind in "fc" else np.dtype(np.float64)


def _row_col_maxima(a: CSCMatrix) -> Tuple[np.ndarray, np.ndarray]:
    real_dt = _real_dtype(a.values.dtype)
    row_max = np.zeros(a.n, dtype=real_dt)
    col_max = np.zeros(a.n, dtype=real_dt)
    for j in range(a.n):
        rows, vals = a.column(j)
        if rows.size:
            av = np.abs(vals)
            col_max[j] = av.max()
            np.maximum.at(row_max, rows, av)
    return row_max, col_max


def equilibrate(a: CSCMatrix, symmetric: bool = True,
                iterations: int = 5) -> tuple:
    """Ruiz equilibration; returns ``(a_scaled, Scaling)``.

    After convergence every row and column of the scaled matrix has
    infinity norm ≈ 1.  ``symmetric=True`` uses ``sqrt`` scaling on both
    sides (preserves symmetry and SPD-ness); otherwise rows and columns are
    scaled independently.
    """
    values = a.values.copy()
    cols = a.col_indices()
    real_dt = _real_dtype(values.dtype)
    d_row = np.ones(a.n, dtype=real_dt)
    d_col = np.ones(a.n, dtype=real_dt)
    for _ in range(max(1, iterations)):
        cur = CSCMatrix(a.n, a.colptr, a.rowind, values, check=False)
        row_max, col_max = _row_col_maxima(cur)
        row_max[row_max == 0] = 1.0
        col_max[col_max == 0] = 1.0
        if symmetric:
            s = 1.0 / np.sqrt(np.sqrt(row_max * col_max))
            r_step = c_step = s
        else:
            r_step = 1.0 / np.sqrt(row_max)
            c_step = 1.0 / np.sqrt(col_max)
        values = values * r_step[a.rowind] * c_step[cols]
        d_row *= r_step
        d_col *= c_step
    scaled = CSCMatrix(a.n, a.colptr, a.rowind, values, check=False)
    return scaled, Scaling(row=d_row, col=d_col)


def scaled_extremes(a: CSCMatrix) -> tuple:
    """(min, max) of the nonzero magnitudes — equilibration quality check."""
    av = np.abs(a.values[a.values != 0])
    if av.size == 0:
        return (0.0, 0.0)
    return float(av.min()), float(av.max())
