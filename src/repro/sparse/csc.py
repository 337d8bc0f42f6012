"""Compressed Sparse Column matrix container.

The solver's analysis pipeline (ordering, symbolic factorization) consumes a
*pattern-symmetric* CSC matrix with sorted row indices and no duplicates; the
numerical pipeline scatters its values into the supernodal block structure.
This container enforces those invariants on construction so downstream code
never has to re-check them.

Only the operations the solver needs are implemented — construction from
triplets or scipy, symmetrization, transpose, matvec, extraction of the lower
pattern, and dense conversion for tests.  Anything fancier belongs in scipy.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple

import numpy as np

#: dtypes the numeric pipeline supports (PaStiX's s/d/c/z)
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64),
                    np.dtype(np.complex64), np.dtype(np.complex128))


def _values_dtype(values: "np.typing.ArrayLike") -> np.dtype:
    """The storage dtype for a values array: s/d/c/z inputs are kept as-is,
    anything else (int, bool, float16, ...) is promoted to float64."""
    dt = np.asarray(values).dtype
    return dt if dt in SUPPORTED_DTYPES else np.dtype(np.float64)


class CSCMatrix:
    """Square sparse matrix in compressed-sparse-column form.

    Parameters
    ----------
    n:
        Matrix dimension (matrices here are always square — they come from
        discretized PDE operators).
    colptr:
        ``int64`` array of length ``n + 1``; column ``j`` owns entries
        ``colptr[j]:colptr[j+1]``.
    rowind:
        ``int64`` array of row indices, sorted strictly increasing within
        each column (checked).
    values:
        Array aligned with ``rowind``.  Inexact dtypes (float32/float64/
        complex64/complex128) are preserved; anything else is coerced to
        ``float64``.
    """

    __slots__ = ("n", "colptr", "rowind", "values")

    def __init__(self, n: int, colptr: np.ndarray, rowind: np.ndarray,
                 values: np.ndarray, check: bool = True) -> None:
        self.n = int(n)
        self.colptr = np.ascontiguousarray(colptr, dtype=np.int64)
        self.rowind = np.ascontiguousarray(rowind, dtype=np.int64)
        self.values = np.ascontiguousarray(values, dtype=_values_dtype(values))
        if check:
            self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.colptr.shape != (self.n + 1,):
            raise ValueError("colptr must have length n + 1")
        if self.colptr[0] != 0 or self.colptr[-1] != len(self.rowind):
            raise ValueError("colptr bounds inconsistent with rowind")
        if np.any(np.diff(self.colptr) < 0):
            raise ValueError("colptr must be non-decreasing")
        if len(self.rowind) != len(self.values):
            raise ValueError("rowind and values must have equal length")
        if len(self.rowind) and (self.rowind.min() < 0 or self.rowind.max() >= self.n):
            raise ValueError("row index out of range")
        # strictly increasing row indices per column => sorted and no dups:
        # every adjacent pair of rowind must increase, except a pair that
        # straddles the start of a column
        if len(self.rowind) > 1:
            bad = np.diff(self.rowind) <= 0
            starts = self.colptr[1:-1]
            bad[starts[(starts > 0) & (starts < len(self.rowind))] - 1] = False
            if bad.any():
                j = int(np.searchsorted(self.colptr, np.argmax(bad),
                                        side="right")) - 1
                raise ValueError(f"column {j} has unsorted or duplicate rows")

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_coo(cls, n: int, rows: Iterable[int], cols: Iterable[int],
                 vals: Iterable[float], sum_duplicates: bool = True) -> "CSCMatrix":
        """Build from triplets; duplicate entries are summed."""
        rows = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows,
                          dtype=np.int64)
        cols = np.asarray(list(cols) if not isinstance(cols, np.ndarray) else cols,
                          dtype=np.int64)
        vals = np.asarray(list(vals) if not isinstance(vals, np.ndarray) else vals)
        vals = np.asarray(vals, dtype=_values_dtype(vals))
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows/cols/vals must have equal shapes")
        order = np.lexsort((rows, cols))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if sum_duplicates and rows.size:
            keep = np.empty(rows.size, dtype=bool)
            keep[0] = True
            np.logical_or(rows[1:] != rows[:-1], cols[1:] != cols[:-1], out=keep[1:])
            groups = np.cumsum(keep) - 1
            summed = np.zeros(int(groups[-1]) + 1, dtype=vals.dtype)
            np.add.at(summed, groups, vals)
            rows, cols, vals = rows[keep], cols[keep], summed
        colptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(colptr, cols + 1, 1)
        np.cumsum(colptr, out=colptr)
        return cls(n, colptr, rows, vals)

    @classmethod
    def from_dense(cls, a: np.ndarray, tol: float = 0.0) -> "CSCMatrix":
        a = np.asarray(a)
        a = np.asarray(a, dtype=_values_dtype(a))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense input must be square")
        rows, cols = np.nonzero(np.abs(a) > tol)
        return cls.from_coo(a.shape[0], rows, cols, a[rows, cols])

    @classmethod
    def from_scipy(cls, a: "Any") -> "CSCMatrix":
        """Convert any scipy.sparse matrix (kept optional at import time)."""
        a = a.tocsc()
        a.sort_indices()
        a.sum_duplicates()
        return cls(a.shape[0], a.indptr.astype(np.int64),
                   a.indices.astype(np.int64),
                   a.data.astype(_values_dtype(a.data)))

    def to_scipy(self) -> "Any":
        import scipy.sparse as sp

        return sp.csc_matrix((self.values, self.rowind, self.colptr),
                             shape=(self.n, self.n))

    # -- basic queries ----------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(len(self.rowind))

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n, self.n)

    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row indices and values of column ``j`` (views, do not mutate)."""
        lo, hi = self.colptr[j], self.colptr[j + 1]
        return self.rowind[lo:hi], self.values[lo:hi]

    def col_indices(self) -> np.ndarray:
        """Column index of every stored entry (aligned with ``rowind``)."""
        return np.repeat(np.arange(self.n, dtype=np.int64),
                         np.diff(self.colptr))

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def diagonal(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=self.values.dtype)
        on_diag = self.rowind == self.col_indices()
        d[self.rowind[on_diag]] = self.values[on_diag]
        return d

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=self.values.dtype)
        a[self.rowind, self.col_indices()] = self.values
        return a

    # -- operations -------------------------------------------------------
    def transpose(self) -> "CSCMatrix":
        """Return Aᵗ (CSC of the transpose = CSR of A reinterpreted)."""
        return CSCMatrix.from_coo(self.n, self.col_indices(), self.rowind,
                                  self.values, sum_duplicates=False)

    def _scatter_products(self, x: np.ndarray, into: np.ndarray,
                          take: np.ndarray) -> np.ndarray:
        """``y[into[e]] += values[e] * x[take[e]]`` over the stored entries
        ``e`` in CSC order, so every ``y[i]`` adds its terms in the order a
        column-by-column sweep would: the sums round identically."""
        x = np.asarray(x, dtype=np.result_type(self.values, np.asarray(x)))
        xb = x[:, None] if x.ndim == 1 else x
        y = np.zeros_like(xb)
        # one scatter per right-hand side: temporaries stay at nnz entries
        for c in range(xb.shape[1]):
            np.add.at(y[:, c], into, self.values * xb[take, c])
        return y[:, 0] if x.ndim == 1 else y

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` (supports a single vector or a (n, k) block)."""
        return self._scatter_products(x, self.rowind, self.col_indices())

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``Aᵗ @ x``."""
        return self._scatter_products(x, self.col_indices(), self.rowind)

    def symmetrize_pattern(self) -> "CSCMatrix":
        """Return A with the pattern of ``A + Aᵗ`` (zeros added as explicit
        entries, values preserved).  The solver requires symmetric patterns
        (paper §1: "problems leading to sparse systems with a symmetric
        pattern")."""
        at = self.transpose()
        rows = np.concatenate([self.rowind, at.rowind])
        cols = np.concatenate([self.col_indices(), at.col_indices()])
        vals = np.concatenate(
            [self.values, np.zeros(at.nnz, dtype=self.values.dtype)])
        return CSCMatrix.from_coo(self.n, rows, cols, vals)

    def is_pattern_symmetric(self) -> bool:
        at = self.transpose()
        return (np.array_equal(self.colptr, at.colptr)
                and np.array_equal(self.rowind, at.rowind))

    def is_symmetric(self, tol: float = 0.0, hermitian: bool = False) -> bool:
        """``A == Aᵗ`` entrywise (or ``A == A^H`` with ``hermitian=True``,
        the natural notion for complex matrices handed to Cholesky/LDLᵀ)."""
        at = self.transpose()
        if not (np.array_equal(self.colptr, at.colptr)
                and np.array_equal(self.rowind, at.rowind)):
            return False
        other = np.conj(at.values) if hermitian else at.values
        return bool(np.all(np.abs(self.values - other) <= tol))

    def lower_pattern(self) -> "CSCMatrix":
        """Strictly-lower + diagonal part (used by Cholesky paths)."""
        cols = self.col_indices()
        keep = self.rowind >= cols
        return CSCMatrix.from_coo(self.n, self.rowind[keep], cols[keep],
                                  self.values[keep], sum_duplicates=False)

    def norm1(self) -> float:
        """Max column sum of absolute values."""
        if not self.nnz:
            return 0.0
        # one sum per non-empty column (reduceat cannot express an empty one)
        starts = self.colptr[:-1][np.diff(self.colptr) > 0]
        return float(np.add.reduceat(np.abs(self.values), starts).max())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSCMatrix(n={self.n}, nnz={self.nnz})"
