"""Low-rank block container.

A block ``A`` of shape ``(m, n)`` is represented as ``Â = u @ v.T`` with
``u`` of shape ``(m, r)`` and ``v`` of shape ``(n, r)`` (paper §3.1).  The
solver maintains the invariant that ``u`` has orthonormal columns — both
compression kernels produce orthonormal ``u`` and the RRQR recompression of
eq. (12) explicitly preserves it ("note that uC' is kept orthogonal for
future updates") — which the recompression kernels exploit.

The representation is a *pure transpose* product even for complex blocks
(matching PaStiX's z-kernels, where ``v`` holds ``Σ Vᴴ`` rows transposed):
``Â = u @ v.T``, never ``u @ v.conj().T``.  Conjugation therefore appears
only where the mathematics demands a Hermitian adjoint — :meth:`rmatvec`
and the orthogonal-projection steps of the recompression kernels — while
all the structural products (``lr_product``, updates, trisolve panels) stay
conjugation-free.

Blocks are dtype-generic: ``u``/``v`` keep whatever inexact dtype they are
built with (float32/float64/complex64/complex128), and byte accounting uses
the actual itemsize.  A column block whose compression discarded enough is
stored with ``u``/``v`` in a narrower dtype
(:func:`repro.core.factor.narrow_if_discarded`); consumers promote on read.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class LowRankBlock:
    """``u @ v.T`` factorization of an ``m x n`` block."""

    __slots__ = ("u", "v")

    def __init__(self, u: np.ndarray, v: np.ndarray) -> None:
        u = np.ascontiguousarray(u)
        v = np.ascontiguousarray(v)
        if u.dtype.kind not in "fc":
            u = np.ascontiguousarray(u, dtype=np.float64)
        if v.dtype.kind not in "fc":
            v = np.ascontiguousarray(v, dtype=np.float64)
        if u.ndim != 2 or v.ndim != 2:
            raise ValueError("u and v must be 2-D")
        if u.shape[1] != v.shape[1]:
            raise ValueError(
                f"rank mismatch: u has {u.shape[1]} columns, v has {v.shape[1]}")
        self.u = u
        self.v = v

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, m: int, n: int,
             dtype: np.dtype | str | type = np.float64) -> "LowRankBlock":
        """The rank-0 block (an all-zero ``m x n`` block)."""
        return cls(np.zeros((m, 0), dtype=dtype), np.zeros((n, 0), dtype=dtype))

    @property
    def m(self) -> int:
        return self.u.shape[0]

    @property
    def n(self) -> int:
        return self.v.shape[0]

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.m, self.n)

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(self.u, self.v)

    @property
    def nbytes(self) -> int:
        """Storage of the compressed representation (actual itemsizes, so
        mixed-precision storage is reported honestly)."""
        return self.u.nbytes + self.v.nbytes

    def to_dense(self) -> np.ndarray:
        if self.rank == 0:
            return np.zeros((self.m, self.n), dtype=self.dtype)
        return self.u @ self.v.T

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``Â @ x`` in O((m + n) r) per vector."""
        if self.rank == 0:
            dt = np.result_type(self.dtype, np.asarray(x).dtype)
            shape = (self.m,) if x.ndim == 1 else (self.m, x.shape[1])
            return np.zeros(shape, dtype=dt)
        return self.u @ (self.v.T @ x)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``Âᴴ @ x`` (the adjoint; equals ``Â.T @ x`` for real blocks)."""
        if self.rank == 0:
            dt = np.result_type(self.dtype, np.asarray(x).dtype)
            shape = (self.n,) if x.ndim == 1 else (self.n, x.shape[1])
            return np.zeros(shape, dtype=dt)
        return self.v.conj() @ (self.u.conj().T @ x)

    def conj(self) -> "LowRankBlock":
        """Elementwise conjugate (a no-copy pass-through for real blocks)."""
        return LowRankBlock(self.u.conj(), self.v.conj())

    def astype(self, dtype: np.dtype | str | type) -> "LowRankBlock":
        """Copy with ``u``/``v`` cast to ``dtype`` (mixed-precision store)."""
        dtype = np.dtype(dtype)
        if self.u.dtype == dtype and self.v.dtype == dtype:
            return self
        return LowRankBlock(self.u.astype(dtype), self.v.astype(dtype))

    def copy(self) -> "LowRankBlock":
        return LowRankBlock(self.u.copy(), self.v.copy())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LowRankBlock(m={self.m}, n={self.n}, rank={self.rank})"
