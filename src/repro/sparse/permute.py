"""Symmetric permutations of sparse matrices.

The ordering step produces a permutation ``perm`` where ``perm[k]`` is the
original index of the unknown placed at position ``k`` ("new-to-old").  The
solver then factorizes ``P A Pᵗ`` whose entry ``(i, j)`` is
``A[perm[i], perm[j]]``.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix


def is_permutation(perm: np.ndarray, n: int) -> bool:
    """True iff ``perm`` is a permutation of ``0..n-1``."""
    perm = np.asarray(perm)
    if perm.shape != (n,):
        return False
    seen = np.zeros(n, dtype=bool)
    ok = (perm >= 0) & (perm < n)
    if not ok.all():
        return False
    seen[perm] = True
    return bool(seen.all())


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    """Return ``iperm`` with ``iperm[perm[k]] == k`` ("old-to-new")."""
    perm = np.asarray(perm, dtype=np.int64)
    iperm = np.empty_like(perm)
    iperm[perm] = np.arange(len(perm), dtype=np.int64)
    return iperm


def permute_symmetric(a: CSCMatrix, perm: np.ndarray) -> CSCMatrix:
    """Compute ``P A Pᵗ`` for the new-to-old permutation ``perm``.

    Row ``i`` / column ``j`` of the result hold ``A[perm[i], perm[j]]``.
    """
    if not is_permutation(perm, a.n):
        raise ValueError("perm is not a valid permutation")
    iperm = invert_permutation(perm)
    cols = a.col_indices()
    new_rows = iperm[a.rowind]
    new_cols = iperm[cols]
    return CSCMatrix.from_coo(a.n, new_rows, new_cols, a.values,
                              sum_duplicates=False)


def permute_vector(x: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Apply P to a vector / block of vectors: ``(Px)[i] = x[perm[i]]``."""
    return np.asarray(x)[np.asarray(perm, dtype=np.int64)]


def unpermute_vector(x: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Apply Pᵗ: scatter permuted entries back to original positions."""
    out = np.empty_like(np.asarray(x))
    out[np.asarray(perm, dtype=np.int64)] = x
    return out
