"""Symmetric permutations of sparse matrices.

The ordering step produces a permutation ``perm`` where ``perm[k]`` is the
original index of the unknown placed at position ``k`` ("new-to-old").  The
solver then factorizes ``P A Pᵗ`` whose entry ``(i, j)`` is
``A[perm[i], perm[j]]``.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix, ranges


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
    perm = np.asarray(perm, dtype=np.int64)
    # column j is column perm[j] of ``a``, its rows renumbered and sorted
    counts = np.diff(a.colptr)[perm]
    colptr = np.zeros(a.n + 1, dtype=np.int64)
    np.cumsum(counts, out=colptr[1:])
    src = ranges(a.colptr[perm], counts)
    rows = iperm[a.rowind[src]]
    # the keys ascend by column already: a stable sort only reorders rows
    order = np.argsort(np.arange(a.n).repeat(counts) * a.n + rows,
                       kind="stable")
    return CSCMatrix(a.n, colptr, rows[order], a.values[src[order]])


def permute_vector(x: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Apply P to a vector / block of vectors: ``(Px)[i] = x[perm[i]]``."""
    return np.asarray(x)[np.asarray(perm, dtype=np.int64)]


def unpermute_vector(x: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Apply Pᵗ: scatter permuted entries back to original positions."""
    out = np.empty_like(np.asarray(x))
    out[np.asarray(perm, dtype=np.int64)] = x
    return out
