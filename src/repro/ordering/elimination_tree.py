"""Elimination-tree utilities (Liu's algorithm and friends).

For a pattern-symmetric matrix A, the elimination tree has
``parent(j) = min{ i > j : L[i, j] != 0 }``.  The tree drives the symbolic
step: supernode parents, postorderings, and subtree sizes all derive from it.
The supernodal analysis in :mod:`repro.symbolic` runs on the *quotient*
(supernode) graph for efficiency, but the vertex-level elimination tree is
used by tests as ground truth and exposed as public API.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.sparse.csc import CSCMatrix


def elimination_tree(a: CSCMatrix) -> np.ndarray:
    """Compute the elimination tree of a pattern-symmetric matrix.

    Returns ``parent`` with ``parent[j] = -1`` for roots.  Uses Liu's
    path-compression algorithm, O(nnz · α(n)).
    """
    n = a.n
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        rows, _ = a.column(j)
        for i in rows:
            i = int(i)
            if i >= j:
                continue
            # walk from i to the root of its current subtree, compressing
            while True:
                anc = ancestor[i]
                ancestor[i] = j
                if anc == -1:
                    if parent[i] == -1 and i != j:
                        parent[i] = j
                    break
                if anc == j:
                    break
                i = int(anc)
    return parent


def postorder(parent: np.ndarray) -> np.ndarray:
    """Postorder the forest given by ``parent`` (children before parents).

    Returns ``order`` such that ``order[k]`` is the node visited k-th.
    Children are visited in increasing index order, making the result
    deterministic.
    """
    n = len(parent)
    children: List[List[int]] = [[] for _ in range(n)]
    roots: List[int] = []
    for v in range(n):
        p = int(parent[v])
        if p == -1:
            roots.append(v)
        else:
            children[p].append(v)
    order = np.empty(n, dtype=np.int64)
    k = 0
    for root in roots:
        # iterative DFS with explicit child cursor
        stack: List[Tuple[int, int]] = [(root, 0)]
        while stack:
            v, ci = stack[-1]
            if ci < len(children[v]):
                stack[-1] = (v, ci + 1)
                stack.append((children[v][ci], 0))
            else:
                stack.pop()
                order[k] = v
                k += 1
    if k != n:  # pragma: no cover - defensive
        raise AssertionError("parent array is not a forest")
    return order


def subtree_sizes(parent: np.ndarray) -> np.ndarray:
    """Number of nodes in the subtree rooted at each node (inclusive)."""
    n = len(parent)
    size = np.ones(n, dtype=np.int64)
    for v in postorder(parent):
        p = int(parent[v])
        if p != -1:
            size[p] += size[v]
    return size


def is_postordered(parent: np.ndarray) -> bool:
    """True iff every node's index exceeds all indices in its subtree."""
    n = len(parent)
    for v in range(n):
        p = int(parent[v])
        if p != -1 and p <= v:
            return False
    # parent > child is necessary; sufficiency needs contiguous subtrees
    size = subtree_sizes(parent)
    first = np.arange(n, dtype=np.int64)
    for v in postorder(parent):
        p = int(parent[v])
        if p != -1:
            first[p] = min(first[p], first[v])
    for v in range(n):
        if v - first[v] + 1 != size[v]:
            return False
    return True
