"""Supernode machinery: quotient symbolic elimination, amalgamation,
splitting, and fundamental-supernode detection.

The solver treats every supernode's diagonal block as dense (the PaStiX
convention the paper follows), which lets the symbolic factorization run on
the *quotient* graph of supernodes instead of individual vertices: each
supernode carries the sorted set of its below-diagonal row indices, and the
elimination recurrence

``rows(s) = A_rows(s) ∪ ( ∪_{c : parent(c) = s} rows(c) )  \\  cols(s)``

propagates structure up the supernodal elimination tree in
O(#supernodes · average row-set size) — no per-entry fill enumeration.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.ordering.elimination_tree import elimination_tree


@dataclass
class Supernode:
    """A supernode: contiguous columns plus its below-diagonal row set.

    ``rows`` holds sorted global row indices strictly beyond ``end``
    (``first_col + ncols``); the diagonal block itself is implicit (dense).
    """

    first_col: int
    ncols: int
    rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    parent: int = -1

    @property
    def end(self) -> int:
        return self.first_col + self.ncols

    def nnz(self) -> int:
        """Dense storage of the column block: diagonal + off-diagonal rows."""
        return self.ncols * self.ncols + len(self.rows) * self.ncols


def supernode_row_sets(a: CSCMatrix,
                       intervals: Sequence[Tuple[int, int]]) -> List[Supernode]:
    """Quotient-graph symbolic elimination.

    Parameters
    ----------
    a:
        Pattern-symmetric matrix, *already permuted* into elimination order.
    intervals:
        ``(first_col, ncols)`` pairs tiling ``[0, n)`` in order — the
        supernodal partition (ND separators/leaves or fundamental
        supernodes).

    Returns supernodes with their below-diagonal row sets and parents
    (``parent(s)`` owns the first row of ``rows(s)``).
    """
    n = a.n
    snodes = [Supernode(fc, nc) for fc, nc in intervals]
    _check_partition(n, snodes)
    ends = np.array([s.end for s in snodes], dtype=np.int64)
    owner = _owner_of_columns(snodes)

    # initial structure from A: per supernode, the distinct rows at or
    # beyond its end among its columns' entries — one sorted pass over the
    # (supernode, row) pairs
    sn = owner[a.col_indices()]
    below = a.rowind >= ends[sn]
    pairs = np.unique(sn[below] * n + a.rowind[below])
    bounds = np.searchsorted(pairs, np.arange(len(snodes) + 1) * n)
    rows = pairs % max(n, 1)
    for i, s in enumerate(snodes):
        s.rows = rows[bounds[i]:bounds[i + 1]]

    # eliminate in order, pushing each supernode's rows to its parent
    for s in snodes:
        if s.rows.size == 0:
            s.parent = -1
            continue
        s.parent = int(owner[s.rows[0]])
        parent = snodes[s.parent]
        # rows beyond the parent's columns must appear in the parent too
        parent.rows = _union(parent.rows, _beyond(s.rows, parent.end))
    return snodes


def _owner_of_columns(snodes: Sequence[Supernode]) -> np.ndarray:
    """Index of the supernode owning each column."""
    return np.repeat(np.arange(len(snodes)),
                     np.array([s.ncols for s in snodes], dtype=np.int64))


def _beyond(rows: np.ndarray, end: int) -> np.ndarray:
    """The part of the sorted ``rows`` at or after ``end``."""
    return rows[rows.searchsorted(end):]


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two sorted duplicate-free index arrays."""
    if not b.size:
        return a
    merged = np.concatenate((a, b))
    merged.sort()
    keep = np.ones(merged.size, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def _check_partition(n: int, snodes: Sequence[Supernode]) -> None:
    pos = 0
    for s in snodes:
        if s.first_col != pos or s.ncols <= 0:
            raise ValueError("supernode intervals must tile [0, n) in order")
        pos = s.end
    if pos != n:
        raise ValueError("supernode intervals must cover [0, n)")


def amalgamate(snodes: List[Supernode], frat: float = 0.08,
               max_width: Optional[int] = None) -> List[Supernode]:
    """Merge small supernodes into adjacent parents (Scotch ``frat``).

    A supernode ``c`` merges into its parent ``p`` when the columns are
    adjacent (``c.end == p.first_col``) and the *extra fill* introduced by
    the merge stays below ``frat`` times the pair's current storage — the
    same column-aggregation rule the paper configures in Scotch ("columns
    aggregation is allowed as long as the fill-in introduced does not exceed
    8% of the original matrix").

    ``max_width`` optionally forbids growing supernodes beyond a bound
    (useful to keep tiles compressible rather than enormous).

    Merges are tried in sweeps over the supernodes in column order, until a
    sweep merges nothing; a sweep only revisits the supernodes a merge has
    touched since they were last tried (the merged parent, its children and
    the children it inherited), since every other pair would be refused
    again.  Row sets are maintained incrementally and parents re-derived at
    the end, so the result is again a valid output of
    :func:`supernode_row_sets`.
    """
    if frat <= 0.0:
        return snodes
    alive = [True] * len(snodes)
    parent = [s.parent for s in snodes]
    children: List[List[int]] = [[] for _ in snodes]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    # (sweep, index) of the pending tries, in the order the sweeps run them
    todo = [(0, i) for i in range(len(snodes))]
    queued = set(todo)
    while todo:
        item = heapq.heappop(todo)
        queued.discard(item)
        sweep, i = item
        s, p = snodes[i], parent[i]
        if not alive[i] or p < 0:
            continue
        into = snodes[p]
        w = s.ncols + into.ncols
        # only adjacent (rightmost-child) merges keep intervals
        if s.end != into.first_col or (max_width is not None
                                       and w > max_width):
            continue
        before = s.nnz() + into.nnz()
        merged_rows = _union(into.rows, _beyond(s.rows, into.end))
        if w * w + merged_rows.size * w - before > frat * before:
            continue
        # merge: parent absorbs child's columns (and its children)
        into.first_col, into.ncols, into.rows = s.first_col, w, merged_rows
        alive[i] = False
        for c in children[i]:
            parent[c] = p
        children[p].remove(i)
        children[p] += children[i]
        # the parent comes up later in this sweep, and so do its children
        # after i; those before i wait for the next sweep
        for c in children[p] + [p]:
            item = (sweep if c > i else sweep + 1, c)
            if item not in queued:
                queued.add(item)
                heapq.heappush(todo, item)
    kept = [s for i, s in enumerate(snodes) if alive[i]]
    _reindex_parents(kept)
    return kept


def _reindex_parents(snodes: List[Supernode]) -> None:
    """Recompute parents from row sets after a structural change."""
    owner = _owner_of_columns(snodes)
    for s in snodes:
        s.parent = int(owner[s.rows[0]]) if s.rows.size else -1


def split_supernodes(snodes: Sequence[Supernode], split_size: int,
                     split_min: int) -> List[Tuple[int, int, int]]:
    """Tile wide supernodes for parallelism and BLR clustering.

    Paper §4: "blocks that are larger than 256 are split in blocks of size
    at least 128".  A supernode wider than ``split_size`` is cut into
    ``ceil(width / split_size)`` balanced chunks; balance guarantees each
    chunk is at least ``split_size / 2 >= split_min`` wide.

    Returns ``(first_col, ncols, snode_index)`` triples in column order.
    """
    if split_min > split_size:
        raise ValueError("split_min must be <= split_size")
    out: List[Tuple[int, int, int]] = []
    for si, s in enumerate(snodes):
        w = s.ncols
        if w <= split_size:
            out.append((s.first_col, w, si))
            continue
        nchunks = -(-w // split_size)  # ceil
        base = w // nchunks
        extra = w % nchunks
        pos = s.first_col
        for c in range(nchunks):
            size = base + (1 if c < extra else 0)
            out.append((pos, size, si))
            pos += size
    return out


def detect_fundamental_supernodes(a: CSCMatrix) -> List[Tuple[int, int]]:
    """Fundamental supernodes of an already-permuted matrix.

    Used for the ``amd`` / ``natural`` orderings where no ND partition
    exists.  Computes the vertex elimination tree and the exact column
    structures of L (up-looking, O(fill) — acceptable at the scales where
    these orderings are selected), then groups consecutive columns ``j``,
    ``j+1`` with ``parent(j) = j+1`` and ``|struct(j)| - 1 = |struct(j+1)|``.

    Returns ``(first_col, ncols)`` intervals tiling ``[0, n)``.
    """
    n = a.n
    parent = elimination_tree(a)
    # up-looking symbolic: struct[j] = below-diagonal rows of L column j
    struct: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    children: List[List[int]] = [[] for _ in range(n)]
    for j in range(n):
        p = int(parent[j])
        if p >= 0:
            children[p].append(j)
    for j in range(n):
        rows, _ = a.column(j)
        k = int(np.searchsorted(rows, j + 1))
        pieces = [rows[k:]]
        for c in children[j]:
            sc = struct[c]
            kk = int(np.searchsorted(sc, j + 1))
            pieces.append(sc[kk:])
        struct[j] = np.unique(np.concatenate(pieces)) if pieces else \
            np.empty(0, dtype=np.int64)

    counts = np.array([len(s) for s in struct], dtype=np.int64)
    intervals: List[Tuple[int, int]] = []
    start = 0
    for j in range(1, n + 1):
        extend = (
            j < n
            and parent[j - 1] == j
            and counts[j - 1] - 1 == counts[j]
        )
        if not extend:
            intervals.append((start, j - start))
            start = j
    return intervals
