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
    first, ncols = np.array(intervals, dtype=np.int64).reshape(-1, 2).T
    if (ncols <= 0).any() or (first != np.cumsum(ncols) - ncols).any():
        raise ValueError("supernode intervals must tile [0, n) in order")
    if ncols.sum() != n:
        raise ValueError("supernode intervals must cover [0, n)")
    snodes = [Supernode(fc, nc) for fc, nc in zip(first.tolist(),
                                                  ncols.tolist())]
    ends = first + ncols
    owner = np.arange(len(snodes)).repeat(ncols)

    # initial structure from A: per supernode, the distinct rows at or
    # beyond its end among its columns' entries — one sorted pass over the
    # (supernode, row) pairs
    sn = owner[a.col_indices()]
    below = a.rowind >= ends[sn]
    pairs = np.unique(sn[below] * n + a.rowind[below])
    bounds = np.searchsorted(pairs, np.arange(len(snodes) + 1) * n)
    rows = pairs % max(n, 1)
    # what each supernode's rows are the union of, filled as its children
    # are eliminated
    pieces = [[rows[lo:hi]] for lo, hi in zip(bounds[:-1].tolist(),
                                             bounds[1:].tolist())]

    # eliminate in order, pushing each supernode's rows to its parent
    ends = ends.tolist()
    for s, got in zip(snodes, pieces):
        s.rows = r = got[0] if len(got) == 1 else _union(*got)
        if r.size:
            s.parent = p = int(owner[r[0]])
            # rows beyond the parent's columns must appear in the parent too
            up = r[r.searchsorted(ends[p]):]
            if up.size:
                pieces[p].append(up)
    return snodes


def _beyond(rows: np.ndarray, end: int) -> np.ndarray:
    """The part of the sorted ``rows`` at or after ``end``."""
    return rows[rows.searchsorted(end):]


def _union(*sets: np.ndarray) -> np.ndarray:
    """Union of sorted duplicate-free index arrays."""
    merged = np.concatenate(sets)
    merged.sort()
    keep = np.ones(merged.size, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


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
    # (sweep, index) of the pending tries, in the order the sweeps run them;
    # a try queued twice pops twice in a row
    todo, last = [(0, i) for i in range(len(snodes))], None
    while todo:
        item = heapq.heappop(todo)
        if item == last:
            continue
        sweep, i = last = item
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
        extra = _beyond(s.rows, into.end)
        merged_rows = _union(into.rows, extra) if extra.size else into.rows
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
            heapq.heappush(todo, (sweep if c > i else sweep + 1, c))
    kept = [s for i, s in enumerate(snodes) if alive[i]]
    _reindex_parents(kept)
    return kept


def _reindex_parents(snodes: List[Supernode]) -> None:
    """Recompute parents from row sets after a structural change."""
    owner = np.arange(len(snodes)).repeat([s.ncols for s in snodes])
    for s in snodes:
        s.parent = int(owner[s.rows[0]]) if s.rows.size else -1


def split_supernodes(snodes: Sequence[Supernode], split_size: int,
                     split_min: int) -> List[Tuple[int, int, int]]:
    """Tile wide supernodes for parallelism and BLR clustering.

    Paper §4: "blocks that are larger than 256 are split in blocks of size
    at least 128".  A supernode of width ``w`` is cut into
    ``min(ceil(w / split_size), max(1, w // split_min))`` balanced chunks:
    as few as keep every chunk at most ``split_size`` wide, unless that
    would make one narrower than ``split_min`` (then fewer, wider ones).

    Returns ``(first_col, ncols, snode_index)`` triples in column order.
    """
    if split_min < 1:
        raise ValueError("split_min must be >= 1")
    if split_min > split_size:
        raise ValueError("split_min must be <= split_size")
    w = np.array([s.ncols for s in snodes], dtype=np.int64)
    nchunks = np.minimum(-(-w // split_size), np.maximum(1, w // split_min))
    snode = np.arange(w.size).repeat(nchunks)
    # chunk c of a supernode: base width, one more for the first w % chunks
    c = np.arange(snode.size) - (np.cumsum(nchunks) - nchunks)[snode]
    ncols = (w // nchunks)[snode] + (c < (w % nchunks)[snode])
    start = np.array([s.first_col for s in snodes], dtype=np.int64)
    first = (np.cumsum(ncols) - ncols) + (start - (np.cumsum(w) - w))[snode]
    return list(zip(first.tolist(), ncols.tolist(), snode.tolist()))


def detect_fundamental_supernodes(a: CSCMatrix) -> List[Tuple[int, int]]:
    """Fundamental supernodes of an already-permuted matrix.

    Used for the ``amd`` / ``natural`` orderings where no ND partition
    exists.  :func:`supernode_row_sets` over one-column supernodes gives
    the exact column structures of L and the elimination tree (O(fill) —
    acceptable at the scales where these orderings are selected); columns
    ``j``, ``j+1`` with ``parent(j) = j+1`` and ``|struct(j)| - 1 =
    |struct(j+1)|`` are grouped.

    Returns ``(first_col, ncols)`` intervals tiling ``[0, n)``.
    """
    cols = supernode_row_sets(a, [(j, 1) for j in range(a.n)])
    parent = np.array([c.parent for c in cols], dtype=np.int64)
    count = np.array([c.rows.size for c in cols], dtype=np.int64)
    start = np.ones(a.n, dtype=bool)
    start[1:] = ((parent[:-1] != np.arange(1, a.n))
                 | (count[:-1] - 1 != count[1:]))
    first = np.flatnonzero(start)
    return list(zip(first.tolist(), np.diff(np.append(first, a.n)).tolist()))
