"""Intra-supernode reordering (the TSP strategy of Pichon et al. [21]).

After the supernodal partition is fixed, the *internal* order of a
supernode's vertices is still free: permuting them permutes rows inside the
supernode's column range without changing fill.  The symbolic structure of
contributing supernodes, however, depends on that order — a contributor whose
row subset is scattered produces many small off-diagonal blocks, while a
contiguous subset produces one.  The paper reports that the TSP reordering
implemented in PaStiX "divides by more than two the number of off-diagonal
blocks" (§1) and also lowers the ranks of low-rank blocks.

We reproduce the heuristic: each vertex of a supernode is labelled with the
set of contributors that reach it; vertices with identical labels are grouped;
groups are chained greedily by minimal symmetric difference (the
travelling-salesman tour over Hamming distances, nearest-neighbour
approximation).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.symbolic.supernodes import Supernode

#: supernodes wider than this skip the O(groups²) chaining and use a
#: lexicographic group order instead
TSP_WIDTH_CAP = 4096


def reorder_supernodes(snodes: Sequence[Supernode]) -> np.ndarray:
    """Compute the intra-supernode reordering remap.

    Returns ``newpos`` with ``newpos[g]`` = new global index of the vertex
    currently at global index ``g``; the permutation only moves vertices
    within their own supernode.  Callers must then remap every supernode's
    ``rows`` array (``sort(newpos[rows])``) and compose ``newpos`` into the
    global permutation.
    """
    n = snodes[-1].end if snodes else 0
    newpos = np.arange(n, dtype=np.int64)
    if not snodes:
        return newpos

    # every (contributor, row) pair, sorted by the supernode owning the row
    # (and, inside one, by contributor)
    rows = np.concatenate([s.rows for s in snodes])
    contrib = np.repeat(np.arange(len(snodes)),
                        np.array([s.rows.size for s in snodes]))
    starts = np.array([s.first_col for s in snodes], dtype=np.int64)
    target = np.searchsorted(starts, rows, side="right") - 1
    order = np.argsort(target, kind="stable")
    rows, contrib, target = rows[order], contrib[order], target[order]
    bounds = np.searchsorted(target, np.arange(len(snodes) + 1))

    for s, lo, hi in zip(snodes, bounds[:-1].tolist(), bounds[1:].tolist()):
        if s.ncols <= 2 or lo == hi:
            continue
        # label matrix: vertex x contributor, True where the contributor
        # reaches the vertex; vertices with equal rows form a group, groups
        # numbered by their first vertex
        reaching, local = np.unique(contrib[lo:hi], return_inverse=True)
        member = np.zeros((s.ncols, reaching.size), dtype=bool)
        member[rows[lo:hi] - s.first_col, local] = True
        packed = np.packbits(member, axis=1)
        _, first, group = np.unique(
            packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
            return_index=True, return_inverse=True)
        if first.size <= 1:
            continue
        by_first = np.argsort(first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(first.size)
        labels = member[first[by_first]]
        if s.ncols > TSP_WIDTH_CAP or first.size > 512:
            tour = _lexicographic_order(labels)
        else:
            tour = _greedy_tour(labels)
        slot = np.empty(first.size, dtype=np.int64)
        slot[tour] = np.arange(first.size)
        # groups in tour order, vertices of a group in index order
        moved = np.argsort(slot[rank[group]], kind="stable")
        newpos[s.first_col + moved] = np.arange(s.first_col, s.end)
    return newpos


def _greedy_tour(labels: np.ndarray) -> List[int]:
    """Nearest-neighbour tour over group labels (rows of the boolean
    ``labels``) by Hamming distance; ties go to the lowest group."""
    bits = labels.astype(np.float32)
    size = bits.sum(axis=1)
    # |a xor b| = |a| + |b| - 2 |a and b|; counts of contributors, far
    # below 2**24, so exact in float32
    dist = size[:, None] + size[None, :] - 2.0 * (bits @ bits.T)
    # start from the group with the smallest label (few contributors = the
    # "top" rows of the supernode in typical elimination structures)
    cur = int(np.argmin(size))
    tour = [cur]
    for _ in range(len(size) - 1):
        dist[:, cur] = np.inf  # visited
        cur = int(np.argmin(dist[cur]))
        tour.append(cur)
    return tour


def _lexicographic_order(labels: np.ndarray) -> List[int]:
    """Fallback for very wide supernodes: sort groups lexicographically by
    their sorted contributor tuples, which still clusters similar patterns."""
    return sorted(range(len(labels)),
                  key=lambda g: tuple(np.flatnonzero(labels[g])))


def apply_reordering(snodes: Sequence[Supernode], newpos: np.ndarray) -> None:
    """Remap every supernode's row set in place after a reordering."""
    for s in snodes:
        if s.rows.size:
            s.rows = np.sort(newpos[s.rows])
