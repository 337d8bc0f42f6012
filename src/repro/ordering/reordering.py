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

from typing import Sequence

import numpy as np

from repro.symbolic.supernodes import Supernode

#: supernodes wider than this skip the O(groups²) chaining and use a
#: lexicographic group order instead
TSP_WIDTH_CAP = 4096

#: so do supernodes with more label groups than this
TSP_GROUP_CAP = 512

#: entries one batch of greedy tours may hold in its distance matrices
#: and in its unpacked labels
_TOUR_BATCH = 1 << 21


def reorder_supernodes(snodes: Sequence[Supernode]) -> np.ndarray:
    """Compute the intra-supernode reordering remap.

    Returns ``newpos`` with ``newpos[g]`` = new global index of the vertex
    currently at global index ``g``; the permutation only moves vertices
    within their own supernode.  Callers must then remap every supernode's
    ``rows`` array (``sort(newpos[rows])``) and compose ``newpos`` into the
    global permutation.

    Every vertex is labelled in one pass over all (contributor, row) pairs;
    the tours then run in batches of supernodes with alike group counts.
    """
    n = snodes[-1].end if snodes else 0
    newpos = np.arange(n, dtype=np.int64)
    if not snodes:
        return newpos
    ncols = np.array([s.ncols for s in snodes], dtype=np.int64)
    owner = np.arange(len(snodes)).repeat(ncols)

    # every (contributor, row) pair, sorted by the supernode owning the row
    # (and, inside one, by contributor); each supernode's contributors
    # numbered from 0 in ascending order
    rows = np.concatenate([s.rows for s in snodes])
    contrib = np.arange(len(snodes)).repeat([s.rows.size for s in snodes])
    order = np.argsort(owner[rows], kind="stable")
    rows, contrib = rows[order], contrib[order]
    target = owner[rows]
    new = ((np.diff(target, prepend=-1) != 0)
           | (np.diff(contrib, prepend=-1) != 0))
    nreach = np.bincount(target[new], minlength=len(snodes))
    local = np.cumsum(new) - 1 - (np.cumsum(nreach) - nreach)[target]
    # a vertex's label: contributor i reaching it is bit i % 64 of its
    # word i // 64; every vertex of a supernode has as many words
    nwords = -(-nreach // 64)
    offset = np.cumsum(nwords[owner]) - nwords[owner]
    # one more word, left empty: what padding reads
    words = np.zeros(int(nwords[owner].sum()) + 1, dtype=np.uint64)
    np.bitwise_or.at(words, offset[rows] + local // 64, np.left_shift(
        np.uint64(1), (local % 64).astype(np.uint64)))

    # vertices with equal labels form a group, named by its first vertex
    leader = np.arange(n)
    for w in np.unique(nwords).tolist():
        verts = np.flatnonzero(nwords[owner] == w)
        mat = words[offset[verts][:, None] + np.arange(w)]
        order = np.lexsort([*mat.T, owner[verts]])
        mat, verts = mat[order], verts[order]
        head = np.append(True, (np.diff(owner[verts]) != 0)
                         | (mat[1:] != mat[:-1]).any(axis=1))
        leader[verts] = verts[head][np.cumsum(head) - 1]
    # ``heads[first[s]:][:ngroups[s]]`` are supernode s's groups, in order
    heads = np.flatnonzero(leader == np.arange(n))
    ngroups = np.bincount(owner[heads], minlength=len(snodes))
    first = np.cumsum(ngroups) - ngroups

    # every group's place in its supernode's tour
    slot = np.zeros(n, dtype=np.int64)
    tsp = np.flatnonzero((ncols > 2) & (ngroups > 1))
    lexi = (ncols[tsp] > TSP_WIDTH_CAP) | (ngroups[tsp] > TSP_GROUP_CAP)
    for sn in tsp[lexi].tolist():
        # groups sorted by their sorted contributor tuples, which still
        # clusters similar patterns
        g = heads[first[sn]:first[sn] + ngroups[sn]]
        labels = np.unpackbits(words[offset[g][:, None] + np.arange(
            nwords[sn])].view(np.uint8), axis=1, bitorder="little")
        slot[g[sorted(range(g.size), key=lambda i: tuple(
            np.flatnonzero(labels[i])))]] = np.arange(g.size)
    # greedy tours in batches whose group counts share a power of two
    greedy = tsp[~lexi]
    size_class = np.ceil(np.log2(ngroups[greedy]))
    for cls in np.unique(size_class):
        batch = greedy[size_class == cls]
        width = int(ngroups[batch].max())
        step = max(1, _TOUR_BATCH // width // max(width, 64 * int(
            nwords[batch].max())))
        for part in (batch[i:i + step] for i in range(0, batch.size, step)):
            g = np.arange(width)
            real = g < ngroups[part][:, None]
            heads_of = heads[np.where(real, first[part][:, None] + g, 0)]
            # the groups' labels, padded with empty groups and words
            w = np.arange(nwords[part].max())
            tours = _greedy_tours(words[np.where(
                real[:, :, None] & (w < nwords[part][:, None, None]),
                offset[heads_of][:, :, None] + w, -1)], real)
            b, i = np.nonzero(real)
            slot[heads_of[b, tours[real]]] = i
    # groups in tour order, vertices of a group in index order
    newpos[np.lexsort((slot[leader], owner))] = np.arange(n)
    return newpos


def _greedy_tours(labels: np.ndarray, real: np.ndarray) -> np.ndarray:
    """Nearest-neighbour tours over group labels by Hamming distance, one
    per supernode of a batch; ties go to the lowest group.

    ``labels`` is ``(batch, groups, words)`` (64 contributor bits a word),
    ``real`` marks the groups that exist (the others are padding, never
    visited).  Returns ``(batch, groups)`` tours; a row's entries past its
    group count are meaningless.
    """
    bits = np.unpackbits(labels.view(np.uint8), axis=2,
                         bitorder="little").astype(np.float32)
    size = bits.sum(axis=2)
    # |a xor b| = |a| + |b| - 2 |a and b|; counts of contributors, far
    # below 2**24, so exact in float32
    dist = size[:, :, None] + size[:, None, :] - 2 * (
        bits @ bits.transpose(0, 2, 1))
    # added to a row of distances: keeps visited and padding groups out
    far = np.where(real, 0, np.inf).astype(np.float32)
    # start from the group with the smallest label (few contributors = the
    # "top" rows of the supernode in typical elimination structures)
    tours = np.empty(real.shape, dtype=np.int64)
    tours[:, 0] = cur = (size + far).argmin(axis=1)
    # row ``cur`` of each supernode's distances, as rows of one matrix
    base = np.arange(0, real.size, real.shape[1])
    dist, far_at = dist.reshape(real.size, -1), far.reshape(-1)
    for step in range(1, real.shape[1]):
        at = base + cur
        far_at[at] = np.inf  # visited
        tours[:, step] = cur = (dist[at] + far).argmin(axis=1)
    return tours


def apply_reordering(snodes: Sequence[Supernode], newpos: np.ndarray) -> None:
    """Remap every supernode's row set in place after a reordering."""
    n, sizes = max(newpos.size, 1), [s.rows.size for s in snodes]
    # one sort of (supernode, new row) keys sorts every row set
    keys = np.sort(np.arange(len(snodes)).repeat(sizes) * n + newpos[
        np.concatenate([s.rows for s in snodes] or [np.arange(0)])]) % n
    bounds = np.cumsum([0] + sizes).tolist()
    for s, lo, hi in zip(snodes, bounds[:-1], bounds[1:]):
        s.rows = keys[lo:hi]
