"""Nested dissection ordering with explicit supernodal partition.

Implements the George [18] / Scotch-style recursion the paper's analysis step
relies on:

* recursively split each connected region with a vertex separator
  (:func:`repro.ordering.separator.level_set_sides`);
* stop when a region has at most ``cmin`` vertices (paper: ``cmin = 15``);
* number each region's sub-parts first and its separator *last*, so every
  separator dominates its subtree in the elimination order.

The recursion runs one dissection depth at a time, over arrays that hold
all its regions: one subgraph and one search per depth find every region's
components and their first level structures, and one batched call cuts
them, so the number of array operations grows with the depth of the
dissection and not with its number of regions.

The result carries, besides the permutation, the partition into *supernodes*:
"each set of vertices corresponding to a separator constructed during the
nested dissection is called a supernode" (paper §1) — leaves of the recursion
are supernodes too.  A parent pointer per partition encodes the assembly-tree
skeleton (a leaf/separator's parent is the separator of the enclosing
region).

Separator vertices are ordered internally by a BFS of the separator-induced
subgraph.  This groups vertices that are close in the separator's own graph,
the same effect as the k-way separator ordering of [10, 16], and reduces both
off-diagonal block counts and block ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ordering.graph import Graph
from repro.ordering.separator import SplitResult, level_set_sides

#: ``splitter(g, regions) -> [(part_a, part_b, sep), ...]``, one split per
#: region (a sorted, connected vertex array of ``g``)
Splitter = Callable[[Graph, Sequence[np.ndarray]], List[SplitResult]]


@dataclass
class NDPartition:
    """One supernode of the nested-dissection partition.

    Attributes
    ----------
    start, size:
        Column interval ``[start, start + size)`` in the *new* ordering.
    is_separator:
        True for separators, False for leaf regions.
    level:
        Dissection depth (0 = root separator).
    parent:
        Index into the partition list of the enclosing separator, or ``-1``.
    """

    start: int
    size: int
    is_separator: bool
    level: int
    parent: int = -1

    @property
    def end(self) -> int:
        return self.start + self.size


@dataclass
class NDResult:
    """Outcome of :func:`nested_dissection`.

    ``perm`` is new-to-old: the unknown at position ``k`` of the reordered
    matrix is original unknown ``perm[k]``.  ``partitions`` are sorted by
    ``start`` and tile ``[0, n)`` exactly.
    """

    perm: np.ndarray
    partitions: List[NDPartition]

    @property
    def n(self) -> int:
        return int(len(self.perm))

    def supernode_of(self) -> np.ndarray:
        """Map each new index to its partition id."""
        return np.arange(len(self.partitions)).repeat(
            [p.size for p in self.partitions])


def nested_dissection(g: Graph, cmin: int = 15,
                      max_levels: Optional[int] = None,
                      splitter: Optional[Splitter] = None) -> NDResult:
    """Compute a nested-dissection permutation and supernodal partition.

    Parameters
    ----------
    g:
        Adjacency graph of the (pattern-symmetric) matrix.
    cmin:
        Regions with at most ``cmin`` vertices are not dissected further
        (paper setting: 15).
    max_levels:
        Optional cap on the recursion depth (mainly for tests).
    splitter:
        ``splitter(g, regions) -> [(part_a, part_b, sep), ...]``, called
        once per dissection depth with all its regions to cut; the default
        cuts them by level sets, on the subgraph and from the levels the
        depth's component search has built.  The geometric dissection of
        :mod:`repro.ordering.geometric` passes a coordinate-plane splitter
        here.  A split with an empty part makes the region a leaf.
    """
    if cmin < 1:
        raise ValueError("cmin must be >= 1")
    n = g.n
    # the parts in the order they are made, as columns (first position,
    # size, separator?, level, parent part or -1), and every vertex's part
    table: List[np.ndarray] = [np.zeros((5, 0), dtype=np.int64)]
    part_of = np.empty(n, dtype=np.int64)

    def place(verts: np.ndarray, sizes: np.ndarray, start: np.ndarray,
              is_sep: bool, lvl: int, par: np.ndarray) -> np.ndarray:
        """Make parts of ``verts`` (laid part after part); their ids."""
        ids = sum(t.shape[1] for t in table) + np.arange(sizes.size)
        part_of[verts] = ids.repeat(sizes)
        table.append(np.stack([start, sizes, np.full(sizes.size, is_sep),
                               np.full(sizes.size, lvl), par]))
        return ids

    def cut(verts: np.ndarray, sizes: np.ndarray, base: np.ndarray,
            par: np.ndarray, lvl: int) -> Tuple[np.ndarray, ...]:
        """Of a depth's regions (sorted vertices side by side, sizes, first
        positions, parent separators), place the leaves; return the rest."""
        leaf = (sizes <= cmin) | (max_levels is not None and lvl >= max_levels)
        stay = leaf.repeat(sizes)
        place(verts[stay], sizes[leaf], base[leaf], False, lvl, par[leaf])
        return verts[~stay], sizes[~leaf], base[~leaf], par[~leaf]

    lvl, one = 0, min(n, 1)
    verts, sizes, base, par = cut(np.arange(n), np.full(one, n),
                                  np.zeros(one, np.int64), np.full(one, -1), 0)
    local = np.empty(n, dtype=np.int64)
    while sizes.size:
        # one subgraph and one search per depth: the components of every
        # region, and each component's levels from its smallest vertex
        ptr = np.append(0, np.cumsum(sizes))
        region = np.arange(sizes.size).repeat(sizes)
        h = g.within(verts, region)
        root, level = h.forest(ptr)
        # components in order of their root, a local index: region by
        # region, each region's in order of smallest vertex, placed at
        # offsets from its base
        is_root = np.zeros(h.n, dtype=bool)
        is_root[root] = True
        comp = (np.cumsum(is_root) - 1)[root]
        csize = np.bincount(comp)
        before = np.cumsum(csize) - csize
        creg = region[is_root]
        at, csize, cbase, cpar = cut(
            verts[np.argsort(comp, kind="stable")], csize,
            base[creg] + before - before[comp[ptr[:-1]]][creg], par[creg], lvl)
        local[verts] = np.arange(verts.size)
        if splitter is None:
            side = level_set_sides(g, h, verts, local[at], csize,
                                   level[local[at]])
        else:
            side, bounds = np.zeros(n, np.int64), np.cumsum(csize).tolist()
            for s, pieces in enumerate(zip(*splitter(g, [
                    at[lo:hi] for lo, hi in zip([0] + bounds, bounds)]))):
                side[np.concatenate(pieces)] = s
            side = side[at]
        # every component's A, B and separator in turn, each in vertex order
        key = 3 * np.arange(csize.size).repeat(csize) + side
        at, side = at[np.argsort(key, kind="stable")], np.sort(key) % 3
        na, nb, ns = np.bincount(key, minlength=3 * csize.size).reshape(-1, 3).T
        # a failed dissection (dense-ish or tiny graph) makes a leaf
        ok = (na > 0) & (nb > 0) & (ns > 0)
        fine = ok.repeat(csize)
        place(at[~fine], csize[~ok], cbase[~ok], False, lvl, cpar[~ok])
        na, nb, cbase = na[ok], nb[ok], cbase[ok]
        seps = place(at[fine & (side == 2)], ns[ok], cbase + na + nb, True,
                     lvl, cpar[ok])
        # the two sides of every cut are the next depth's regions
        lvl += 1
        verts, sizes, base, par = cut(
            at[fine & (side < 2)], np.stack([na, nb], 1).ravel(),
            np.stack([cbase, cbase + na], 1).ravel(), seps.repeat(2), lvl)

    # inside each part, the BFS order of its induced subgraph: component by
    # component in order of smallest vertex, each from its smallest vertex,
    # by (level, vertex) — roots are local indices, ordered by part first
    start, size, is_sep, level, parent = np.concatenate(table, axis=1)
    order = np.argsort(start)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    layout = np.argsort(rank[part_of], kind="stable")
    root, depth = g.within(layout, rank[part_of[layout]]).forest(
        np.append(0, np.cumsum(size[order])))
    parent = parent[order]
    result = NDResult(perm=layout[np.lexsort((depth, root))], partitions=[
        NDPartition(*p) for p in zip(
            start[order].tolist(), size[order].tolist(),
            is_sep[order].astype(bool).tolist(), level[order].tolist(),
            np.where(parent < 0, -1, rank[parent]).tolist())])
    _validate(result, n)
    return result


def _validate(result: NDResult, n: int) -> None:
    if not np.array_equal(np.sort(result.perm), np.arange(n)):
        raise AssertionError("nested dissection produced an invalid permutation")
    ends = np.cumsum([0] + [p.size for p in result.partitions])
    if [p.start for p in result.partitions] != ends[:-1].tolist():
        raise AssertionError("partitions do not tile [0, n)")
    if ends[-1] != n:
        raise AssertionError("partitions do not cover [0, n)")
