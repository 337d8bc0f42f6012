"""Nested dissection ordering with explicit supernodal partition.

Implements the George [18] / Scotch-style recursion the paper's analysis step
relies on:

* recursively split each connected region with a vertex separator
  (:func:`repro.ordering.separator.vertex_separators`);
* stop when a region has at most ``cmin`` vertices (paper: ``cmin = 15``);
* number each region's sub-parts first and its separator *last*, so every
  separator dominates its subtree in the elimination order.

The recursion runs one dissection depth at a time: every region of a depth
is split into components, and every connected one cut, by one batched call
each, so the number of array operations grows with the depth of the
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

from repro.ordering.graph import Graph, side_by_side
from repro.ordering.separator import SplitResult, vertex_separators

#: ``splitter(g, regions) -> [(part_a, part_b, sep), ...]``, one split per
#: region (a sorted, connected vertex array of ``g``)
Splitter = Callable[[Graph, Sequence[np.ndarray]], List[SplitResult]]

#: a region waiting to be placed: (sorted vertices, first position, level,
#: index in ``parts`` of the separator it came from or -1)
Region = Tuple[np.ndarray, int, int, int]


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
        out = np.empty(self.n, dtype=np.int64)
        for i, p in enumerate(self.partitions):
            out[p.start:p.end] = i
        return out


def _forest(g: Graph, regions: Sequence[np.ndarray],
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The regions side by side (``verts``, ``ptr``) and, per entry, the
    local index of its component's smallest vertex and its BFS level from
    it, on the subgraph each region induces."""
    verts, ptr, region = side_by_side(regions)
    return (verts, ptr) + g.within(verts, region).forest(ptr)


def _components(g: Graph, regions: List[np.ndarray]) -> List[List[np.ndarray]]:
    """The connected components of every region, each sorted, in order of
    their smallest vertex."""
    verts, ptr, root, _ = _forest(g, regions)
    # roots are local indices, so this groups regions, then components
    roots, sizes = np.unique(root, return_counts=True)
    comps = np.split(verts[np.argsort(root, kind="stable")],
                     np.cumsum(sizes)[:-1])
    bounds = np.searchsorted(roots, ptr)
    return [comps[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


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
        is the algebraic level-set separator.  The geometric dissection of
        :mod:`repro.ordering.geometric` passes a coordinate-plane splitter
        here.  A split with an empty part makes the region a leaf.
    """
    if cmin < 1:
        raise ValueError("cmin must be >= 1")
    if splitter is None:
        splitter = vertex_separators

    parts: List[Tuple[int, np.ndarray, bool, int, int]] = []

    def cut(regions: List[Region]) -> List[Region]:
        """Place the regions that stay leaves; return the others."""
        out = []
        for verts, base, lvl, par in regions:
            if verts.size > cmin and (max_levels is None or lvl < max_levels):
                out.append((verts, base, lvl, par))
            else:
                parts.append((base, verts, False, lvl, par))
        return out

    n = g.n
    everything: Region = (np.arange(n, dtype=np.int64), 0, 0, -1)
    # regions of one depth whose connectivity is not known yet
    fresh = [everything] if n else []
    while fresh:
        fresh = cut(fresh)
        # a region's components are placed at offsets from its base
        connected: List[Region] = []
        for (_, base, lvl, par), comps in zip(
                fresh, _components(g, [r[0] for r in fresh])):
            offsets = np.cumsum([base] + [c.size for c in comps])
            connected += [(c, int(off), lvl, par)
                          for c, off in zip(comps, offsets)]
        connected = cut(connected)
        fresh = []
        for (verts, base, lvl, par), (part_a, part_b, sep) in zip(
                connected, splitter(g, [r[0] for r in connected])):
            if not (sep.size and part_a.size and part_b.size):
                # dissection failed (dense-ish or tiny graph): make a leaf
                parts.append((base, verts, False, lvl, par))
                continue
            fresh += [(part_a, base, lvl + 1, len(parts)),
                      (part_b, base + part_a.size, lvl + 1, len(parts))]
            parts.append((base + part_a.size + part_b.size, sep, True, lvl,
                          par))

    # inside each part, the BFS order of its induced subgraph: component by
    # component in order of smallest vertex, each from its smallest vertex,
    # by (level, vertex) — roots are local indices, ordered by part first
    order = sorted(range(len(parts)), key=lambda i: parts[i][0])
    rank = {i: r for r, i in enumerate(order)}
    parts = [parts[i] for i in order]
    verts, _, root, level = _forest(g, [p[1] for p in parts])
    result = NDResult(perm=verts[np.lexsort((level, root))], partitions=[
        NDPartition(start, v.size, is_sep, lvl, rank.get(par, -1))
        for start, v, is_sep, lvl, par in parts])
    _validate(result, n)
    return result


def _validate(result: NDResult, n: int) -> None:
    seen = np.zeros(n, dtype=bool)
    if seen[result.perm].any():  # pragma: no cover - defensive
        raise AssertionError("duplicate index in permutation")
    seen[result.perm] = True
    if not seen.all():
        raise AssertionError("nested dissection produced an invalid permutation")
    pos = 0
    for p in result.partitions:
        if p.start != pos:
            raise AssertionError("partitions do not tile [0, n)")
        pos = p.end
    if pos != n:
        raise AssertionError("partitions do not cover [0, n)")
