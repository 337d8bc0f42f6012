"""Nested dissection ordering with explicit supernodal partition.

Implements the George [18] / Scotch-style recursion the paper's analysis step
relies on:

* recursively split each connected region with a vertex separator
  (:func:`repro.ordering.separator.find_vertex_separator`);
* stop when a region has at most ``cmin`` vertices (paper: ``cmin = 15``);
* number each region's sub-parts first and its separator *last*, so every
  separator dominates its subtree in the elimination order.

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
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.ordering.graph import Graph
from repro.ordering.separator import find_vertex_separator


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


def _order_within(g: Graph, vertices: np.ndarray) -> np.ndarray:
    """BFS ordering of a vertex set on its induced subgraph (deterministic):
    component by component in order of smallest vertex, each from its
    smallest vertex, by (level, index)."""
    vertices = np.sort(np.asarray(vertices, dtype=np.int64))
    if vertices.size <= 2:
        return vertices
    sub, _ = g.subgraph(vertices)
    if not sub.adjind.size:
        return vertices  # no edge inside the set: nothing to follow
    comps, level = sub.bfs_forest()
    return vertices[np.concatenate(
        [comp[np.argsort(level[comp], kind="stable")] for comp in comps])]


def nested_dissection(
        g: Graph, cmin: int = 15,
        max_levels: Optional[int] = None,
        splitter: Optional[Callable[
            [Graph, "np.ndarray", Graph],
            Tuple["np.ndarray", "np.ndarray", "np.ndarray"]]] = None,
) -> NDResult:
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
        ``splitter(g, vertices, sub) -> (part_a, part_b, sep)`` strategy,
        ``sub`` being the subgraph of ``g`` induced by ``vertices``; the
        default is the algebraic level-set separator.  The geometric
        dissection of :mod:`repro.ordering.geometric` passes a
        coordinate-plane splitter here.

    Every region is handled on its own induced subgraph, extracted once, so
    the cost of a region depends on its size and not on the size of ``g``.
    """
    if cmin < 1:
        raise ValueError("cmin must be >= 1")
    if splitter is None:
        splitter = find_vertex_separator

    n = g.n
    perm = np.empty(n, dtype=np.int64)
    partitions: List[NDPartition] = []

    # Work items: (vertices, level, parent_partition_index).  We process a
    # region by splitting it, pushing children, and *reserving* the tail of
    # its index range for the separator, so positions are assigned
    # deterministically without recursion.
    def place(vertices: np.ndarray, start: int, level: int, parent: int) -> None:
        """Assign positions [start, start+len) to this region recursively."""
        stack = [(vertices, start, level, parent)]
        while stack:
            verts, base, lvl, par = stack.pop()
            nv = verts.size
            if nv == 0:
                continue
            if nv > cmin and (max_levels is None or lvl < max_levels):
                sub, _ = g.subgraph(verts)
                # regions may be disconnected (after separator removal)
                comps = sub.connected_components()
                if len(comps) > 1:
                    off = base
                    for comp in comps:
                        stack.append((verts[comp], off, lvl, par))
                        off += comp.size
                    continue

                part_a, part_b, sep = splitter(g, verts, sub)
                if sep.size and part_a.size and part_b.size:
                    sep_start = base + part_a.size + part_b.size
                    perm[sep_start:sep_start + sep.size] = \
                        _order_within(g, sep)
                    partitions.append(
                        NDPartition(sep_start, sep.size, True, lvl, par))
                    sep_part_index = len(partitions) - 1
                    stack.append((part_a, base, lvl + 1, sep_part_index))
                    stack.append((part_b, base + part_a.size, lvl + 1,
                                  sep_part_index))
                    continue
                # dissection failed (dense-ish or tiny graph): make a leaf

            perm[base:base + nv] = _order_within(g, verts)
            partitions.append(NDPartition(base, nv, False, lvl, par))

    place(np.arange(n, dtype=np.int64), 0, 0, -1)
    partitions.sort(key=lambda p: p.start)
    result = NDResult(perm=perm, partitions=partitions)
    _fix_parents(result)
    _validate(result, n)
    return result


def _fix_parents(result: NDResult) -> None:
    """Translate parent pointers (recorded pre-sort) into post-sort indices.

    Parent pointers were stored as indices into the append-order list; after
    sorting by ``start`` they must be remapped.  We re-derive them
    geometrically instead: the parent of a partition is the *innermost*
    separator whose dissection produced it — equivalently the separator with
    the smallest enclosing span that starts at or after the partition's end.
    Because every separator sits at the *end* of the index range of its
    region, partition ``p``'s parent is the nearest separator ``s`` with
    ``s.start >= p.end`` and ``s.level == p.level - 1`` scanning outward.
    """
    parts = result.partitions
    index_of = {id(p): i for i, p in enumerate(parts)}
    latest_sep_at_level: dict = {}
    for p in reversed(parts):
        if p.level > 0:
            parent = latest_sep_at_level.get(p.level - 1)
            p.parent = parent if parent is not None else -1
        else:
            p.parent = -1
        if p.is_separator:
            latest_sep_at_level[p.level] = index_of[id(p)]


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
