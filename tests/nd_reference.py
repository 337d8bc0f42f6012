"""Reference nested dissection: the per-region recursion the batched one
replaced, kept verbatim as the oracle for ``tests/test_nd_batched.py``.

Every region is dissected on its own induced subgraph: components first,
then the scalar level-set separator (George–Liu pseudo-peripheral root,
level score scanned level by level, the sequential ``_minimalize``), and
the BFS order inside each leaf and separator (``_order_within``).  The
graph traversals it needs, since removed from :class:`Graph`, live on
:class:`RefGraph`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.ordering.graph import Graph
from repro.ordering.nested_dissection import NDPartition, NDResult, _validate


class RefGraph(Graph):
    """:class:`Graph` plus the single-region traversals of the old recursion."""

    __slots__ = ()

    @classmethod
    def of(cls, g: Graph) -> "RefGraph":
        return cls(g.n, g.adjptr, g.adjind)

    def _bfs(self, start: int, level: np.ndarray) -> np.ndarray:
        """Breadth-first search from ``start`` through the vertices whose
        ``level`` is still ``-1``, one whole frontier per step; writes their
        depth into ``level`` and returns them."""
        level[start] = 0
        reached = [np.array([start], dtype=np.int64)]
        while True:
            nbrs, _ = self._gather(reached[-1])
            nbrs = nbrs[level[nbrs] == -1]
            if not nbrs.size:
                return np.concatenate(reached)
            # a vertex found from several frontier vertices is kept once:
            # by the last writer of its slot
            slot = np.arange(nbrs.size)
            level[nbrs] = slot
            frontier = nbrs[level[nbrs] == slot]
            level[frontier] = len(reached)
            reached.append(frontier)

    def _open_levels(self, mask: Optional[np.ndarray]) -> np.ndarray:
        """Level array for a traversal restricted to ``mask``: ``-1`` where
        the search may go, ``-2`` where it may not."""
        if mask is None:
            return np.full(self.n, -1, dtype=np.int64)
        return np.where(mask, np.int64(-1), np.int64(-2))

    def bfs_levels(self, start: int,
                   mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Breadth-first levels from ``start``; ``-1`` for unreachable (or
        masked-out) vertices.  ``mask`` restricts the traversal to vertices
        where it is True.  The levels depend on the graph alone, not on the
        order vertices are visited in."""
        level = self._open_levels(mask)
        if level[start] == -1:
            self._bfs(start, level)
        return np.maximum(level, -1, out=level)

    def pseudo_peripheral(self, start: int,
                          mask: Optional[np.ndarray] = None,
                          max_iters: int = 10,
                          degrees: Optional[np.ndarray] = None,
                          ) -> Tuple[int, np.ndarray]:
        """George–Liu pseudo-peripheral vertex heuristic.

        Repeatedly BFS and restart from a minimum-degree vertex of the last
        level until the eccentricity stops growing.  Returns the final root
        and its level structure.  ``degrees`` replaces this graph's own
        degrees in the tie-break (an induced subgraph passes the degrees its
        vertices have in the graph it was cut from).
        """
        if degrees is None:
            degrees = self.degrees()
        root = start
        levels = self.bfs_levels(root, mask)
        ecc = int(levels.max())
        for _ in range(max_iters):
            last = np.flatnonzero(levels == ecc)
            if last.size == 0:
                break
            # minimum-degree vertex of the deepest level
            cand = last[np.argmin(degrees[last])]
            new_levels = self.bfs_levels(int(cand), mask)
            new_ecc = int(new_levels.max())
            if new_ecc <= ecc:
                break
            root, levels, ecc = int(cand), new_levels, new_ecc
        return root, levels

    def bfs_forest(self, mask: Optional[np.ndarray] = None,
                   ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Connected components (restricted to ``mask``), each a sorted
        vertex array, in order of their smallest vertex; and the level of
        every vertex in the BFS from the smallest vertex of its component
        (``-1`` outside ``mask``)."""
        level = self._open_levels(mask)
        comps: List[np.ndarray] = []
        for s in np.flatnonzero(level == -1).tolist():
            if level[s] == -1:
                comps.append(np.sort(self._bfs(s, level)))
        return comps, np.maximum(level, -1, out=level)

    def connected_components(self,
                             mask: Optional[np.ndarray] = None) -> List[np.ndarray]:
        """Vertex sets of connected components (restricted to ``mask``)."""
        return self.bfs_forest(mask)[0]

    def subgraph(self, vertices: np.ndarray) -> Tuple["RefGraph", np.ndarray]:
        """Induced subgraph.

        Returns ``(g, vertices)`` where local vertex ``i`` of ``g`` is global
        vertex ``vertices[i]`` (the echo makes call sites self-documenting).
        All work arrays have the size of the subgraph, not of this graph.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        nbrs, counts = self._gather(vertices)
        owner = np.arange(vertices.size).repeat(counts)
        order = np.argsort(vertices, kind="stable")
        ranked = vertices[order]
        pos = ranked.searchsorted(nbrs)
        np.minimum(pos, vertices.size - 1, out=pos)
        keep = ranked[pos] == nbrs
        adjptr = np.zeros(vertices.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner[keep], minlength=vertices.size),
                  out=adjptr[1:])
        return RefGraph(vertices.size, adjptr, order[pos[keep]]), vertices


def find_vertex_separator(g: RefGraph, vertices: np.ndarray,
                          sub: Optional[RefGraph] = None,
                          balance_weight: float = 1.0,
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the connected vertex set ``vertices`` of ``g`` (scalar
    level-set separator; ``sub`` is the induced subgraph when extracted)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    nv = vertices.size
    empty = np.empty(0, dtype=np.int64)
    if nv <= 1:
        return vertices, empty, empty
    if sub is None:
        sub, _ = g.subgraph(vertices)

    # the pseudo-peripheral tie-break uses the degrees in the whole graph
    degrees = g.adjptr[vertices + 1] - g.adjptr[vertices]
    _, lvl = sub.pseudo_peripheral(0, degrees=degrees)
    depth = int(lvl.max())
    if depth < 1:
        # vertices[0] has no neighbour in the set, so the set is not
        # connected as required and has no level structure to cut: no split
        return vertices, empty, empty

    counts = np.bincount(lvl, minlength=depth + 1)
    below = np.cumsum(counts) - counts  # vertices strictly below each level

    # Candidate level l separates A = levels < l from B = levels > l.
    # Among *balanced* candidates (smaller side holds at least a quarter of
    # the non-separator vertices) pick the thinnest level; if no level is
    # balanced (elongated or degenerate graphs) fall back to the level
    # maximizing the smaller side.
    best_score = np.inf
    best_level = -1
    fallback_level, fallback_minside = depth // 2, -1
    for lvl_cand in range(depth + 1):
        na = int(below[lvl_cand])
        nb = nv - na - int(counts[lvl_cand])
        if na == 0 or nb == 0:
            continue
        minside = min(na, nb)
        if minside > fallback_minside:
            fallback_minside = minside
            fallback_level = lvl_cand
        if minside < 0.25 * (na + nb):
            continue
        score = counts[lvl_cand] * (1.0 + balance_weight * abs(na - nb) / nv)
        if score < best_score:
            best_score = score
            best_level = lvl_cand
    if best_level < 0:
        best_level = fallback_level

    # local side masks; of the chosen level only the vertices adjacent to
    # the B side stay in the separator, the others belong to the A side
    a_mask = lvl < best_level
    b_mask = lvl > best_level
    cand = np.flatnonzero(lvl == best_level)
    keep = sub.touches(cand, b_mask)
    a_mask[cand[~keep]] = True

    # minimalization: a separator vertex with no neighbour in A moves to B
    sep = _minimalize(sub, cand[keep], a_mask, b_mask)
    return vertices[a_mask], vertices[b_mask], np.sort(vertices[sep])


def _minimalize(g: Graph, sep: np.ndarray, a_mask: np.ndarray,
                b_mask: np.ndarray) -> np.ndarray:
    """Drop separator vertices touching only one side (moving them into that
    side), repeating until stable.

    One vertex moves at a time and each move changes what the next vertex
    touches, so on arbitrary masks the outcome depends on the visiting order
    (the iteration order of the set): this stays a sequential loop.  Every
    vertex :func:`find_vertex_separator` passes in already touches B, so
    there nothing ever moves to A and the outcome is order-free.
    """
    changed = True
    sep_set = set(int(v) for v in sep)
    while changed:
        changed = False
        for v in list(sep_set):
            nbrs = g.neighbors(v)
            touches_a = bool(a_mask[nbrs].any())
            touches_b = bool(b_mask[nbrs].any())
            if touches_a and touches_b:
                continue
            sep_set.discard(v)
            changed = True
            if touches_a:
                a_mask[v] = True
            else:  # touches only B, or is isolated
                b_mask[v] = True
    return np.asarray(sorted(sep_set), dtype=np.int64)


def make_plane_splitter(coords: np.ndarray):
    """The per-region coordinate-plane splitter
    ``splitter(g, vertices, sub=None)``."""
    coords = np.asarray(coords, dtype=np.float64)

    def splitter(g: RefGraph, vertices: np.ndarray,
                 sub: Optional[RefGraph] = None):
        vertices = np.asarray(vertices, dtype=np.int64)
        pts = coords[vertices]
        extents = pts.max(axis=0) - pts.min(axis=0)
        axis = int(np.argmax(extents))
        if extents[axis] == 0.0:
            # all vertices co-located: no geometric split possible
            return vertices, np.empty(0, dtype=np.int64), \
                np.empty(0, dtype=np.int64)
        cut = float(np.median(pts[:, axis]))
        below = pts[:, axis] < cut
        # guard against degenerate splits when many points share the median
        if not below.any() or below.all():
            below = pts[:, axis] <= cut
            if below.all():
                order = np.argsort(pts[:, axis], kind="stable")
                half = vertices.size // 2
                below = np.zeros(vertices.size, dtype=bool)
                below[order[:half]] = True
        # separator: vertices of side b adjacent to side a (one grid plane)
        if sub is None:
            sub, _ = g.subgraph(vertices)
        side_b = np.flatnonzero(~below)
        in_sep = sub.touches(side_b, below)
        return (vertices[below], vertices[side_b[~in_sep]],
                vertices[side_b[in_sep]])

    return splitter


def _order_within(g: RefGraph, vertices: np.ndarray) -> np.ndarray:
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


def nested_dissection(
        g: Graph, cmin: int = 15,
        max_levels: Optional[int] = None,
        splitter: Optional[Callable[
            [RefGraph, "np.ndarray", RefGraph],
            Tuple["np.ndarray", "np.ndarray", "np.ndarray"]]] = None,
) -> NDResult:
    """The per-region recursion: a stack of regions, each split on its own
    induced subgraph."""
    g = RefGraph.of(g)
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


def geometric_nested_dissection(g: Graph, coords: np.ndarray, cmin: int = 15,
                                max_levels: Optional[int] = None) -> NDResult:
    """The per-region recursion with the per-region plane splitter."""
    return nested_dissection(g, cmin=cmin, max_levels=max_levels,
                             splitter=make_plane_splitter(coords))
