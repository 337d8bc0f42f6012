"""Undirected adjacency graphs backed by CSR index arrays.

The ordering algorithms (nested dissection, minimum degree) operate on the
adjacency graph of the matrix: vertices are unknowns, edges connect the
symmetric nonzero pattern, self-loops (diagonal entries) are dropped.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.sparse.csc import CSCMatrix


def side_by_side(regions: Sequence[np.ndarray],
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint vertex sets laid end to end: their vertices, the boundaries
    ``ptr`` (region ``r`` is ``ptr[r]:ptr[r + 1]``) and every entry's
    region."""
    sizes = np.array([r.size for r in regions], dtype=np.int64)
    ptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    verts = np.concatenate(regions) if regions else np.empty(0, np.int64)
    return verts, ptr, np.arange(sizes.size).repeat(sizes)


class Graph:
    """Compressed adjacency structure of an undirected graph.

    ``adjptr``/``adjind`` follow the CSR convention: the neighbours of vertex
    ``v`` are ``adjind[adjptr[v]:adjptr[v+1]]`` (sorted, no self-loops, every
    edge stored in both directions).
    """

    __slots__ = ("n", "adjptr", "adjind", "_degrees")

    def __init__(self, n: int, adjptr: np.ndarray, adjind: np.ndarray) -> None:
        self.n = int(n)
        self.adjptr = np.ascontiguousarray(adjptr, dtype=np.int64)
        self.adjind = np.ascontiguousarray(adjind, dtype=np.int64)
        self._degrees = np.diff(self.adjptr)

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_matrix(cls, a: CSCMatrix, symmetric: bool = False) -> "Graph":
        """Adjacency graph of ``A + Aᵗ`` with the diagonal removed.

        ``symmetric=True`` promises the pattern of ``a`` is already
        symmetric (the caller symmetrised or checked it), which saves the
        transpose this would otherwise spend on finding out.
        """
        sym = (a if symmetric or a.is_pattern_symmetric()
               else a.symmetrize_pattern())
        cols = sym.col_indices()
        keep = sym.rowind != cols
        # CSC order is (column, row) order already: no sort needed
        adjptr = np.zeros(sym.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols[keep], minlength=sym.n), out=adjptr[1:])
        return cls(sym.n, adjptr, sym.rowind[keep])

    @classmethod
    def from_edges(cls, n: int,
                   edges: Iterable[Tuple[int, int]]) -> "Graph":
        """Build from an iterable of (u, v) pairs (each edge given once)."""
        edges = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        u = np.concatenate([edges[:, 0], edges[:, 1]])
        v = np.concatenate([edges[:, 1], edges[:, 0]])
        keep = u != v
        u, v = u[keep], v[keep]
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        if u.size:
            dedup = np.ones(u.size, dtype=bool)
            dedup[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
            u, v = u[dedup], v[dedup]
        adjptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(adjptr, u + 1, 1)
        np.cumsum(adjptr, out=adjptr)
        return cls(n, adjptr, v)

    # -- queries ----------------------------------------------------------
    @property
    def nedges(self) -> int:
        return int(len(self.adjind)) // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjind[self.adjptr[v]:self.adjptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.adjptr[v + 1] - self.adjptr[v])

    def degrees(self) -> np.ndarray:
        """Degree of every vertex (do not mutate)."""
        return self._degrees

    # -- traversals ---------------------------------------------------------
    def _gather(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated adjacency lists of ``vertices``, and their lengths."""
        counts = self._degrees[vertices]
        # output entry e of vertex v is adjind[adjptr[v] + e - first entry of v]
        first = counts.cumsum() - counts
        idx = (self.adjptr[vertices] - first).repeat(counts)
        idx += np.arange(idx.size)
        return self.adjind[idx], counts

    def touches(self, vertices: np.ndarray, member: np.ndarray) -> np.ndarray:
        """For each of ``vertices``, whether it has a neighbour ``w`` with
        ``member[w]`` True."""
        nbrs, counts = self._gather(np.asarray(vertices, dtype=np.int64))
        owner = np.arange(counts.size).repeat(counts)
        return np.bincount(owner[member[nbrs]], minlength=counts.size) > 0

    def within(self, vertices: np.ndarray, region: np.ndarray) -> "Graph":
        """The regions' induced subgraphs side by side, as one graph.

        Local vertex ``i`` is ``vertices[i]``; it keeps the edges to the
        vertices of its own region (``region[i]``) and no other.  A region
        whose vertices are contiguous and sorted in ``vertices`` is then
        numbered in global order, so every "smallest vertex" tie-break can
        be taken on local indices.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        nbrs, counts = self._gather(vertices)
        owner = np.arange(vertices.size).repeat(counts)
        local = np.full(self.n, -1, dtype=np.int64)
        local[vertices] = np.arange(vertices.size)
        nbrs = local[nbrs]
        keep = nbrs >= 0
        keep[keep] = region[nbrs[keep]] == region[owner[keep]]
        adjptr = np.zeros(vertices.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner[keep], minlength=vertices.size),
                  out=adjptr[1:])
        return Graph(vertices.size, adjptr, nbrs[keep])

    def bfs(self, starts: np.ndarray, level: np.ndarray,
            root: Optional[np.ndarray] = None) -> None:
        """Breadth-first search from all of ``starts`` at once, one whole
        frontier per step, through the vertices whose ``level`` is still
        ``-1``: writes their depth into ``level`` and, given ``root``, copies
        the root entry of the vertex they were reached from.  Depths are
        distances, so they do not depend on the order a frontier is visited
        in; searches from starts in different components never meet."""
        level[starts] = 0
        frontier, depth = starts, 0
        while True:
            nbrs, counts = self._gather(frontier)
            new = level[nbrs] == -1
            if not new.any():
                return
            nbrs = nbrs[new]
            # a vertex found from several frontier vertices is kept once:
            # by the last writer of its slot
            slot = np.arange(nbrs.size)
            level[nbrs] = slot
            won = level[nbrs] == slot
            if root is not None:
                root[nbrs[won]] = root[frontier.repeat(counts)[new][won]]
            frontier, depth = nbrs[won], depth + 1
            level[frontier] = depth

    def forest(self, ptr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Connected components and their BFS levels, region by region.

        The vertices come in regions ``ptr[r]:ptr[r + 1]`` with no edge
        between regions (a :meth:`within` graph).  Returns, per vertex, the
        smallest vertex of its component (its root) and the distance from
        it.  Each round searches once from every region's smallest vertex
        not reached yet — the root of its component, as earlier rounds took
        whole components; a vertex with no neighbour is its own component.
        """
        level = np.where(self._degrees == 0, 0, -1)
        root = np.arange(self.n)
        region = np.arange(ptr.size - 1).repeat(np.diff(ptr))
        while True:
            open_ = np.flatnonzero(level < 0)
            if not open_.size:
                return root, level
            first = np.ones(open_.size, dtype=bool)
            first[1:] = region[open_[1:]] != region[open_[:-1]]
            self.bfs(open_[first], level, root)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, nedges={self.nedges})"
