"""Undirected adjacency graphs backed by CSR index arrays.

The ordering algorithms (nested dissection, minimum degree) operate on the
adjacency graph of the matrix: vertices are unknowns, edges connect the
symmetric nonzero pattern, self-loops (diagonal entries) are dropped.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.sparse.csc import CSCMatrix, ranges


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
        e = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        e = np.concatenate([e, e[:, ::-1]])
        e = e[e[:, 0] != e[:, 1]]
        # (u, v) keys in order, each edge once per direction
        u, v = np.divmod(np.unique(e[:, 0] * n + e[:, 1]), max(n, 1))
        adjptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(u, minlength=n), out=adjptr[1:])
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
        return self.adjind[ranges(self.adjptr[vertices], counts)], counts

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
        label = np.full(self.n, -1, dtype=np.int64)
        label[vertices] = region
        keep = label[nbrs] == np.repeat(region, counts)
        label[vertices] = np.arange(vertices.size)
        # kept entries before each vertex's first one
        adjptr = np.append(0, np.cumsum(keep))[np.append(0, np.cumsum(counts))]
        return Graph(vertices.size, adjptr, label[nbrs[keep]])

    def bfs(self, starts: np.ndarray, level: np.ndarray) -> None:
        """Breadth-first search from all of ``starts`` at once, one whole
        frontier per step, through the vertices whose ``level`` is still
        ``-1``: writes their depth into ``level``.  Depths are distances, so
        they do not depend on the order a frontier is visited in; searches
        from starts in different components never meet."""
        level[starts] = 0
        frontier, depth = starts, 0
        ends, adjind, degrees = self.adjptr[1:], self.adjind, self._degrees
        while True:
            counts = degrees[frontier]
            at = (ends[frontier] - counts.cumsum()).repeat(counts)
            at += np.arange(at.size)
            nbrs = adjind[at]
            nbrs = nbrs[level[nbrs] == -1]
            if not nbrs.size:
                return
            # a vertex found from several frontier vertices is kept once:
            # by the last writer of its slot
            slot = np.arange(nbrs.size)
            level[nbrs] = slot
            frontier, depth = nbrs[level[nbrs] == slot], depth + 1
            level[frontier] = depth

    def forest(self, ptr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Connected components and their BFS levels, region by region.

        The vertices come in regions ``ptr[r]:ptr[r + 1]`` with no edge
        between regions (a :meth:`within` graph).  Returns, per vertex, the
        smallest vertex of its component (its root) and the distance from
        it.  Each round searches once from every region's smallest vertex
        not reached yet — the root of its component, as earlier rounds took
        whole components, and of all that search reaches; a vertex with no
        neighbour is its own component.
        """
        level = np.where(self._degrees == 0, 0, -1)
        root = np.arange(self.n)
        region = np.arange(ptr.size - 1).repeat(np.diff(ptr))
        start_of = np.empty(ptr.size - 1, dtype=np.int64)
        while True:
            open_ = np.flatnonzero(level < 0)
            if not open_.size:
                return root, level
            first = np.ones(open_.size, dtype=bool)
            first[1:] = region[open_[1:]] != region[open_[:-1]]
            starts = open_[first]
            self.bfs(starts, level)
            start_of[region[starts]] = starts
            reached = open_[level[open_] >= 0]
            root[reached] = start_of[region[reached]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, nedges={self.nedges})"
