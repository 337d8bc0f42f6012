"""Undirected adjacency graphs backed by CSR index arrays.

The ordering algorithms (nested dissection, minimum degree) operate on the
adjacency graph of the matrix: vertices are unknowns, edges connect the
symmetric nonzero pattern, self-loops (diagonal entries) are dropped.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.sparse.csc import CSCMatrix


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

    def subgraph(self, vertices: np.ndarray) -> Tuple["Graph", np.ndarray]:
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
        return Graph(vertices.size, adjptr, order[pos[keep]]), vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, nedges={self.nedges})"
