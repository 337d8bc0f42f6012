"""Minimum-degree ordering.

A classic quotient-graph minimum-degree implementation, used as the
alternative global ordering (``config.ordering = "amd"``) and exercised by
tests.  Nested dissection remains the default — the paper's BLR clustering
needs the ND separators — but minimum degree is what Scotch applies inside
small non-separated subgraphs, and downstream users expect it from a direct
solver.

The implementation keeps, for every uneliminated vertex, its set of adjacent
*uneliminated* vertices plus the set of adjacent *elements* (eliminated
supervariables).  External degree is recomputed lazily; indistinguishable
vertices are not merged (this is plain MD rather than AMD proper, which is
fine at the problem sizes where this ordering is selected).
"""

from __future__ import annotations

import heapq
from typing import List, Set

import numpy as np

from repro.ordering.graph import Graph


def minimum_degree(g: Graph) -> np.ndarray:
    """Return a new-to-old minimum-degree permutation of ``g``.

    Ties are broken by vertex index so the ordering is deterministic.
    """
    n = g.n
    # adjacency as python sets: vertex -> neighbouring vertices (uneliminated)
    adj: List[Set[int]] = [set(int(w) for w in g.neighbors(v)) for v in range(n)]
    # vertex -> set of adjacent elements (eliminated pivots)
    elems: List[Set[int]] = [set() for _ in range(n)]
    # element -> its boundary (uneliminated vertices it reaches)
    boundary: List[Set[int]] = [set() for _ in range(n)]
    eliminated = np.zeros(n, dtype=bool)

    def reach(v: int) -> Set[int]:
        """The vertices adjacent to ``v`` directly or through an element."""
        out = set(adj[v]).union(*(boundary[e] for e in elems[v]))
        out.discard(v)
        return out

    heap = [(len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)

    perm = np.empty(n, dtype=np.int64)
    for k in range(n):
        # pop until we find a live entry whose key is current
        while True:
            d, v = heapq.heappop(heap)
            if eliminated[v]:
                continue
            cur = len(reach(v))
            if cur > d:
                heapq.heappush(heap, (cur, v))
                continue
            break
        perm[k] = v
        eliminated[v] = True

        # reach set of v = its future element's boundary
        boundary[v] = {w for w in reach(v) if not eliminated[w]}
        absorbed = set(elems[v])
        for w in boundary[v]:
            adj[w].discard(v)
            # absorb v's elements into the new element v
            elems[w] -= absorbed
            elems[w].add(v)
            # prune direct adjacency covered by the new element
            adj[w] -= boundary[v]
            heapq.heappush(heap, (len(reach(w)), w))
        # free absorbed element boundaries
        for e in absorbed:
            boundary[e] = set()
        adj[v] = set()
        elems[v] = set()
    return perm
