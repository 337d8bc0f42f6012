"""Vertex separators via level-set bisection.

Nested dissection needs, at every recursion step, a *vertex separator*: a set
``S`` whose removal splits the graph into parts ``A`` and ``B`` with no edge
between them.  We use the classic level-structure heuristic (the approach of
George's original nested dissection, also the fallback strategy inside
Scotch):

1. find a pseudo-peripheral root and its BFS level structure;
2. scan candidate levels, scoring ``|S| * (1 + imbalance)``, where the
   separator candidate at level ``l`` is the set of level-``l`` vertices
   adjacent to level ``l+1``;
3. minimalize the winner: a separator vertex with no neighbour in ``A`` is
   moved into ``B`` and vice-versa.

This is a from-scratch replacement for Scotch's separator engine; on the
mesh-like graphs of the paper's evaluation it produces separators within the
``O(n^{2/3})`` bound of the separator theorem the paper leans on (§5).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ordering.graph import Graph


def find_vertex_separator(g: Graph, vertices: np.ndarray,
                          sub: Optional[Graph] = None,
                          balance_weight: float = 1.0,
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the connected vertex set ``vertices`` of ``g``.

    Parameters
    ----------
    g:
        The *global* graph.
    vertices:
        Global indices of a connected subset to split.
    sub:
        ``g.subgraph(vertices)[0]`` when the caller has extracted it already
        (nested dissection has); all the work happens on it, in local
        indices and arrays of the subset's size.
    balance_weight:
        Weight of the imbalance penalty in the level score.

    Returns
    -------
    (part_a, part_b, sep):
        Disjoint global vertex arrays covering ``vertices``; no edge joins
        ``part_a`` and ``part_b``.  ``sep`` may be empty when the set is
        small or degenerate (callers must handle that).
    """
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


def check_separator(g: Graph, part_a: np.ndarray, part_b: np.ndarray,
                    sep: np.ndarray) -> bool:
    """Validation helper (used by tests): no edge between the two parts."""
    a_mask = np.zeros(g.n, dtype=bool)
    a_mask[np.asarray(part_a, dtype=np.int64)] = True
    return not g.touches(part_b, a_mask).any()
