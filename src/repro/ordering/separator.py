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
   moved into ``B``.

Every step runs for many regions at once (:func:`level_set_sides`, which
nested dissection calls once per dissection depth on the subgraph its
component search has built; :func:`vertex_separators` builds that subgraph
itself): the regions sit side by side in one :meth:`Graph.within` graph,
each search is one multi-source BFS, and each per-region choice is a
first-minimum or first-maximum taken with one stable sort.

This is a from-scratch replacement for Scotch's separator engine; on the
mesh-like graphs of the paper's evaluation it produces separators within the
``O(n^{2/3})`` bound of the separator theorem the paper leans on (§5).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.ordering.graph import Graph

SplitResult = Tuple[np.ndarray, np.ndarray, np.ndarray]

_EMPTY = np.empty(0, dtype=np.int64)


def find_vertex_separator(g: Graph, vertices: np.ndarray) -> SplitResult:
    """Split the connected vertex set ``vertices`` of ``g``.

    Returns ``(part_a, part_b, sep)``: disjoint global vertex arrays covering
    ``vertices``, with no edge joining ``part_a`` and ``part_b``.  A set of
    at most one vertex, or one that is not connected, comes back unsplit as
    ``(vertices, [], [])``; ``sep`` may also be empty when the set is
    degenerate (callers must handle that).
    """
    return vertex_separators(g, [vertices])[0]


def vertex_separators(g: Graph,
                      regions: Sequence[np.ndarray]) -> List[SplitResult]:
    """:func:`find_vertex_separator` for many disjoint sorted vertex sets
    at once: one ``(part_a, part_b, sep)`` per region, each part sorted."""
    regions = [np.asarray(r, dtype=np.int64) for r in regions]
    out = [(r, _EMPTY, _EMPTY) for r in regions]
    todo = [i for i, r in enumerate(regions) if r.size > 1]
    if not todo:
        return out
    verts = np.concatenate([regions[i] for i in todo])
    ptr = np.append(0, np.cumsum([regions[i].size for i in todo]))
    region = np.arange(len(todo)).repeat(np.diff(ptr))
    h = g.within(verts, region)
    level = np.full(h.n, -1, dtype=np.int64)
    h.bfs(ptr[:-1], level)
    connected = np.minimum.reduceat(level, ptr[:-1]) >= 0
    sel = np.flatnonzero(connected[region])
    sizes = np.diff(ptr)[connected]
    # one stable sort lays out every region's A, B and separator in turn,
    # each in vertex order
    key = 3 * np.arange(sizes.size).repeat(sizes) + level_set_sides(
        g, h, verts, sel, sizes, level[sel])
    laid = verts[sel[np.argsort(key, kind="stable")]]
    at = np.cumsum(np.append(0, np.bincount(key, minlength=3 * sizes.size)))
    for i, (lo, a, b, hi) in zip(np.array(todo)[connected].tolist(),
                                 zip(at[:-1:3], at[1::3], at[2::3], at[3::3])):
        out[i] = (laid[lo:a], laid[a:b], laid[b:hi])
    return out


def level_set_sides(g: Graph, h: Graph, verts: np.ndarray, sel: np.ndarray,
                    sizes: np.ndarray, level: np.ndarray) -> np.ndarray:
    """The level-set split of connected vertex sets of ``g``, each a
    component of its subgraph ``h`` (local vertex ``i`` is ``verts[i]``):
    the side of every entry of ``sel`` (0 = A, 1 = B, 2 = separator).

    ``sel`` lists the sets' local vertices, set after set (``sizes``), each
    ascending; ``level`` holds every entry's distance from the first vertex
    of its set — the first search of :func:`_pseudo_peripheral`, which
    nested dissection's component search has already run.
    """
    if not sizes.size:
        return np.empty(0, dtype=np.int64)
    region = np.arange(sizes.size).repeat(sizes)
    level, ecc = _pseudo_peripheral(h, sel, region, level,
                                    g.degrees()[verts[sel]])
    return _sides(h, sel, level, _best_levels(level, ecc, region,
                                              sizes)[region])


def _first_per_region(entries: np.ndarray, region: np.ndarray) -> np.ndarray:
    """The first of ``entries`` (sorted by region) in each region present."""
    first = np.ones(entries.size, dtype=bool)
    first[1:] = region[entries[1:]] != region[entries[:-1]]
    return entries[first]


def _pseudo_peripheral(h: Graph, sel: np.ndarray, region: np.ndarray,
                       level: np.ndarray, degrees: np.ndarray,
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """George–Liu pseudo-peripheral level structures of the connected sets
    ``sel`` of ``h`` (:func:`level_set_sides`): from the search out of each
    set's first vertex (``level``), restart from the minimum-``degrees``
    vertex of the deepest level (ties: the smallest) while the eccentricity
    grows, at most 10 times.  Returns the levels and the eccentricity of
    each set.
    """
    starts = np.flatnonzero(np.diff(region, prepend=-1))
    ecc = np.maximum.reduceat(level, starts)
    growing = np.ones(ecc.size, dtype=bool)
    for _ in range(10):
        last = np.flatnonzero(growing[region] & (level == ecc[region]))
        if not last.size:
            break
        # entries are in (set, vertex) order, and the sort is stable
        last = last[np.lexsort((degrees[last], region[last]))]
        new = np.full(h.n, -1, dtype=np.int64)
        h.bfs(sel[_first_per_region(last, region)], new)
        new = new[sel]
        new_ecc = np.maximum.reduceat(new, starts)
        growing = new_ecc > ecc
        moved = growing[region]
        level[moved] = new[moved]
        ecc[growing] = new_ecc[growing]
    return level, ecc


def _best_levels(level: np.ndarray, ecc: np.ndarray, region: np.ndarray,
                 sizes: np.ndarray) -> np.ndarray:
    """The level each region is cut at.

    Candidate level l separates A = levels < l from B = levels > l.  Among
    *balanced* candidates (smaller side holds at least a quarter of the
    non-separator vertices) pick the thinnest level; if no level is
    balanced (elongated or degenerate graphs) fall back to the level
    maximizing the smaller side, and to the middle level if no level has
    vertices on both sides.  Ties go to the lowest level.
    """
    lptr = np.zeros(ecc.size + 1, dtype=np.int64)
    np.cumsum(ecc + 1, out=lptr[1:])
    counts = np.bincount(lptr[region] + level, minlength=lptr[-1])
    slot_region = np.arange(ecc.size).repeat(ecc + 1)
    slot_level = np.arange(lptr[-1]) - lptr[slot_region]
    upto = np.zeros(lptr[-1] + 1, dtype=np.int64)
    np.cumsum(counts, out=upto[1:])
    na = upto[:-1] - upto[lptr[slot_region]]  # vertices below each level
    nv = sizes[slot_region]
    nb = nv - na - counts
    minside = np.minimum(na, nb)
    valid = np.flatnonzero((na > 0) & (nb > 0))
    balanced = valid[minside[valid] >= 0.25 * (na + nb)[valid]]
    score = counts[balanced] * (1.0 + np.abs(na - nb)[balanced] / nv[balanced])

    best = ecc // 2
    for slots, key in ((valid, -minside[valid]), (balanced, score)):
        first = _first_per_region(
            slots[np.lexsort((key, slot_region[slots]))], slot_region)
        best[slot_region[first]] = slot_level[first]
    return best


def _sides(h: Graph, sel: np.ndarray, level: np.ndarray,
           cut: np.ndarray) -> np.ndarray:
    """Side of every entry of ``sel``, cutting at level ``cut``: 0 = A,
    1 = B, 2 = separator.

    Of the cut level only the vertices adjacent to B stay in the separator,
    the others belong to A.  Minimalization is then one pass: every kept
    vertex touches B and nothing ever leaves B, so none can move to A, A is
    final, and a kept vertex without an A-neighbour moves to B whatever
    order the vertices are visited in.
    """
    a_mask = np.zeros(h.n, dtype=bool)
    b_mask = np.zeros(h.n, dtype=bool)
    a_mask[sel] = level < cut
    b_mask[sel] = level > cut
    cand = sel[level == cut]
    keep = h.touches(cand, b_mask)
    a_mask[cand[~keep]] = True
    sep = cand[keep]
    b_mask[sep[~h.touches(sep, a_mask)]] = True
    return np.where(a_mask[sel], 0, np.where(b_mask[sel], 1, 2))


def check_separator(g: Graph, part_a: np.ndarray, part_b: np.ndarray,
                    sep: np.ndarray) -> bool:
    """Validation helper (used by tests): no edge between the two parts."""
    a_mask = np.zeros(g.n, dtype=bool)
    a_mask[np.asarray(part_a, dtype=np.int64)] = True
    return not g.touches(part_b, a_mask).any()
