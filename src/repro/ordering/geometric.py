"""Geometric nested dissection (coordinate-plane separators).

The paper's introduction contrasts solvers that "require knowledge of the
underlying geometry" with the purely algebraic approach it follows.  When
node coordinates *are* available — every generator in
:mod:`repro.sparse.generators` comes from a regular grid — geometric
dissection finds the canonical plane separators directly: split the region
at the median coordinate along its widest axis, and take as separator the
boundary layer of one side (the set of vertices adjacent to the other
side).  On grids this is exactly the optimal axis-aligned plane, typically
thinner and flatter than the level-set separator, which lowers both fill
and the low-rank blocks' ranks.

Select with ``SolverConfig(ordering="geometric")`` and pass node
coordinates to the solver (``Solver(a, cfg, coords=...)``), or call
:func:`geometric_nested_dissection` directly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.ordering.graph import Graph
from repro.ordering.nested_dissection import (
    NDResult,
    Splitter,
    nested_dissection,
)
from repro.ordering.separator import SplitResult


def grid_coords(nx: int, ny: Optional[int] = None, nz: Optional[int] = None,
                dofs_per_node: int = 1) -> np.ndarray:
    """Node coordinates matching the generators' lexicographic ordering.

    Returns an ``(n, 3)`` float array; with ``dofs_per_node > 1`` (e.g. the
    elasticity generator's 3 displacement components) each node's
    coordinate is repeated for its dofs, keeping them together under
    geometric splits.
    """
    ny = nx if ny is None else ny
    nz = 1 if nz is None else nz
    k, j, i = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx),
                          indexing="ij")
    coords = np.column_stack([i.ravel(), j.ravel(), k.ravel()]).astype(float)
    if dofs_per_node > 1:
        coords = np.repeat(coords, dofs_per_node, axis=0)
    return coords


def make_plane_splitter(coords: np.ndarray) -> Splitter:
    """Build a ``splitter(g, regions)`` closure over node coordinates: one
    plane split per region."""
    coords = np.asarray(coords, dtype=np.float64)

    def split(g: Graph, vertices: np.ndarray,
              member: np.ndarray) -> SplitResult:
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
        # separator: vertices of side b adjacent to side a (one grid plane);
        # side a lies inside the region, so "touches" needs no subgraph
        side_a, side_b = vertices[below], vertices[~below]
        member[side_a] = True
        in_sep = g.touches(side_b, member)
        member[side_a] = False
        return side_a, side_b[~in_sep], side_b[in_sep]

    def splitter(g: Graph, regions: Sequence[np.ndarray]) -> List[SplitResult]:
        member = np.zeros(g.n, dtype=bool)
        return [split(g, verts, member) for verts in regions]

    return splitter


def geometric_nested_dissection(g: Graph, coords: np.ndarray,
                                cmin: int = 15,
                                max_levels: Optional[int] = None) -> NDResult:
    """Nested dissection driven by coordinate-plane separators.

    ``coords`` has one row per graph vertex (2 or 3 columns).  Everything
    downstream (partition layout, separator-last numbering, disconnected
    regions) reuses the algebraic machinery — only the split rule changes.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[0] != g.n:
        raise ValueError(
            f"coords has {coords.shape[0]} rows for a graph of {g.n} "
            "vertices")
    return nested_dissection(g, cmin=cmin, max_levels=max_levels,
                             splitter=make_plane_splitter(coords))
