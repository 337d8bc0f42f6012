"""Batched nested dissection against the per-region recursion it replaced.

``tests/nd_reference.py`` keeps that recursion verbatim (the region stack, the
scalar level-set separator with its sequential minimalization, the BFS
order inside each part); here the permutation and partition list of the
batched dissection must equal it bit for bit, on graphs built to reach every
branch: disjoint unions, isolated vertices, paths, cliques, 2D/3D grids with
holes, relabelled at random, empty and one-vertex graphs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ordering.geometric import geometric_nested_dissection
from repro.ordering.graph import Graph
from repro.ordering.nested_dissection import nested_dissection
from repro.ordering.separator import find_vertex_separator, vertex_separators
from repro.sparse.generators import elasticity_3d, laplacian_2d, laplacian_3d
from tests import nd_reference as ref

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

PIECES = ("path", "clique", "grid2", "grid3", "random", "isolated")


def _grid(rng, dims):
    """Edges of a grid with about a sixth of its nodes cut out."""
    shape = tuple(int(rng.integers(2, d + 1)) for d in dims)
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    keep = rng.random(idx.size) >= 1 / 6
    edges = []
    for axis in range(len(shape)):
        lo = np.take(idx, np.arange(shape[axis] - 1), axis=axis).ravel()
        hi = np.take(idx, np.arange(1, shape[axis]), axis=axis).ravel()
        edges += [(u, v) for u, v in zip(lo, hi) if keep[u] and keep[v]]
    new = np.cumsum(keep) - 1
    return int(keep.sum()), [(new[u], new[v]) for u, v in edges]


def _piece(kind, rng):
    if kind == "isolated":
        return 1, []
    if kind == "path":
        m = int(rng.integers(1, 30))
        return m, [(i, i + 1) for i in range(m - 1)]
    if kind == "clique":
        m = int(rng.integers(2, 9))
        return m, [(i, j) for i in range(m) for j in range(i + 1, m)]
    if kind == "grid2":
        return _grid(rng, (8, 8))
    if kind == "grid3":
        return _grid(rng, (4, 4, 4))
    m = int(rng.integers(1, 30))
    return m, [tuple(e) for e in rng.integers(0, m, size=(2 * m, 2))]


@st.composite
def graphs(draw):
    """A disjoint union of up to four pieces, relabelled at random or not,
    and a seeded generator."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n, edges = 0, []
    for kind in draw(st.lists(st.sampled_from(PIECES), max_size=4)):
        m, e = _piece(kind, rng)
        edges += [(u + n, v + n) for u, v in e]
        n += m
    if draw(st.booleans()):
        relabel = rng.permutation(n)
        edges = [(relabel[u], relabel[v]) for u, v in edges]
    return Graph.from_edges(n, edges), rng


def assert_same(got, want):
    np.testing.assert_array_equal(got.perm, want.perm)
    assert [vars(p) for p in got.partitions] == \
        [vars(p) for p in want.partitions]


class TestBatchedEqualsReference:
    @given(gr=graphs(), cmin=st.integers(1, 16),
           max_levels=st.sampled_from([None, 0, 1, 2, 3]))
    @settings(max_examples=150, **COMMON)
    def test_level_set(self, gr, cmin, max_levels):
        g, _ = gr
        assert_same(nested_dissection(g, cmin=cmin, max_levels=max_levels),
                    ref.nested_dissection(g, cmin=cmin,
                                          max_levels=max_levels))

    @given(gr=graphs(), cmin=st.integers(1, 16),
           max_levels=st.sampled_from([None, 0, 1, 2, 3]))
    @settings(max_examples=60, **COMMON)
    def test_plane(self, gr, cmin, max_levels):
        # coarse coordinates: co-located points and ties at the median
        g, rng = gr
        coords = rng.integers(0, 4, size=(g.n, 3)).astype(float)
        assert_same(
            geometric_nested_dissection(g, coords, cmin=cmin,
                                        max_levels=max_levels),
            ref.geometric_nested_dissection(g, coords, cmin=cmin,
                                            max_levels=max_levels))

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny(self, n):
        g = Graph.from_edges(n, [])
        for cmin in (1, 15):
            assert_same(nested_dissection(g, cmin=cmin),
                        ref.nested_dissection(g, cmin=cmin))

    @pytest.mark.parametrize("cmin", [2, 6, 15])
    def test_meshes(self, cmin):
        for a in (laplacian_2d(40), elasticity_3d(4)):
            g = Graph.from_matrix(a)
            assert_same(nested_dissection(g, cmin=cmin),
                        ref.nested_dissection(g, cmin=cmin))


class TestBatchedSeparator:
    @given(gr=graphs())
    @settings(max_examples=100, **COMMON)
    def test_each_region_as_alone_and_as_reference(self, gr):
        """All components of a graph cut in one call: each split equals the
        split of that region alone and the scalar separator's."""
        g, _ = gr
        comps = ref.RefGraph.of(g).connected_components()
        together = vertex_separators(g, comps)
        assert len(together) == len(comps)
        for verts, got in zip(comps, together):
            want = ref.find_vertex_separator(ref.RefGraph.of(g), verts)
            for part, alone, scalar in zip(got, find_vertex_separator(g, verts),
                                           want):
                np.testing.assert_array_equal(part, alone)
                np.testing.assert_array_equal(part, scalar)

    @given(gr=graphs())
    @settings(max_examples=100, **COMMON)
    def test_disconnected_sets_come_back_unsplit(self, gr):
        g, rng = gr
        if g.n < 2:
            return
        verts = np.sort(rng.choice(g.n, size=int(rng.integers(2, g.n + 1)),
                                   replace=False))
        mask = np.isin(np.arange(g.n), verts)
        if len(ref.RefGraph.of(g).connected_components(mask)) == 1:
            return
        pa, pb, sep = find_vertex_separator(g, verts)
        np.testing.assert_array_equal(pa, verts)
        assert pb.size == 0 and sep.size == 0


class TestOneSubgraphPerDepth:
    def test_lap3d_builds_one_subgraph_per_depth(self, monkeypatch):
        """A depth's component search and its separators share one
        ``Graph.within`` subgraph; one more orders the parts."""
        g = Graph.from_matrix(laplacian_3d(12))
        want = nested_dissection(g)
        sizes = []
        within = Graph.within

        def counted(self, vertices, region):
            sizes.append(len(vertices))
            return within(self, vertices, region)

        monkeypatch.setattr(Graph, "within", counted)
        got = nested_dissection(g)
        assert_same(got, want)
        depths = max(p.level for p in got.partitions if p.is_separator) + 1
        assert len(sizes) == depths + 1
        # every depth's regions lie inside the previous depth's; the last
        # subgraph holds every vertex, part by part
        assert sizes[0] == g.n and sizes[-1] == g.n
        assert all(a > b for a, b in zip(sizes[:-2], sizes[1:-1]))
