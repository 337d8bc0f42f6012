"""Tests for the adjacency-graph substrate."""

from collections import deque

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ordering.graph import Graph
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import laplacian_1d, laplacian_2d


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestConstruction:
    def test_from_matrix_drops_diagonal(self):
        g = Graph.from_matrix(laplacian_1d(4))
        assert g.n == 4
        assert g.nedges == 3
        np.testing.assert_array_equal(g.neighbors(1), [0, 2])

    def test_from_matrix_symmetrizes(self):
        a = CSCMatrix.from_coo(3, [1], [0], [5.0])
        g = Graph.from_matrix(a)
        np.testing.assert_array_equal(g.neighbors(0), [1])
        np.testing.assert_array_equal(g.neighbors(1), [0])

    def test_from_edges_dedups_and_symmetrizes(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert g.nedges == 2
        np.testing.assert_array_equal(g.neighbors(1), [0, 2])

    def test_from_edges_drops_self_loops(self):
        g = Graph.from_edges(2, [(0, 0), (0, 1)])
        assert g.nedges == 1

    def test_degrees(self):
        g = path_graph(4)
        np.testing.assert_array_equal(g.degrees(), [1, 2, 2, 1])
        assert g.degree(1) == 2


class TestBFS:
    def test_levels_on_path(self):
        g = path_graph(5)
        np.testing.assert_array_equal(g.bfs_levels(0), [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(g.bfs_levels(2), [2, 1, 0, 1, 2])

    def test_unreachable_is_minus_one(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        lv = g.bfs_levels(0)
        assert lv[2] == -1 and lv[3] == -1

    def test_mask_restricts_traversal(self):
        g = path_graph(5)
        mask = np.array([True, True, False, True, True])
        lv = g.bfs_levels(0, mask)
        assert lv[1] == 1
        assert lv[3] == -1  # blocked by the masked-out vertex 2

    def test_masked_start_returns_all_unreached(self):
        g = path_graph(3)
        mask = np.array([False, True, True])
        lv = g.bfs_levels(0, mask)
        assert (lv == -1).all()


class TestPseudoPeripheral:
    def test_path_finds_an_end(self):
        g = path_graph(9)
        root, levels = g.pseudo_peripheral(4)
        assert root in (0, 8)
        assert levels.max() == 8

    def test_grid_eccentricity_reasonable(self):
        g = Graph.from_matrix(laplacian_2d(6))
        root, levels = g.pseudo_peripheral(17)
        # 6x6 grid diameter is 10; pseudo-peripheral must get close
        assert levels.max() >= 8


class TestComponents:
    def test_single_component(self):
        g = path_graph(4)
        comps = g.connected_components()
        assert len(comps) == 1
        assert comps[0].size == 4

    def test_multiple_components(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (3, 4)])
        comps = g.connected_components()
        sizes = sorted(c.size for c in comps)
        assert sizes == [1, 2, 3]

    def test_mask_restricts_components(self):
        g = path_graph(5)
        mask = np.array([True, True, False, True, True])
        comps = g.connected_components(mask)
        sizes = sorted(c.size for c in comps)
        assert sizes == [2, 2]


class TestSubgraph:
    def test_induced_edges(self):
        g = Graph.from_matrix(laplacian_2d(3))
        verts = np.array([0, 1, 3, 4])  # a 2x2 corner of the grid
        sub, echo = g.subgraph(verts)
        np.testing.assert_array_equal(echo, verts)
        assert sub.n == 4
        assert sub.nedges == 4  # the 2x2 square

    def test_no_external_edges(self):
        g = path_graph(5)
        sub, _ = g.subgraph(np.array([0, 2, 4]))
        assert sub.nedges == 0


# -- the array traversals against their per-vertex reference loops ----------

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def random_graphs(draw, max_n=40):
    """Sparse random graph, usually in several components with a few
    isolated vertices, plus a seeded generator for masks and subsets."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    edges = rng.integers(0, n, size=(m, 2))
    return Graph.from_edges(n, [tuple(e) for e in edges.tolist()]), rng


def queue_bfs(g, start, mask=None):
    """One vertex and one neighbour at a time, as bfs_levels used to."""
    level = np.full(g.n, -1, dtype=np.int64)
    if mask is not None and not mask[start]:
        return level
    level[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v).tolist():
            if level[w] < 0 and (mask is None or mask[w]):
                level[w] = level[v] + 1
                queue.append(w)
    return level


def loop_subgraph(g, vertices):
    """Adjacency lists of the induced subgraph, one vertex at a time."""
    local = {int(v): i for i, v in enumerate(vertices)}
    return [[local[w] for w in g.neighbors(int(v)).tolist() if w in local]
            for v in vertices]


class TestTraversalsMatchReference:
    @given(gr=random_graphs(), masked=st.booleans())
    @settings(max_examples=150, **COMMON)
    def test_bfs_levels(self, gr, masked):
        g, rng = gr
        mask = rng.random(g.n) < 0.7 if masked else None
        for start in rng.integers(0, g.n, size=3).tolist():
            np.testing.assert_array_equal(g.bfs_levels(start, mask),
                                          queue_bfs(g, start, mask))

    @given(gr=random_graphs(), masked=st.booleans())
    @settings(max_examples=100, **COMMON)
    def test_forest(self, gr, masked):
        g, rng = gr
        mask = rng.random(g.n) < 0.7 if masked else None
        comps, level = g.bfs_forest(mask)
        allowed = np.ones(g.n, dtype=bool) if mask is None else mask
        want = np.full(g.n, -1, dtype=np.int64)
        seen = ~allowed
        for comp in comps:
            # components come in order of their smallest vertex, sorted
            assert comp[0] == np.flatnonzero(~seen)[0]
            lv = queue_bfs(g, int(comp[0]), mask)
            np.testing.assert_array_equal(comp, np.flatnonzero(lv >= 0))
            want[comp] = lv[comp]
            seen[comp] = True
        assert seen.all()
        np.testing.assert_array_equal(level, want)
        got = g.connected_components(mask)
        assert len(got) == len(comps)
        for c1, c2 in zip(got, comps):
            np.testing.assert_array_equal(c1, c2)

    @given(gr=random_graphs(), ordered=st.booleans())
    @settings(max_examples=150, **COMMON)
    def test_subgraph(self, gr, ordered):
        g, rng = gr
        size = int(rng.integers(0, g.n + 1))
        verts = rng.choice(g.n, size=size, replace=False)
        if ordered:
            verts.sort()
        sub, echo = g.subgraph(verts)
        np.testing.assert_array_equal(echo, verts)
        assert sub.n == size
        want = loop_subgraph(g, verts)
        assert [sub.neighbors(i).tolist() for i in range(size)] == want
        np.testing.assert_array_equal(sub.degrees(),
                                      [len(nb) for nb in want])

    @given(gr=random_graphs())
    @settings(max_examples=100, **COMMON)
    def test_touches(self, gr):
        g, rng = gr
        member = rng.random(g.n) < 0.4
        verts = rng.choice(g.n, size=int(rng.integers(0, g.n + 1)),
                           replace=False)
        want = [bool(member[g.neighbors(int(v))].any()) for v in verts]
        assert g.touches(verts, member).tolist() == want

    def test_pseudo_peripheral_takes_outside_degrees(self):
        # path 0-1-2-3-4 seen as a subgraph: from the middle both ends are
        # equally deep, and the degree tie-break picks the end whose
        # *outside* degree is lower
        g = path_graph(5)
        root, _ = g.pseudo_peripheral(2, degrees=np.array([9, 2, 2, 2, 1]))
        assert root == 4
        root, _ = g.pseudo_peripheral(2)
        assert root == 0

    def test_from_matrix_trusts_symmetric_flag(self):
        a = laplacian_2d(4)
        g1, g2 = Graph.from_matrix(a), Graph.from_matrix(a, symmetric=True)
        np.testing.assert_array_equal(g1.adjptr, g2.adjptr)
        np.testing.assert_array_equal(g1.adjind, g2.adjind)
