"""Tests for the adjacency-graph substrate."""

from collections import deque

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ordering.graph import Graph
from repro.ordering.separator import _pseudo_peripheral
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


def levels(g, starts):
    """Multi-source BFS levels of ``g`` from ``starts``."""
    level = np.full(g.n, -1, dtype=np.int64)
    g.bfs(np.asarray(starts, dtype=np.int64), level)
    return level


def components(g, region=None):
    """Connected components of ``g`` with the edges between regions cut,
    as lists of vertices."""
    region = np.zeros(g.n, dtype=np.int64) if region is None else region
    verts = np.argsort(region, kind="stable")
    ptr = np.r_[0, np.cumsum(np.bincount(region))]
    root, _ = g.within(verts, region[verts]).forest(ptr)
    return [verts[root == r].tolist() for r in np.unique(root)]


def peripheral(g, verts, degrees=None):
    """Root and levels of the pseudo-peripheral search started from
    ``verts[0]`` inside ``verts``."""
    verts = np.asarray(verts, dtype=np.int64)
    degrees = g.degrees()[verts] if degrees is None else degrees
    region = np.zeros(verts.size, dtype=np.int64)
    level, _, connected = _pseudo_peripheral(
        g.within(verts, region), np.array([0, verts.size]), region, degrees)
    assert connected.all()
    return int(verts[level == 0][0]), level


class TestBFS:
    def test_levels_on_path(self):
        g = path_graph(5)
        np.testing.assert_array_equal(levels(g, [0]), [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(levels(g, [2]), [2, 1, 0, 1, 2])
        np.testing.assert_array_equal(levels(g, [0, 4]), [0, 1, 2, 1, 0])

    def test_unreachable_is_minus_one(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        lv = levels(g, [0])
        assert lv[2] == -1 and lv[3] == -1

    def test_mask_restricts_traversal(self):
        # vertex 2 in a region of its own cuts the path
        g = path_graph(5).within(np.arange(5), np.array([0, 0, 1, 0, 0]))
        lv = levels(g, [0])
        assert lv[1] == 1
        assert lv[3] == -1  # blocked by vertex 2's region

    def test_masked_start_returns_all_unreached(self):
        g = path_graph(3).within(np.arange(3), np.array([1, 0, 0]))
        np.testing.assert_array_equal(levels(g, [0]), [0, -1, -1])


class TestPseudoPeripheral:
    def test_path_finds_an_end(self):
        g = path_graph(9)
        root, lv = peripheral(g, [4, 0, 1, 2, 3, 5, 6, 7, 8])
        assert root in (0, 8)
        assert lv.max() == 8

    def test_grid_eccentricity_reasonable(self):
        g = Graph.from_matrix(laplacian_2d(6))
        verts = np.r_[17, np.delete(np.arange(36), 17)]
        _, lv = peripheral(g, verts)
        # 6x6 grid diameter is 10; pseudo-peripheral must get close
        assert lv.max() >= 8


class TestComponents:
    def test_single_component(self):
        assert components(path_graph(4)) == [[0, 1, 2, 3]]

    def test_multiple_components(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (3, 4)])
        assert components(g) == [[0, 1], [2, 3, 4], [5]]

    def test_mask_restricts_components(self):
        region = np.array([0, 0, 1, 0, 0])
        assert components(path_graph(5), region) == [[0, 1], [3, 4], [2]]


class TestSubgraph:
    def test_induced_edges(self):
        g = Graph.from_matrix(laplacian_2d(3))
        verts = np.array([0, 1, 3, 4])  # a 2x2 corner of the grid
        sub = g.within(verts, np.zeros(4, dtype=np.int64))
        assert sub.n == 4
        assert sub.nedges == 4  # the 2x2 square

    def test_no_external_edges(self):
        g = path_graph(5)
        sub = g.within(np.array([0, 2, 4]), np.zeros(3, dtype=np.int64))
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


def loop_subgraph(g, vertices, region):
    """Adjacency lists of the regions' induced subgraphs, one vertex at a
    time."""
    local = {int(v): i for i, v in enumerate(vertices)}
    return [[local[w] for w in g.neighbors(int(v)).tolist()
             if w in local and region[local[w]] == region[i]]
            for i, v in enumerate(vertices)]


class TestTraversalsMatchReference:
    @given(gr=random_graphs(), masked=st.booleans())
    @settings(max_examples=150, **COMMON)
    def test_bfs_levels(self, gr, masked):
        """A search from several starts at once: every vertex at its
        distance from the nearest start of its region."""
        g, rng = gr
        label = rng.integers(0, 3 if masked else 1, size=g.n)
        h = g.within(np.arange(g.n), label)
        starts = np.unique(rng.integers(0, g.n, size=3))
        want = np.full(g.n, np.iinfo(np.int64).max)
        for s in starts.tolist():
            lv = queue_bfs(g, s, label == label[s])
            want = np.where(lv >= 0, np.minimum(want, lv), want)
        want[want == np.iinfo(np.int64).max] = -1
        np.testing.assert_array_equal(levels(h, starts), want)

    @given(gr=random_graphs(), masked=st.booleans())
    @settings(max_examples=100, **COMMON)
    def test_forest(self, gr, masked):
        g, rng = gr
        label = rng.integers(0, 3 if masked else 1, size=g.n)
        verts = np.argsort(label, kind="stable")
        ptr = np.r_[0, np.cumsum(np.bincount(label, minlength=3))]
        root, level = g.within(verts, label[verts]).forest(ptr)
        root, want = verts[root], np.full(g.n, -1, dtype=np.int64)
        want_root = np.full(g.n, -1, dtype=np.int64)
        for v in range(g.n):
            if want[v] < 0:
                # v is the smallest vertex of its component
                lv = queue_bfs(g, v, label == label[v])
                want[lv >= 0] = lv[lv >= 0]
                want_root[lv >= 0] = v
        np.testing.assert_array_equal(level, want[verts])
        np.testing.assert_array_equal(root, want_root[verts])

    @given(gr=random_graphs(), ordered=st.booleans())
    @settings(max_examples=150, **COMMON)
    def test_subgraph(self, gr, ordered):
        g, rng = gr
        size = int(rng.integers(0, g.n + 1))
        verts = rng.choice(g.n, size=size, replace=False)
        if ordered:
            verts.sort()
        region = rng.integers(0, 2, size=size)
        sub = g.within(verts, region)
        assert sub.n == size
        want = loop_subgraph(g, verts, region)
        assert [sorted(sub.neighbors(i).tolist()) for i in range(size)] == \
            [sorted(nb) for nb in want]
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
        verts = [2, 0, 1, 3, 4]
        root, _ = peripheral(g, verts, degrees=np.array([2, 9, 2, 2, 1]))
        assert root == 4
        root, _ = peripheral(g, verts)
        assert root == 0

    def test_from_matrix_trusts_symmetric_flag(self):
        a = laplacian_2d(4)
        g1, g2 = Graph.from_matrix(a), Graph.from_matrix(a, symmetric=True)
        np.testing.assert_array_equal(g1.adjptr, g2.adjptr)
        np.testing.assert_array_equal(g1.adjind, g2.adjind)
