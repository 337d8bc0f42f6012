"""Tests for vertex separators."""

import numpy as np

from repro.ordering.graph import Graph
from repro.ordering.separator import (
    check_separator,
    find_vertex_separator,
    vertex_separators,
)
from repro.sparse.generators import laplacian_2d, laplacian_3d


def assert_valid_split(g, verts, pa, pb, sep):
    all_v = np.sort(np.concatenate([pa, pb, sep]))
    np.testing.assert_array_equal(all_v, np.sort(verts))
    assert check_separator(g, pa, pb, sep)


class TestGrid:
    def test_2d_grid_separator_is_thin(self):
        g = Graph.from_matrix(laplacian_2d(10))
        verts = np.arange(g.n)
        pa, pb, sep = find_vertex_separator(g, verts)
        assert_valid_split(g, verts, pa, pb, sep)
        # a 10x10 grid has a width-10 separating line
        assert 0 < sep.size <= 20
        assert min(pa.size, pb.size) >= g.n // 5

    def test_3d_grid_separator_is_a_plane(self):
        g = Graph.from_matrix(laplacian_3d(6))
        verts = np.arange(g.n)
        pa, pb, sep = find_vertex_separator(g, verts)
        assert_valid_split(g, verts, pa, pb, sep)
        assert sep.size <= 2 * 36  # within 2x of a 6x6 plane
        assert min(pa.size, pb.size) >= g.n // 5

    def test_subset_split(self):
        g = Graph.from_matrix(laplacian_2d(8))
        verts = np.arange(32)  # half the grid
        pa, pb, sep = find_vertex_separator(g, verts)
        assert_valid_split(g, verts, pa, pb, sep)
        assert sep.size <= 10


class TestPath:
    def test_path_separator_is_single_vertex(self):
        g = Graph.from_edges(11, [(i, i + 1) for i in range(10)])
        pa, pb, sep = find_vertex_separator(g, np.arange(11))
        assert_valid_split(g, np.arange(11), pa, pb, sep)
        assert sep.size == 1
        assert abs(pa.size - pb.size) <= 1


class TestDegenerate:
    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        pa, pb, sep = find_vertex_separator(g, np.array([0]))
        assert pa.size == 1 and pb.size == 0 and sep.size == 0

    def test_two_vertices(self):
        g = Graph.from_edges(2, [(0, 1)])
        pa, pb, sep = find_vertex_separator(g, np.arange(2))
        total = pa.size + pb.size + sep.size
        assert total == 2
        assert check_separator(g, pa, pb, sep)

    def test_complete_graph(self):
        n = 6
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(n, edges)
        pa, pb, sep = find_vertex_separator(g, np.arange(n))
        # K6 has no useful separator; whatever comes back must be a
        # legitimate split
        assert pa.size + pb.size + sep.size == n
        assert check_separator(g, pa, pb, sep)

    def test_star_graph(self):
        g = Graph.from_edges(7, [(0, i) for i in range(1, 7)])
        pa, pb, sep = find_vertex_separator(g, np.arange(7))
        assert_valid_split(g, np.arange(7), pa, pb, sep)
        # the centre is the only separator
        if sep.size:
            assert 0 in sep


class TestCheckSeparator:
    def test_detects_violation(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert not check_separator(g, np.array([0]), np.array([2]),
                                   np.array([1]))
        g2 = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert check_separator(g2, np.array([0]), np.array([2]),
                               np.array([1]))


class TestRegionLocal:
    def test_first_vertex_isolated_means_no_split(self):
        # the set is not connected as required; nested dissection never
        # hands one over (it splits components first) and treats "no
        # separator" as a leaf
        g = Graph.from_edges(4, [(1, 2), (2, 3)])
        verts = np.arange(4)
        pa, pb, sep = find_vertex_separator(g, verts)
        np.testing.assert_array_equal(pa, verts)
        assert pb.size == 0 and sep.size == 0

    def test_disconnected_set_is_not_split(self):
        # the first vertex has neighbours in the set, but 10 and 11 cannot
        # be reached from it
        g = Graph.from_edges(50, [(i, i + 1) for i in range(49)])
        verts = np.array([1, 2, 3, 10, 11])
        pa, pb, sep = find_vertex_separator(g, verts)
        np.testing.assert_array_equal(pa, verts)
        assert pb.size == 0 and sep.size == 0

    def test_same_split_alone_and_batched(self):
        g = Graph.from_matrix(laplacian_3d(5))
        verts = np.flatnonzero(np.arange(g.n) % 7 != 3)
        alone = find_vertex_separator(g, verts)
        assert_valid_split(g, verts, *alone)
        # beside other regions, including an unsplittable one
        others = [np.array([3]), np.flatnonzero(np.arange(g.n) % 7 == 3)]
        batched = vertex_separators(g, [others[0], verts, others[1]])
        for got, want in zip(batched[1], alone):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(batched[0][0], others[0])
