"""Tests for geometric nested dissection."""

import numpy as np
import pytest

from repro.core.solver import Solver
from repro.ordering.geometric import (
    geometric_nested_dissection,
    grid_coords,
    make_plane_splitter,
)
from repro.ordering.graph import Graph
from repro.ordering.separator import check_separator
from repro.sparse.generators import elasticity_3d, laplacian_2d, laplacian_3d
from repro.sparse.permute import is_permutation
from tests.conftest import tiny_blr_config


class TestGridCoords:
    def test_lexicographic_order_matches_generators(self):
        c = grid_coords(3, 2, 2)
        assert c.shape == (12, 3)
        np.testing.assert_array_equal(c[0], [0, 0, 0])
        np.testing.assert_array_equal(c[1], [1, 0, 0])  # x fastest
        np.testing.assert_array_equal(c[3], [0, 1, 0])
        np.testing.assert_array_equal(c[6], [0, 0, 1])

    def test_dofs_per_node_repeats(self):
        c = grid_coords(2, 2, 1, dofs_per_node=3)
        assert c.shape == (12, 3)
        np.testing.assert_array_equal(c[0], c[1])
        np.testing.assert_array_equal(c[1], c[2])

    def test_2d_default(self):
        c = grid_coords(4, 5)
        assert c.shape == (20, 3)
        assert (c[:, 2] == 0).all()


class TestPlaneSplitter:
    def test_separator_disconnects_grid(self):
        a = laplacian_2d(8)
        g = Graph.from_matrix(a)
        splitter = make_plane_splitter(grid_coords(8, 8))
        pa, pb, sep = splitter(g, [np.arange(g.n)])[0]
        assert check_separator(g, pa, pb, sep)
        assert sep.size == 8  # exactly one grid line

    def test_3d_separator_is_a_plane(self):
        a = laplacian_3d(6)
        g = Graph.from_matrix(a)
        splitter = make_plane_splitter(grid_coords(6, 6, 6))
        pa, pb, sep = splitter(g, [np.arange(g.n)])[0]
        assert check_separator(g, pa, pb, sep)
        assert sep.size == 36  # exactly one 6x6 plane

    def test_widest_axis_chosen(self):
        a = laplacian_3d(12, 3, 3)
        g = Graph.from_matrix(a)
        splitter = make_plane_splitter(grid_coords(12, 3, 3))
        pa, pb, sep = splitter(g, [np.arange(g.n)])[0]
        # cutting the long x axis gives a 3x3 plane separator
        assert sep.size == 9

    def test_colocated_points_fail_gracefully(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        splitter = make_plane_splitter(np.zeros((4, 3)))
        pa, pb, sep = splitter(g, [np.arange(4)])[0]
        assert sep.size == 0  # signals "no geometric split"


class TestGeometricND:
    def test_valid_permutation(self):
        a = laplacian_3d(6)
        g = Graph.from_matrix(a)
        nd = geometric_nested_dissection(g, grid_coords(6, 6, 6), cmin=8)
        assert is_permutation(nd.perm, g.n)

    def test_coords_length_checked(self):
        g = Graph.from_matrix(laplacian_2d(4))
        with pytest.raises(ValueError, match="rows"):
            geometric_nested_dissection(g, np.zeros((3, 3)))

    def test_fewer_offdiag_blocks_than_algebraic(self):
        """Plane separators are contiguous in the grid ordering, so the
        block structure fragments less."""
        from repro.symbolic.factorization import (
            SymbolicOptions,
            symbolic_factorization,
        )
        a = laplacian_3d(8)
        coords = grid_coords(8, 8, 8)
        opts_alg = SymbolicOptions(cmin=8, ordering="nested-dissection")
        opts_geo = SymbolicOptions(cmin=8, ordering="geometric")
        s_alg, _ = symbolic_factorization(a, opts_alg)
        s_geo, _ = symbolic_factorization(a, opts_geo, coords=coords)
        assert s_geo.total_off_blocks() < s_alg.total_off_blocks()


class TestSolverIntegration:
    def test_solver_with_geometric_ordering(self, rng):
        a = laplacian_3d(7)
        cfg = tiny_blr_config(strategy="minimal-memory", tolerance=1e-8,
                              ordering="geometric")
        s = Solver(a, cfg, coords=grid_coords(7, 7, 7))
        s.factorize()
        b = rng.standard_normal(a.n)
        assert s.backward_error(s.solve(b), b) <= 1e-4

    def test_missing_coords_rejected(self):
        a = laplacian_3d(4)
        cfg = tiny_blr_config(ordering="geometric")
        s = Solver(a, cfg)
        with pytest.raises(ValueError, match="coordinates"):
            s.analyze()

    def test_vector_problem_with_dof_coords(self, rng):
        a = elasticity_3d(4)
        cfg = tiny_blr_config(strategy="dense", factotype="cholesky",
                              ordering="geometric")
        s = Solver(a, cfg, coords=grid_coords(4, 4, 4, dofs_per_node=3))
        s.factorize()
        b = rng.standard_normal(a.n)
        assert s.backward_error(s.solve(b), b) <= 1e-9
