"""Tests for elimination-tree utilities."""

import numpy as np
import pytest

from repro.ordering.elimination_tree import (
    elimination_tree,
    is_postordered,
    postorder,
    subtree_sizes,
)
from repro.core.solver import Solver
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import laplacian_2d, laplacian_3d, random_spd
from tests.conftest import tiny_blr_config


def reference_etree(a):
    """O(n² fill) reference: parent(j) = min{i > j : L[i,j] != 0} computed
    from the dense filled pattern."""
    d = a.to_dense()
    n = a.n
    filled = (d != 0).astype(float)
    # symbolic no-pivot elimination on the dense pattern
    for k in range(n):
        nz = np.flatnonzero(filled[k + 1:, k]) + k + 1
        for i in nz:
            filled[i, nz] = np.maximum(filled[i, nz], 1)
            filled[nz, i] = np.maximum(filled[nz, i], 1)
    parent = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        below = np.flatnonzero(filled[j + 1:, j]) + j + 1
        if below.size:
            parent[j] = below[0]
    return parent


class TestEliminationTree:
    def test_tridiagonal_is_a_path(self):
        from repro.sparse.generators import laplacian_1d
        parent = elimination_tree(laplacian_1d(5))
        np.testing.assert_array_equal(parent, [1, 2, 3, 4, -1])

    @pytest.mark.parametrize("gen", [lambda: laplacian_2d(4),
                                     lambda: random_spd(25, 0.1, seed=4)])
    def test_matches_dense_reference(self, gen):
        a = gen()
        np.testing.assert_array_equal(elimination_tree(a), reference_etree(a))

    def test_diagonal_matrix_is_forest_of_roots(self):
        a = CSCMatrix.from_coo(4, range(4), range(4), [1.0] * 4)
        np.testing.assert_array_equal(elimination_tree(a), [-1] * 4)

    def test_parent_always_greater(self, small_matrix):
        parent = elimination_tree(small_matrix.symmetrize_pattern())
        for j, p in enumerate(parent):
            assert p == -1 or p > j


class TestPostorder:
    def test_children_before_parents(self):
        parent = np.array([2, 2, 4, 4, -1])
        order = postorder(parent)
        pos = np.empty(5, dtype=int)
        pos[order] = np.arange(5)
        for v, p in enumerate(parent):
            if p != -1:
                assert pos[v] < pos[p]

    def test_postorder_is_permutation(self):
        parent = np.array([3, 3, 3, -1, 5, -1])
        order = postorder(parent)
        assert sorted(order) == list(range(6))

    def test_etree_of_nd_ordered_matrix_is_postordered(self):
        """Nested dissection + our quotient pipeline produce postordered
        trees; the vertex etree of the permuted matrix must satisfy
        parent > child."""
        from repro.ordering.graph import Graph
        from repro.ordering.nested_dissection import nested_dissection
        from repro.sparse.permute import permute_symmetric

        a = laplacian_2d(6)
        nd = nested_dissection(Graph.from_matrix(a), cmin=6)
        ap = permute_symmetric(a, nd.perm)
        parent = elimination_tree(ap)
        for j, p in enumerate(parent):
            assert p == -1 or p > j


class TestTreeMetrics:
    def test_depths(self):
        """Column-block depths (``SymbolicFactor.block_levels``) against a
        walk up the block elimination tree."""
        for a in (laplacian_2d(9), laplacian_3d(5),
                  random_spd(60, density=0.1, seed=3)):
            symb = Solver(a, tiny_blr_config()).analyze()
            parent = symb.block_etree()
            want = []
            for k in range(symb.ncblk):
                depth, p = 0, int(parent[k])
                while p >= 0:
                    depth, p = depth + 1, int(parent[p])
                want.append(depth)
            assert symb.block_levels() == want
            assert max(want) > 0

    def test_subtree_sizes(self):
        parent = np.array([2, 2, 4, 4, -1])
        np.testing.assert_array_equal(subtree_sizes(parent), [1, 1, 3, 1, 5])

    def test_is_postordered_positive(self):
        parent = np.array([1, 4, 3, 4, -1])
        assert is_postordered(parent)

    def test_is_postordered_negative(self):
        # node 3's subtree {0, 3} is not contiguous
        parent = np.array([3, 2, 4, 4, -1])
        assert not is_postordered(parent)
