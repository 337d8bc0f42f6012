"""Tests for the LowRankBlock container."""

import numpy as np
import pytest

from repro.lowrank.block import LowRankBlock


class TestConstruction:
    def test_basic(self, rng):
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((4, 2))
        b = LowRankBlock(u, v)
        assert b.shape == (6, 4)
        assert b.rank == 2
        np.testing.assert_allclose(b.to_dense(), u @ v.T)

    def test_rank_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="rank"):
            LowRankBlock(rng.standard_normal((3, 2)),
                         rng.standard_normal((3, 3)))

    def test_non_2d_rejected(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            LowRankBlock(rng.standard_normal(3), rng.standard_normal((3, 1)))

    def test_zero_block(self):
        z = LowRankBlock.zero(5, 3)
        assert z.rank == 0
        np.testing.assert_array_equal(z.to_dense(), np.zeros((5, 3)))


class TestOperations:
    def test_matvec(self, rng):
        b = LowRankBlock(rng.standard_normal((5, 2)),
                         rng.standard_normal((7, 2)))
        x = rng.standard_normal(7)
        np.testing.assert_allclose(b.matvec(x), b.to_dense() @ x)

    def test_matvec_multiple_rhs(self, rng):
        b = LowRankBlock(rng.standard_normal((5, 2)),
                         rng.standard_normal((7, 2)))
        x = rng.standard_normal((7, 3))
        np.testing.assert_allclose(b.matvec(x), b.to_dense() @ x)

    def test_rmatvec(self, rng):
        b = LowRankBlock(rng.standard_normal((5, 2)),
                         rng.standard_normal((7, 2)))
        x = rng.standard_normal(5)
        np.testing.assert_allclose(b.rmatvec(x), b.to_dense().T @ x)

    def test_zero_matvec_shapes(self):
        z = LowRankBlock.zero(4, 6)
        assert z.matvec(np.ones(6)).shape == (4,)
        assert z.matvec(np.ones((6, 2))).shape == (4, 2)
        assert z.rmatvec(np.ones(4)).shape == (6,)

    def test_copy_is_deep(self, rng):
        b = LowRankBlock(rng.standard_normal((3, 1)),
                         rng.standard_normal((3, 1)))
        c = b.copy()
        c.u[0, 0] = 1e9
        assert b.u[0, 0] != 1e9


class TestStorage:
    def test_nbytes(self):
        b = LowRankBlock(np.zeros((10, 3)), np.zeros((20, 3)))
        assert b.nbytes == (10 + 20) * 3 * 8
