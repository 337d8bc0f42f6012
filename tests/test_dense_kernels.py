"""Tests for the dense block kernels (LU/Cholesky + right solves) and
their flop models."""

import numpy as np
import pytest

from repro.core.backend import KERNELS
from repro.core.dense_kernels import (
    getrf_flops,
    potrf_flops,
    trsm_flops,
)


def dominant(rng, n):
    a = rng.standard_normal((n, n))
    a += n * np.eye(n)
    return a


class TestLuNoPivot:
    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130])
    def test_reconstruction(self, rng, n):
        a = dominant(rng, n)
        lu, nperturbed = KERNELS.getrf(a)
        assert nperturbed == 0
        l_mat = np.tril(lu, -1) + np.eye(n)
        u = np.triu(lu)
        np.testing.assert_allclose(l_mat @ u, a, rtol=0, atol=1e-10 * n)

    def test_static_pivot_perturbation(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])  # exactly singular
        lu, nperturbed = KERNELS.getrf(a, pivot_threshold=1e-8)
        assert nperturbed >= 1
        assert np.isfinite(lu).all()

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ValueError, match="square"):
            KERNELS.getrf(rng.standard_normal((3, 4)))

    def test_input_not_modified(self, rng):
        a = dominant(rng, 10)
        a0 = a.copy()
        KERNELS.getrf(a)
        np.testing.assert_array_equal(a, a0)


class TestCholeskyNoPivot:
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_reconstruction(self, rng, n):
        b = rng.standard_normal((n, n))
        a = b @ b.T + n * np.eye(n)
        l_mat, nperturbed = KERNELS.potrf(a)
        assert nperturbed == 0
        np.testing.assert_allclose(l_mat @ l_mat.T, a, atol=1e-9 * n)

    def test_regularizes_semidefinite(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])  # PSD, rank 1
        l_mat, nperturbed = KERNELS.potrf(a, pivot_threshold=1e-10)
        assert np.isfinite(l_mat).all()
        assert nperturbed >= 1

    def test_lower_triangular_output(self, rng):
        a = dominant(rng, 6)
        a = (a + a.T) / 2 + 6 * np.eye(6)
        l_mat, _ = KERNELS.potrf(a)
        assert np.allclose(np.triu(l_mat, 1), 0)


class TestRightSolves:
    def test_solve_upper_right(self, rng):
        u = np.triu(dominant(rng, 6))
        b = rng.standard_normal((4, 6))
        x = KERNELS.trsm(u, b, side="right", lower=False)
        np.testing.assert_allclose(x @ u, b, atol=1e-10)

    def test_solve_unit_lower_right(self, rng):
        l_mat = np.tril(rng.standard_normal((6, 6)), -1) + np.eye(6)
        b = rng.standard_normal((4, 6))
        x = KERNELS.trsm(l_mat, b, side="right", trans="T",
                         unit_diagonal=True)
        np.testing.assert_allclose(x @ l_mat.T, b, atol=1e-10)

    def test_solve_lower_right(self, rng):
        l_mat = np.tril(dominant(rng, 6))
        b = rng.standard_normal((4, 6))
        x = KERNELS.trsm(l_mat, b, side="right", trans="T")
        np.testing.assert_allclose(x @ l_mat.T, b, atol=1e-10)

    def test_unit_diagonal_ignores_stored_diag(self, rng):
        """The packed LU layout stores U's diagonal where L's unit diagonal
        lives; the unit-lower solve must ignore it."""
        lu = dominant(rng, 5)  # arbitrary diagonal
        b = rng.standard_normal((3, 5))
        x = KERNELS.trsm(lu, b, side="right", trans="T",
                         unit_diagonal=True)
        l_unit = np.tril(lu, -1) + np.eye(5)
        np.testing.assert_allclose(x @ l_unit.T, b, atol=1e-10)


class TestFlopModels:
    def test_values(self):
        assert getrf_flops(6) == pytest.approx(144.0)
        assert potrf_flops(6) == pytest.approx(72.0)
        assert trsm_flops(4, 5) == 80
