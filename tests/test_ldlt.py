"""Tests for the LDLᵗ factorization path (symmetric, possibly indefinite)."""

import numpy as np
import pytest

from repro.core.backend import KERNELS
from repro.core.solver import Solver
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import laplacian_3d, random_spd
from tests.conftest import tiny_blr_config


def indefinite_matrix(n=60, seed=2):
    """Symmetric indefinite but strongly nonsingular test matrix."""
    d = random_spd(n, 0.1, seed=seed).to_dense()
    d -= 1.5 * np.diag(d).mean() * np.eye(n)
    d = (d + d.T) / 2
    a = CSCMatrix.from_dense(d)
    eig = np.linalg.eigvalsh(d)
    assert eig.min() < 0 < eig.max()  # genuinely indefinite
    return a


class TestLdltKernel:
    def test_reconstruction(self, rng):
        b = rng.standard_normal((12, 12))
        a = (b + b.T) / 2 + 12 * np.eye(12)
        packed, nperturbed = KERNELS.ldlt(a)
        assert nperturbed == 0
        l_mat = np.tril(packed, -1) + np.eye(12)
        d = np.diag(np.diag(packed))
        np.testing.assert_allclose(l_mat @ d @ l_mat.T, a, atol=1e-10)

    def test_indefinite_reconstruction(self, rng):
        b = rng.standard_normal((10, 10))
        a = (b + b.T) / 2 + np.diag(np.linspace(-5, 5, 10))
        a += 10 * np.eye(10) * np.sign(np.diag(a))  # dominant, mixed signs
        packed, _ = KERNELS.ldlt(a)
        l_mat = np.tril(packed, -1) + np.eye(10)
        d = np.diag(np.diag(packed))
        np.testing.assert_allclose(l_mat @ d @ l_mat.T, a, atol=1e-9)

    def test_negative_pivots_preserved(self):
        a = np.diag([-2.0, 3.0, -4.0])
        packed, nperturbed = KERNELS.ldlt(a)
        assert nperturbed == 0
        np.testing.assert_allclose(np.diag(packed), [-2, 3, -4])

    def test_static_pivot_keeps_sign(self):
        # second pivot is tiny *relative to the diagonal scale* -> boosted,
        # and the boost keeps its negative sign
        a = np.diag([1.0, -1e-30])
        packed, nperturbed = KERNELS.ldlt(a, pivot_threshold=1e-8)
        assert nperturbed == 1
        assert packed[1, 1] == pytest.approx(-1e-8)
        assert np.isfinite(packed).all()

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ValueError, match="square"):
            KERNELS.ldlt(rng.standard_normal((3, 4)))


class TestLdltSolver:
    @pytest.mark.parametrize("strategy", ["dense", "just-in-time",
                                          "minimal-memory"])
    def test_spd_all_strategies(self, strategy, rng):
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(strategy=strategy, factotype="ldlt",
                                      tolerance=1e-8))
        s.factorize()
        b = rng.standard_normal(a.n)
        assert s.backward_error(s.solve(b), b) <= 1e-5

    def test_indefinite_system(self, rng):
        a = indefinite_matrix()
        s = Solver(a, tiny_blr_config(strategy="dense", factotype="ldlt"))
        s.factorize()
        b = rng.standard_normal(a.n)
        assert s.backward_error(s.solve(b), b) <= 1e-10

    def test_ldlt_matches_cholesky_on_spd(self, rng):
        a = laplacian_3d(5)
        b = rng.standard_normal(a.n)
        xs = {}
        for factotype in ("cholesky", "ldlt"):
            s = Solver(a, tiny_blr_config(strategy="dense",
                                          factotype=factotype))
            s.factorize()
            xs[factotype] = s.solve(b)
        np.testing.assert_allclose(xs["ldlt"], xs["cholesky"], atol=1e-9)

    def test_single_side_storage(self, rng):
        a = laplacian_3d(5)
        s_lu = Solver(a, tiny_blr_config(strategy="dense", factotype="lu"))
        s_ld = Solver(a, tiny_blr_config(strategy="dense", factotype="ldlt"))
        st_lu = s_lu.factorize()
        st_ld = s_ld.factorize()
        assert st_ld.factor_nbytes < st_lu.factor_nbytes

    def test_refinement_with_cg(self, rng):
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(strategy="minimal-memory",
                                      factotype="ldlt", tolerance=1e-6))
        s.factorize()
        b = rng.standard_normal(a.n)
        res = s.refine(b, tol=1e-12, maxiter=20)
        assert res.backward_error <= 1e-10

    def test_threaded_ldlt(self, rng):
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(strategy="dense", factotype="ldlt",
                                      threads=3))
        s.factorize()
        b = rng.standard_normal(a.n)
        assert s.backward_error(s.solve(b), b) <= 1e-10

    def test_rejects_nonsymmetric(self):
        from repro.sparse.generators import convection_diffusion_3d
        a = convection_diffusion_3d(4)
        with pytest.raises(ValueError, match="symmetric"):
            Solver(a, tiny_blr_config(factotype="ldlt"))
