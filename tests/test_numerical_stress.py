"""Numerical stress tests: ill conditioning, extreme scales, robustness.

These push the solver outside the comfortable diagonally-dominant regime of
the generator suite and check that accuracy degrades gracefully and that
refinement recovers it — the behaviour a production solver must have.
"""

import numpy as np
import pytest

from repro.core.solver import Solver
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import heterogeneous_poisson_3d, laplacian_2d
from repro.sparse.scaling import equilibrate
from tests.conftest import tiny_blr_config


class TestConditionSweep:
    @pytest.mark.parametrize("contrast", [1e2, 1e5, 1e8])
    def test_refinement_rescues_ill_conditioning(self, contrast, rng):
        """As the coefficient contrast (hence κ) grows, the direct solve
        loses digits but refinement still reaches near machine precision."""
        a = heterogeneous_poisson_3d(5, contrast=contrast, seed=3)
        s = Solver(a, tiny_blr_config(strategy="dense",
                                      factotype="cholesky"))
        s.factorize()
        b = rng.standard_normal(a.n)
        res = s.refine(b, tol=1e-12, maxiter=20)
        assert res.backward_error <= 1e-10, contrast

    def test_condest_tracks_contrast(self):
        """The condition estimate must grow monotonically with contrast."""
        ests = []
        for contrast in (1e1, 1e4, 1e7):
            a = heterogeneous_poisson_3d(4, contrast=contrast, seed=3)
            s = Solver(a, tiny_blr_config(strategy="dense"))
            ests.append(s.condest())
        assert ests[0] < ests[1] < ests[2]

    def test_equilibration_reduces_condition(self):
        a = heterogeneous_poisson_3d(4, contrast=1e8, seed=3)
        scaled, _ = equilibrate(a)
        k_raw = Solver(a, tiny_blr_config(strategy="dense")).condest()
        k_scaled = Solver(scaled, tiny_blr_config(strategy="dense")).condest()
        assert k_scaled < k_raw


class TestExtremeScales:
    @pytest.mark.parametrize("scale", [1e-30, 1e+30])
    def test_uniformly_scaled_system(self, scale, rng):
        """A global scale factor must not change the computed solution
        direction (backward error is scale-invariant)."""
        a = laplacian_2d(5)
        scaled = CSCMatrix(a.n, a.colptr, a.rowind, a.values * scale)
        s = Solver(scaled, tiny_blr_config(strategy="dense"))
        s.factorize()
        b = rng.standard_normal(a.n)
        x = s.solve(b)
        assert s.backward_error(x, b) <= 1e-10

    def test_blr_on_scaled_system(self, rng):
        """Relative tolerances make compression scale-invariant too."""
        from repro.sparse.generators import laplacian_3d
        a = laplacian_3d(8)
        ups = CSCMatrix(a.n, a.colptr, a.rowind, a.values * 1e12)
        errs = {}
        for name, mat in (("unit", a), ("scaled", ups)):
            cfg = tiny_blr_config(strategy="minimal-memory", tolerance=1e-6)
            s = Solver(mat, cfg)
            st = s.factorize()
            b = rng.standard_normal(a.n)
            errs[name] = (s.backward_error(s.solve(b), b),
                          st.nblocks_compressed)
        # identical compression decisions, comparable accuracy
        assert errs["unit"][1] == errs["scaled"][1]
        assert abs(np.log10(max(errs["unit"][0], 1e-300))
                   - np.log10(max(errs["scaled"][0], 1e-300))) < 2


class TestPivotThreshold:
    def test_factorization_never_produces_nan(self, rng):
        """Even on an exactly singular matrix, static pivoting keeps the
        factors finite (the solve is then a pseudo-answer refinement can
        work with)."""
        d = laplacian_2d(4).to_dense()
        d[:, 3] = d[:, 2]
        d[3, :] = d[2, :]  # duplicated row/col: singular
        a = CSCMatrix.from_dense((d + d.T) / 2)
        s = Solver(a, tiny_blr_config(strategy="dense"))
        s.factorize()
        for nc in s.factor.cblks:
            assert np.isfinite(nc.diag).all()


class TestZeroAndTrivialRhs:
    def test_zero_rhs_gives_zero(self):
        from repro.sparse.generators import laplacian_3d
        a = laplacian_3d(4)
        s = Solver(a, tiny_blr_config(strategy="minimal-memory"))
        x = s.solve(np.zeros(a.n))
        np.testing.assert_allclose(x, 0, atol=1e-12)

    def test_rhs_in_column_space_exact(self, rng):
        a = laplacian_2d(5)
        s = Solver(a, tiny_blr_config(strategy="dense"))
        x_true = rng.standard_normal(a.n)
        b = a.matvec(x_true)
        x = s.solve(b)
        np.testing.assert_allclose(x, x_true, atol=1e-9)
