"""Tests for matrix equilibration."""

import numpy as np

from repro.sparse.generators import (
    heterogeneous_poisson_3d,
    laplacian_2d,
)
from repro.sparse.scaling import equilibrate, scaled_extremes


class TestEquilibration:
    def test_normalizes_entry_magnitudes(self):
        a = heterogeneous_poisson_3d(5, contrast=1e6)
        lo_before, hi_before = scaled_extremes(a)
        scaled, _ = equilibrate(a)
        lo, hi = scaled_extremes(scaled)
        assert hi <= 1.0 + 1e-10
        assert (hi / lo) < (hi_before / lo_before)

    def test_symmetric_scaling_preserves_symmetry(self):
        a = heterogeneous_poisson_3d(4, contrast=1e4)
        scaled, _ = equilibrate(a, symmetric=True)
        assert scaled.is_symmetric(tol=1e-12)

    def test_solution_transform_roundtrip(self, rng):
        """Solving the scaled system and unscaling must solve the original."""
        a = heterogeneous_poisson_3d(4, contrast=1e5)
        scaled, sc = equilibrate(a)
        b = rng.standard_normal(a.n)
        y = np.linalg.solve(scaled.to_dense(), sc.scale_rhs(b))
        x = sc.unscale_solution(y)
        res = np.linalg.norm(a.matvec(x) - b) / np.linalg.norm(b)
        assert res <= 1e-10

    def test_nonsymmetric_mode(self):
        from repro.sparse.generators import convection_diffusion_3d
        a = convection_diffusion_3d(4)
        scaled, _ = equilibrate(a, symmetric=False)
        _, hi = scaled_extremes(scaled)
        assert hi <= 1.0 + 1e-10

    def test_multi_rhs_transforms(self, rng):
        a = laplacian_2d(4)
        _, sc = equilibrate(a)
        b = rng.standard_normal((a.n, 3))
        assert sc.scale_rhs(b).shape == b.shape
        assert sc.unscale_solution(b).shape == b.shape

    def test_solver_on_equilibrated_system(self, rng):
        """End-to-end: equilibrate, factorize, solve, unscale."""
        from repro.core.solver import Solver
        from tests.conftest import tiny_blr_config
        a = heterogeneous_poisson_3d(5, contrast=1e6)
        scaled, sc = equilibrate(a)
        s = Solver(scaled, tiny_blr_config(strategy="dense"))
        s.factorize()
        b = rng.standard_normal(a.n)
        x = sc.unscale_solution(s.solve(sc.scale_rhs(b)))
        res = np.linalg.norm(a.matvec(x) - b) / np.linalg.norm(b)
        assert res <= 1e-9
