"""End-to-end numerical factorization tests across all strategies."""

import numpy as np
import pytest

from repro.core.solver import Solver
from repro.sparse.generators import (
    convection_diffusion_3d,
    elasticity_3d,
    heterogeneous_poisson_3d,
    laplacian_2d,
    laplacian_3d,
    random_spd,
)
from tests.conftest import tiny_blr_config

STRATEGIES = ["dense", "just-in-time", "minimal-memory"]
KERNELS = ["rrqr", "svd"]


def solve_and_check(a, cfg, rtol, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    b = rng.standard_normal(a.n)
    s = Solver(a, cfg)
    stats = s.factorize()
    x = s.solve(b)
    err = s.backward_error(x, b)
    assert err <= rtol, f"backward error {err:.2e} above {rtol:.0e}"
    return s, stats


class TestDenseStrategy:
    @pytest.mark.parametrize("ordering", ["nested-dissection", "amd",
                                          "natural"])
    def test_machine_precision(self, ordering):
        a = laplacian_3d(5)
        cfg = tiny_blr_config(strategy="dense", ordering=ordering)
        solve_and_check(a, cfg, 1e-12)

    def test_all_small_matrices(self, small_matrix):
        cfg = tiny_blr_config(strategy="dense")
        solve_and_check(small_matrix, cfg, 1e-10)

    def test_stats_have_no_lr_categories(self):
        a = laplacian_2d(6)
        cfg = tiny_blr_config(strategy="dense")
        _, stats = solve_and_check(a, cfg, 1e-12)
        assert stats.kernels.flop("lr_addition") == 0
        assert stats.kernels.flop("compress") == 0
        assert stats.kernels.flop("dense_update") > 0


@pytest.mark.parametrize("strategy", ["just-in-time", "minimal-memory"])
@pytest.mark.parametrize("kernel", KERNELS)
class TestBlrStrategies:
    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    def test_backward_error_tracks_tolerance(self, strategy, kernel, tol):
        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy=strategy, kernel=kernel, tolerance=tol)
        # BLR accumulates compression error over updates: allow 100x headroom
        solve_and_check(a, cfg, tol * 100)

    def test_compression_happens(self, strategy, kernel):
        a = laplacian_3d(8)
        cfg = tiny_blr_config(strategy=strategy, kernel=kernel,
                              tolerance=1e-4)
        _, stats = solve_and_check(a, cfg, 1e-2)
        assert stats.nblocks_compressed > 0
        assert stats.kernels.flop("compress") > 0

    def test_memory_ratio_below_one(self, strategy, kernel):
        a = laplacian_3d(8)
        cfg = tiny_blr_config(strategy=strategy, kernel=kernel,
                              tolerance=1e-4)
        _, stats = solve_and_check(a, cfg, 1e-2)
        assert stats.memory_ratio < 1.0

    def test_nonsymmetric_matrix(self, strategy, kernel):
        a = convection_diffusion_3d(5, peclet=0.6)
        cfg = tiny_blr_config(strategy=strategy, kernel=kernel,
                              tolerance=1e-8)
        solve_and_check(a, cfg, 1e-5)


class TestStrategySpecificBehaviour:
    def test_mm_peak_below_jit_peak(self):
        """Figure 7's claim: the MM strategy never allocates the dense
        structure, so its tracked peak is below JIT's."""
        a = laplacian_3d(8)
        peaks = {}
        for strategy in ("just-in-time", "minimal-memory"):
            cfg = tiny_blr_config(strategy=strategy, tolerance=1e-4)
            _, stats = solve_and_check(a, cfg, 1e-2)
            peaks[strategy] = stats.peak_nbytes
        assert peaks["minimal-memory"] < peaks["just-in-time"]

    def test_jit_peak_equals_dense_peak(self):
        """§4.3: JIT memory peak corresponds to the full dense structure."""
        a = laplacian_3d(5)
        peaks = {}
        for strategy in ("dense", "just-in-time"):
            cfg = tiny_blr_config(strategy=strategy, tolerance=1e-8)
            _, stats = solve_and_check(a, cfg, 1e-4)
            peaks[strategy] = stats.peak_nbytes
        assert peaks["just-in-time"] == pytest.approx(peaks["dense"],
                                                      rel=0.01)

    def test_mm_lr_addition_flops_dominate(self):
        """Table 2: LR addition is the dominant cost of Minimal Memory and
        absent from Just-In-Time.  (8³: on 6³ every extend-add overflows
        the rank cap at its scratch compression, before any LR addition.)"""
        a = laplacian_3d(8)
        cfg_mm = tiny_blr_config(strategy="minimal-memory", tolerance=1e-8)
        _, st_mm = solve_and_check(a, cfg_mm, 1e-4)
        cfg_jit = tiny_blr_config(strategy="just-in-time", tolerance=1e-8)
        _, st_jit = solve_and_check(a, cfg_jit, 1e-4)
        assert st_mm.kernels.flop("lr_addition") > 0
        assert st_jit.kernels.flop("lr_addition") == 0

    def test_tolerance_monotone_memory(self):
        """Figure 6: smaller tolerance => larger ranks => more memory."""
        a = laplacian_3d(8)
        ratios = []
        for tol in (1e-2, 1e-6, 1e-10):
            cfg = tiny_blr_config(strategy="minimal-memory", tolerance=tol)
            _, stats = solve_and_check(a, cfg, max(tol * 100, 1e-8))
            ratios.append(stats.memory_ratio)
        assert ratios[0] <= ratios[1] <= ratios[2] + 0.02


class TestCholesky:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_spd_matrices(self, strategy):
        a = laplacian_3d(5)
        cfg = tiny_blr_config(strategy=strategy, factotype="cholesky",
                              tolerance=1e-8)
        solve_and_check(a, cfg, 1e-4)

    def test_elasticity(self):
        a = elasticity_3d(3)
        cfg = tiny_blr_config(strategy="dense", factotype="cholesky")
        solve_and_check(a, cfg, 1e-10)

    def test_heterogeneous(self):
        a = heterogeneous_poisson_3d(5, contrast=1e4)
        cfg = tiny_blr_config(strategy="minimal-memory",
                              factotype="cholesky", tolerance=1e-10)
        solve_and_check(a, cfg, 1e-5)

    def test_rejects_nonsymmetric(self):
        a = convection_diffusion_3d(4, peclet=0.5)
        cfg = tiny_blr_config(factotype="cholesky")
        with pytest.raises(ValueError, match="symmetric"):
            Solver(a, cfg)

    def test_cholesky_stores_single_side(self):
        a = laplacian_2d(6)
        lu_stats = solve_and_check(
            a, tiny_blr_config(strategy="dense", factotype="lu"), 1e-10)[1]
        ch_stats = solve_and_check(
            a, tiny_blr_config(strategy="dense", factotype="cholesky"),
            1e-10)[1]
        assert ch_stats.factor_nbytes < lu_stats.factor_nbytes


class TestStaticPivoting:
    def test_near_singular_diagonal_is_perturbed(self):
        """A zero diagonal entry inside a supernode triggers static
        pivoting rather than a crash."""
        a = random_spd(40, density=0.15, seed=6)
        # zero out one diagonal entry to force a small pivot
        d = a.to_dense()
        d[17, 17] = 0.0
        from repro.sparse.csc import CSCMatrix
        bad = CSCMatrix.from_dense(d)
        cfg = tiny_blr_config(strategy="dense", pivot_threshold=1e-10)
        s = Solver(bad, cfg)
        s.factorize()
        assert np.isfinite(s.factor.cblks[0].diag).all()


class TestMultipleRHS:
    def test_block_solve(self):
        a = laplacian_3d(4)
        cfg = tiny_blr_config(strategy="dense")
        s = Solver(a, cfg)
        s.factorize()
        rng = np.random.default_rng(3)
        b = rng.standard_normal((a.n, 4))
        x = s.solve(b)
        assert x.shape == (a.n, 4)
        res = np.linalg.norm(a.matvec(x) - b) / np.linalg.norm(b)
        assert res <= 1e-10
