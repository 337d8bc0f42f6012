"""Tests for the complexity models and the evaluation metrics (backward
error, and the factor's census of bytes and ranks)."""

import pytest

from repro.analysis.complexity import (
    SolverComplexity,
    gemm_cost,
    lr2ge_cost,
    lr2lr_cost_rrqr,
    lr2lr_cost_svd,
    lr_product_cost,
    solver_flop_model,
)
from repro.core.solver import Solver
from repro.sparse.generators import laplacian_3d
from tests.conftest import tiny_blr_config


class TestComplexityModels:
    def test_gemm_scales_with_all_dims(self):
        assert gemm_cost(2 * 10, 20, 30) == 2 * gemm_cost(10, 20, 30)
        assert gemm_cost(10, 20, 2 * 30) == 2 * gemm_cost(10, 20, 30)

    def test_lr2ge_main_factor_is_rank_not_width(self):
        """Table 1: LR2GE's main factor is Θ(mA mB rAB), independent of nA
        asymptotically."""
        base = lr2ge_cost(100, 100, 100, 5, 5, 5)
        wider = lr2ge_cost(100, 100, 1000, 5, 5, 5)
        # nA only enters through the lower-order product term
        assert wider < 2 * base

    def test_lr2lr_depends_on_target_size(self):
        """§3.4: the extend-add cost scales with the *target* dimensions,
        the reason Minimal Memory is slower."""
        small = lr2lr_cost_rrqr(100, 100, 10, 5, 10)
        large = lr2lr_cost_rrqr(1000, 1000, 10, 5, 10)
        assert large > 5 * small
        assert lr2lr_cost_svd(1000, 1000, 10, 5, 10) > \
            5 * lr2lr_cost_svd(100, 100, 10, 5, 10)

    def test_svd_recompression_more_expensive_than_rrqr(self):
        """Table 2's observation: SVD extend-add costs far more."""
        args = (200, 200, 20, 20, 20)
        assert lr2lr_cost_svd(*args) > lr2lr_cost_rrqr(*args)

    def test_lr_product_linear_in_ranks(self):
        assert lr_product_cost(50, 50, 50, 2, 2, 2) < \
            lr_product_cost(50, 50, 50, 8, 8, 8)

    def test_solver_flop_model(self):
        assert solver_flop_model(10 ** 6, "dense") == pytest.approx(1e12)
        assert solver_flop_model(10 ** 6, "blr") < \
            solver_flop_model(10 ** 6, "dense")
        with pytest.raises(ValueError):
            solver_flop_model(100, "hss")

    def test_asymptotic_targets(self):
        c = SolverComplexity(8 ** 6)
        assert c.blr_time_target < c.dense_time
        assert c.blr_memory_target < c.dense_memory


class TestMetrics:
    @pytest.fixture
    def factored(self):
        a = laplacian_3d(8)
        s = Solver(a, tiny_blr_config(strategy="minimal-memory",
                                      tolerance=1e-4))
        s.factorize()
        return a, s

    def test_backward_error_zero_for_exact(self, rng):
        a = laplacian_3d(4)
        x = rng.standard_normal(a.n)
        b = a.matvec(x)
        assert Solver(a).backward_error(x, b) <= 1e-14

    def test_rank_histogram_nonempty(self, factored):
        _, s = factored
        hist = s.factor.census()["rank_histogram"]
        assert sum(hist.values()) > 0
        assert all(int(r) >= 0 for r in hist)

    def test_compression_report_consistent(self, factored):
        _, s = factored
        census = s.factor.census()
        rep = census["compression"]
        assert rep["n_lowrank_blocks"] > 0
        assert rep["total_nbytes"] == (rep["lowrank_nbytes"]
                                       + rep["dense_nbytes"]
                                       + rep["diag_nbytes"])
        assert rep["total_nbytes"] == s.factor.factor_nbytes()
        assert rep["total_nbytes"] == s.factor.tracker.current
        assert rep["total_nbytes"] == s.stats.factor_nbytes
        assert 0 < rep["memory_ratio"] <= 1.0
        assert rep["max_rank"] >= rep["mean_rank"] >= 1
        # per side: the L side is what FactorizationStats counts, and
        # both sides together are the report's blocks
        lr, dense = census["lowrank_blocks"], census["dense_blocks"]
        assert lr["l"] == s.stats.nblocks_compressed > 0
        assert dense["l"] == s.stats.nblocks_dense
        assert lr["l"] + lr["u"] == rep["n_lowrank_blocks"]
        assert dense["l"] + dense["u"] == rep["n_dense_blocks"]
        noff = s.symbolic.total_off_blocks()
        assert lr["l"] + dense["l"] == lr["u"] + dense["u"] == noff

    def test_report_on_dense_strategy(self):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="dense"))
        s.factorize()
        census = s.factor.census()
        rep = census["compression"]
        assert rep["n_lowrank_blocks"] == 0
        assert rep["memory_ratio"] == pytest.approx(1.0)
        assert census["rank_histogram"] == {}
        assert census["rank_histogram_by_level"] == {}
        noff = s.symbolic.total_off_blocks()
        assert census["dense_blocks"] == {"l": noff, "u": noff}
