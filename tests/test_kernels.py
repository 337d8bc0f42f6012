"""Tests for the low-rank update kernels (lr_product / LR2GE / LR2LR)."""

import numpy as np
import pytest

from repro.lowrank.block import LowRankBlock
from repro.lowrank.kernels import (
    block_nbytes,
    compress_block,
    lr2ge_update,
    lr2lr_update,
    lr_product,
)
from repro.lowrank.rrqr import rrqr_compress
from repro.runtime.stats import KernelStats
from tests.conftest import random_lowrank


def lr(rng, m, n, r):
    return rrqr_compress(random_lowrank(rng, m, n, r, 0.3), 1e-12)


class TestCompressBlock:
    @pytest.mark.parametrize("kernel", ["svd", "rrqr"])
    def test_bound_and_stats(self, rng, kernel):
        a = random_lowrank(rng, 30, 20, 10, 0.4)
        stats = KernelStats()
        out = compress_block(a, 1e-8, kernel, stats=stats)
        err = np.linalg.norm(a - out.to_dense()) / np.linalg.norm(a)
        assert err <= 1.1e-8
        assert stats.flop("compress") > 0
        assert stats.call_count("compress") == 1

    def test_unknown_kernel(self, rng):
        with pytest.raises(ValueError, match="kernel"):
            compress_block(np.zeros((3, 3)), 1e-8, "interpolative")

    def test_cap_returns_none(self, rng):
        a = rng.standard_normal((16, 16))
        assert compress_block(a, 1e-15, "rrqr", max_rank=2) is None


class TestLrProduct:
    """All four operand-type combinations must agree with dense A @ Bᵗ."""

    def test_lr_times_lr(self, rng):
        a, b = lr(rng, 20, 15, 6), lr(rng, 18, 15, 5)
        ref = a.to_dense() @ b.to_dense().T
        out = lr_product(a, b, 1e-10, "rrqr")
        assert isinstance(out, LowRankBlock)
        np.testing.assert_allclose(out.to_dense(), ref, atol=1e-9)
        # paper: rank(ABᵗ) <= min(rA, rB)
        assert out.rank <= min(a.rank, b.rank)

    def test_lr_times_dense(self, rng):
        a = lr(rng, 20, 15, 6)
        b = rng.standard_normal((12, 15))
        ref = a.to_dense() @ b.T
        out = lr_product(a, b, 1e-10, "rrqr")
        assert isinstance(out, LowRankBlock)
        np.testing.assert_allclose(out.to_dense(), ref, atol=1e-9)

    def test_dense_times_lr(self, rng):
        a = rng.standard_normal((20, 15))
        b = lr(rng, 12, 15, 4)
        ref = a @ b.to_dense().T
        out = lr_product(a, b, 1e-10, "rrqr")
        assert isinstance(out, LowRankBlock)
        np.testing.assert_allclose(out.to_dense(), ref, atol=1e-9)

    def test_dense_times_dense(self, rng):
        a = rng.standard_normal((8, 5))
        b = rng.standard_normal((7, 5))
        out = lr_product(a, b, 1e-10, "rrqr")
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, a @ b.T)

    def test_zero_rank_returns_none(self, rng):
        a = LowRankBlock.zero(10, 8)
        b = lr(rng, 6, 8, 3)
        assert lr_product(a, b, 1e-10, "rrqr") is None
        assert lr_product(b, a, 1e-10, "rrqr") is None

    @pytest.mark.parametrize("kernel", ["svd", "rrqr"])
    def test_t_matrix_recompression_reduces_rank(self, rng, kernel):
        """Build A, B whose product has much lower rank than min(rA, rB)."""
        shared = rng.standard_normal((15, 2))
        a = LowRankBlock(np.linalg.qr(rng.standard_normal((20, 6)))[0],
                         np.hstack([shared, 1e-14 * rng.standard_normal((15, 4))]))
        b = LowRankBlock(np.linalg.qr(rng.standard_normal((18, 6)))[0],
                         np.hstack([shared, 1e-14 * rng.standard_normal((15, 4))]))
        out = lr_product(a, b, 1e-8, kernel)
        assert out.rank <= 2

    def test_stats_charged(self, rng):
        stats = KernelStats()
        a, b = lr(rng, 10, 8, 3), lr(rng, 9, 8, 3)
        lr_product(a, b, 1e-10, "rrqr", stats)
        assert stats.flop("lr_product") > 0


class TestLr2Ge:
    def test_dense_contribution(self, rng):
        target = rng.standard_normal((10, 8))
        contrib = rng.standard_normal((4, 3))
        ref = target.copy()
        ref[2:6, 1:4] -= contrib
        lr2ge_update(target, contrib, 2, 1)
        np.testing.assert_allclose(target, ref)

    def test_lowrank_contribution(self, rng):
        target = rng.standard_normal((10, 8))
        contrib = lr(rng, 4, 3, 2)
        ref = target.copy()
        ref[2:6, 1:4] -= contrib.to_dense()
        lr2ge_update(target, contrib, 2, 1)
        np.testing.assert_allclose(target, ref, atol=1e-12)

    def test_zero_rank_is_noop(self, rng):
        target = rng.standard_normal((5, 5))
        ref = target.copy()
        lr2ge_update(target, LowRankBlock.zero(2, 2), 0, 0)
        np.testing.assert_array_equal(target, ref)

    def test_charges_dense_update(self, rng):
        stats = KernelStats()
        target = np.zeros((6, 6))
        lr2ge_update(target, lr(rng, 3, 3, 1), 0, 0, stats)
        assert stats.flop("dense_update") > 0


class TestLr2Lr:
    @pytest.mark.parametrize("kernel", ["svd", "rrqr"])
    def test_padded_extend_add(self, rng, kernel):
        target = lr(rng, 12, 10, 4)
        contrib = lr(rng, 5, 4, 2)
        ref = target.to_dense()
        ref[3:8, 2:6] -= contrib.to_dense()
        out = lr2lr_update(target, contrib, 3, 2, 1e-10, kernel)
        np.testing.assert_allclose(out.to_dense(), ref, atol=1e-8)

    def test_dense_contribution_gets_compressed_first(self, rng):
        target = lr(rng, 12, 10, 3)
        contrib = random_lowrank(rng, 5, 4, 2, 0.2)
        ref = target.to_dense()
        ref[0:5, 0:4] -= contrib
        out = lr2lr_update(target, contrib, 0, 0, 1e-10, "rrqr")
        np.testing.assert_allclose(out.to_dense(), ref, atol=1e-8)

    def test_cap_exceeded_returns_none(self, rng):
        target = lr(rng, 10, 10, 3)
        contrib = rrqr_compress(rng.standard_normal((10, 10)), 1e-14)
        out = lr2lr_update(target, contrib, 0, 0, 1e-14, "rrqr", max_rank=3)
        assert out is None

    def test_zero_contribution_returns_target(self, rng):
        target = lr(rng, 8, 8, 2)
        out = lr2lr_update(target, LowRankBlock.zero(3, 3), 1, 1,
                           1e-10, "rrqr")
        assert out is target

    def test_charges_lr_addition(self, rng):
        stats = KernelStats()
        target = lr(rng, 8, 8, 2)
        lr2lr_update(target, lr(rng, 4, 4, 1), 0, 0, 1e-10, "rrqr",
                     stats=stats)
        assert stats.flop("lr_addition") > 0


class TestHelpers:
    def test_block_nbytes(self, rng):
        arr = np.zeros((4, 5))
        assert block_nbytes(arr) == 4 * 5 * 8
        b = LowRankBlock(np.zeros((4, 2)), np.zeros((5, 2)))
        assert block_nbytes(b) == (4 + 5) * 2 * 8
