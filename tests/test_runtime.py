"""Tests for kernel stats and memory tracking."""

import numpy as np
import pytest

from repro.lowrank.block import LowRankBlock
from repro.lowrank.kernels import block_nbytes
from repro.runtime.memory import MemoryTracker, array_nbytes
from repro.runtime.stats import FactorizationStats, KernelStats, KERNEL_CATEGORIES


class TestKernelStats:
    def test_add_and_query(self):
        ks = KernelStats()
        ks.add("compress", seconds=0.5, flops=100.0)
        ks.add("compress", seconds=0.25, flops=50.0)
        assert ks.time("compress") == pytest.approx(0.75)
        assert ks.flop("compress") == 150.0
        assert ks.call_count("compress") == 2

    def test_batched_charge(self):
        """A caller that batches (the fan-in task's visits)
        charges many calls at once."""
        ks = KernelStats()
        ks.add("x", seconds=0.5, flops=3.0, calls=3)
        ks.add("x", flops=1.0)
        assert (ks.call_count("x"), ks.flop("x")) == (4, 4.0)

    def test_as_dict(self):
        ks = KernelStats()
        ks.add("compress", seconds=1.0, flops=2.0)
        d = ks.as_dict()
        assert d["compress"]["time"] == 1.0
        assert d["compress"]["flops"] == 2.0
        assert d["compress"]["calls"] == 1

    def test_totals(self):
        ks = KernelStats()
        ks.add("a", seconds=1.0, flops=10.0)
        ks.add("b", seconds=2.0, flops=20.0)
        assert ks.total_time() == 3.0
        assert ks.total_flops() == 30.0


class TestFactorizationStats:
    def test_memory_ratio(self):
        st = FactorizationStats(factor_nbytes=50, dense_factor_nbytes=100)
        assert st.memory_ratio == 0.5

    def test_memory_ratio_zero_dense(self):
        assert FactorizationStats().memory_ratio == 1.0

    def test_summary_covers_all_categories(self):
        """The per-kernel rows are ``kernels.as_dict()`` (the report's
        ``kernels`` section), not copies in ``summary()``."""
        st = FactorizationStats()
        for c in KERNEL_CATEGORIES:
            st.kernels.add(c, seconds=1.0)
        assert set(st.kernels.as_dict()) == set(KERNEL_CATEGORIES)
        assert not any(k.startswith(("time_", "flops_"))
                       for k in st.summary())


class TestMemoryTracker:
    def test_peak_tracking(self):
        mt = MemoryTracker()
        mt.alloc(100)
        mt.alloc(50)
        mt.free(120)
        mt.alloc(10)
        assert mt.current == 40
        assert mt.peak == 150

    def test_resize(self):
        mt = MemoryTracker()
        mt.alloc(100)
        mt.resize(100, 300)
        assert mt.current == 300
        assert mt.peak == 300
        mt.resize(300, 10)
        assert mt.current == 10
        assert mt.peak == 300


class TestByteHelpers:
    def test_nbytes_dense(self):
        assert block_nbytes(np.zeros((10, 20))) == 1600
        assert block_nbytes(np.zeros((10, 20), dtype=np.float32)) == 800

    def test_nbytes_lowrank(self):
        blk = LowRankBlock(np.zeros((10, 3)), np.zeros((20, 3)))
        assert block_nbytes(blk) == (10 + 20) * 3 * 8
        assert block_nbytes(blk.astype(np.float32)) == (10 + 20) * 3 * 4

    def test_array_nbytes(self):
        assert array_nbytes(np.zeros((4, 4))) == 128
