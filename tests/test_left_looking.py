"""Lazy allocation against eager allocation (paper §4.3's JIT-memory
proposal).

Every task allocates its own column block when it starts — the paper's
left-looking allocation, "delay the allocation and the compression of the
original blocks".  These tests hold it against a factor whose column blocks
were all filled before the engine ran (the eager, right-looking allocation):
the same factors and answers, and a peak that is the factor plus one column
block in flight instead of the dense structure.
"""

import numpy as np
import pytest

from repro.core.scheduler import run_sequential
from repro.core.solver import Solver
from repro.sparse.generators import (
    convection_diffusion_3d,
    laplacian_3d,
)
from repro.sparse.permute import permute_symmetric
from tests.conftest import assemble_filled, tiny_blr_config
from tests.pins import factor_digest


def factorized(a, cfg, eager=False):
    """A solver holding ``cfg``'s factor of ``a``; ``eager`` fills every
    column block before the engine runs."""
    s = Solver(a, cfg)
    if not eager:
        s.factorize()
        return s
    symb = s.analyze()
    fac = assemble_filled(permute_symmetric(s._a_sym, s.perm), symb, cfg)
    run_sequential(fac)
    s.factor = fac
    return s


class TestCorrectness:
    @pytest.mark.parametrize("strategy", ["dense", "just-in-time"])
    def test_matches_right_looking_accuracy(self, strategy, rng):
        a = laplacian_3d(7)
        b = rng.standard_normal(a.n)
        cfg = tiny_blr_config(strategy=strategy, tolerance=1e-8)
        errs = {}
        for eager in (True, False):
            s = factorized(a, cfg, eager)
            errs[eager] = s.backward_error(s.solve(b), b)
        assert errs[False] == errs[True]

    def test_dense_factors_identical(self, rng):
        """Same arithmetic, different allocation order: identical factors."""
        a = laplacian_3d(5)
        cfg = tiny_blr_config(strategy="dense")
        eager, lazy = (factorized(a, cfg, e).factor for e in (True, False))
        assert factor_digest(eager) == factor_digest(lazy)

    def test_nonsymmetric(self, rng):
        a = convection_diffusion_3d(5)
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=1e-8)
        b = rng.standard_normal(a.n)
        xs = [factorized(a, cfg, eager).solve(b) for eager in (True, False)]
        assert np.array_equal(xs[0], xs[1])
        s = factorized(a, cfg)
        assert s.backward_error(xs[1], b) <= 1e-5

    def test_cholesky(self, rng):
        a = laplacian_3d(5)
        cfg = tiny_blr_config(strategy="just-in-time",
                              factotype="cholesky", tolerance=1e-8)
        b = rng.standard_normal(a.n)
        xs = [factorized(a, cfg, eager).solve(b) for eager in (True, False)]
        assert np.array_equal(xs[0], xs[1])
        s = factorized(a, cfg)
        assert s.backward_error(xs[1], b) <= 1e-5


class TestMemoryBehaviour:
    def test_peak_below_right_looking_jit(self):
        """The whole point: the JIT peak drops when column blocks are
        allocated in their tasks (§4.3: 'delay the allocation and the
        compression')."""
        a = laplacian_3d(8)
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=1e-4)
        peaks = {eager: factorized(a, cfg, eager).factor.tracker.peak
                 for eager in (True, False)}
        assert peaks[True] == factorized(
            a, cfg.with_options(strategy="dense")).stats.peak_nbytes
        assert peaks[False] < peaks[True]

    def test_peak_close_to_compressed_factor_size(self):
        """Lazy JIT peak ≈ compressed factors + one dense column block."""
        a = laplacian_3d(8)
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=1e-4)
        stats = factorized(a, cfg).stats
        assert stats.peak_nbytes <= stats.factor_nbytes * 1.25
