"""Tests for the sequential and threaded execution engines."""

import numpy as np
import pytest

from repro.core.factor import assemble
from repro.core.scheduler import run_sequential, run_threaded
from repro.core.solver import Solver
from repro.sparse.generators import (
    convection_diffusion_3d,
    laplacian_2d,
    laplacian_3d,
)
from repro.sparse.permute import permute_symmetric
from repro.symbolic.factorization import SymbolicOptions, symbolic_factorization
from tests.conftest import tiny_blr_config


def run(a, nthreads, **cfg_overrides):
    cfg = tiny_blr_config(threads=nthreads, **cfg_overrides)
    s = Solver(a, cfg)
    stats = s.factorize()
    rng = np.random.default_rng(0)
    b = rng.standard_normal(a.n)
    return s, s.backward_error(s.solve(b), b)


class TestThreadedCorrectness:
    @pytest.mark.parametrize("nthreads", [2, 4])
    def test_dense_strategy(self, nthreads):
        a = laplacian_3d(6)
        _, err = run(a, nthreads, strategy="dense")
        assert err <= 1e-10

    @pytest.mark.parametrize("strategy", ["just-in-time", "minimal-memory"])
    def test_blr_strategies(self, strategy):
        a = laplacian_3d(7)
        _, err = run(a, 4, strategy=strategy, tolerance=1e-8)
        assert err <= 1e-4

    def test_nonsymmetric(self):
        a = convection_diffusion_3d(5)
        _, err = run(a, 3, strategy="dense")
        assert err <= 1e-10

    def test_cholesky(self):
        a = laplacian_3d(5)
        _, err = run(a, 2, strategy="dense", factotype="cholesky")
        assert err <= 1e-10

    def test_single_thread_falls_back_to_sequential(self):
        a = laplacian_2d(5)
        _, err = run(a, 1, strategy="dense")
        assert err <= 1e-10


class TestThreadedMatchesSequential:
    def test_dense_factors_identical(self):
        """Dense arithmetic is deterministic regardless of interleaving:
        the factors must match bit-for-bit up to roundoff of reductions."""
        a = laplacian_2d(7)
        cfg = tiny_blr_config(strategy="dense")
        opts = SymbolicOptions.from_config(cfg)
        symb, perm = symbolic_factorization(a, opts)
        ap = permute_symmetric(a, perm)

        fac_seq = assemble(ap, symb, cfg)
        run_sequential(fac_seq)
        fac_thr = assemble(ap, symb, cfg)
        run_threaded(fac_thr, 4)

        for nc_s, nc_t in zip(fac_seq.cblks, fac_thr.cblks):
            np.testing.assert_allclose(nc_s.diag, nc_t.diag, atol=1e-9)
            for i in range(nc_s.sym.noff):
                np.testing.assert_allclose(np.asarray(nc_s.lblock(i)),
                                           np.asarray(nc_t.lblock(i)),
                                           atol=1e-9)

    def test_stats_totals_comparable(self):
        a = laplacian_3d(5)
        _, err1 = run(a, 1, strategy="dense")
        _, err4 = run(a, 4, strategy="dense")
        assert abs(err1 - err4) < 1e-10


class TestOneWorker:
    def test_single_thread_falls_back(self):
        a = laplacian_2d(5)
        cfg = tiny_blr_config(strategy="dense")
        opts = SymbolicOptions.from_config(cfg)
        symb, perm = symbolic_factorization(a, opts)
        fac = assemble(permute_symmetric(a, perm), symb, cfg)
        run_threaded(fac, 1)  # must not hang
        assert all(nc.factored for nc in fac.cblks)

    def test_exactly_two_drivers(self):
        import repro.core.scheduler as sched
        assert sorted(n for n in vars(sched) if n.startswith("run_")) == \
            ["run_sequential", "run_threaded"]
