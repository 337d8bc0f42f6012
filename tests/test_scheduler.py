"""Tests for the execution engine."""

import numpy as np
import pytest

from repro.core.factor import assemble
from repro.core.scheduler import run_sequential
from repro.core.solver import Solver
from repro.sparse.generators import (
    convection_diffusion_3d,
    laplacian_2d,
    laplacian_3d,
)
from repro.sparse.permute import permute_symmetric
from repro.symbolic.factorization import SymbolicOptions, symbolic_factorization
from tests.conftest import tiny_blr_config


def run(a, **cfg_overrides):
    s = Solver(a, tiny_blr_config(**cfg_overrides))
    s.factorize()
    rng = np.random.default_rng(0)
    b = rng.standard_normal(a.n)
    return s, s.backward_error(s.solve(b), b)


class TestSequentialEngine:
    def test_dense_strategy(self):
        _, err = run(laplacian_3d(6), strategy="dense")
        assert err <= 1e-10

    @pytest.mark.parametrize("strategy", ["just-in-time", "minimal-memory"])
    def test_blr_strategies(self, strategy):
        _, err = run(laplacian_3d(7), strategy=strategy, tolerance=1e-8)
        assert err <= 1e-4

    def test_nonsymmetric(self):
        _, err = run(convection_diffusion_3d(5), strategy="dense")
        assert err <= 1e-10

    def test_cholesky(self):
        _, err = run(laplacian_3d(5), strategy="dense", factotype="cholesky")
        assert err <= 1e-10

    def test_factors_every_block_and_releases_entries(self):
        a = laplacian_2d(5)
        cfg = tiny_blr_config(strategy="dense")
        symb, perm = symbolic_factorization(a, SymbolicOptions.from_config(cfg))
        fac = assemble(permute_symmetric(a, perm), symb, cfg)
        run_sequential(fac)
        assert all(nc.factored for nc in fac.cblks)
        assert fac.entries is None

    def test_exactly_one_driver(self):
        import repro.core.scheduler as sched
        assert sorted(n for n in vars(sched) if n.startswith("run_")) == \
            ["run_sequential"]
