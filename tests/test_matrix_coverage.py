"""Systematic combination coverage: strategy × kernel × factotype.

Every supported combination must factorize and solve a representative
problem at its expected accuracy.  This is the compatibility matrix a
downstream user implicitly relies on.
"""

import numpy as np
import pytest

from repro.config import FACTOTYPES, KERNELS, STRATEGIES
from repro.core.solver import Solver
from repro.sparse.generators import convection_diffusion_3d, laplacian_3d
from tests.conftest import tiny_blr_config

TOL = 1e-6


@pytest.fixture(scope="module")
def spd_problem():
    a = laplacian_3d(6)
    rng = np.random.default_rng(11)
    return a, rng.standard_normal(a.n)


@pytest.fixture(scope="module")
def general_problem():
    a = convection_diffusion_3d(5, peclet=0.6)
    rng = np.random.default_rng(12)
    return a, rng.standard_normal(a.n)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("factotype", FACTOTYPES)
def test_combination_solves_spd(strategy, kernel, factotype, spd_problem):
    a, b = spd_problem
    cfg = tiny_blr_config(strategy=strategy, kernel=kernel,
                          factotype=factotype, tolerance=TOL)
    s = Solver(a, cfg)
    s.factorize()
    err = s.backward_error(s.solve(b), b)
    budget = 1e-10 if strategy == "dense" else TOL * 100
    assert err <= budget, (strategy, kernel, factotype, err)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_combination_solves_general(strategy, kernel, general_problem):
    a, b = general_problem
    cfg = tiny_blr_config(strategy=strategy, kernel=kernel,
                          factotype="lu", tolerance=TOL)
    s = Solver(a, cfg)
    s.factorize()
    err = s.backward_error(s.solve(b), b)
    budget = 1e-10 if strategy == "dense" else TOL * 100
    assert err <= budget, (strategy, kernel, err)


@pytest.mark.parametrize("strategy", ["just-in-time", "minimal-memory"])
def test_accumulation_with_every_kernel(strategy, spd_problem):
    a, b = spd_problem
    for kernel in KERNELS:
        cfg = tiny_blr_config(strategy=strategy, kernel=kernel,
                              tolerance=TOL)
        s = Solver(a, cfg)
        s.factorize()
        assert s.backward_error(s.solve(b), b) <= TOL * 100


def test_transpose_solve_consistency(general_problem):
    """solve(trans=True) of A equals solve() of Aᵗ."""
    a, b = general_problem
    s = Solver(a, tiny_blr_config(strategy="dense"))
    s.factorize()
    x_trans = s.solve(b, trans=True)
    s_t = Solver(a.transpose(), tiny_blr_config(strategy="dense"))
    s_t.factorize()
    x_ref = s_t.solve(b)
    np.testing.assert_allclose(x_trans, x_ref, atol=1e-9)
