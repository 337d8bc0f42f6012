"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SolverConfig
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import (
    convection_diffusion_3d,
    elasticity_3d,
    heterogeneous_poisson_3d,
    laplacian_2d,
    laplacian_3d,
    random_spd,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


#: a solver configuration with thresholds small enough that compression
#: genuinely happens on the tiny matrices used in tests
def tiny_blr_config(**overrides) -> SolverConfig:
    base = dict(
        cmin=8,
        frat=0.08,
        split_size=16,
        split_min=8,
        compress_min_width=8,
        compress_min_height=3,
        rank_ratio=0.9,
    )
    base.update(overrides)
    return SolverConfig(**base)


def hermitian_congruence(base: CSCMatrix, seed: int = 2) -> CSCMatrix:
    """``D A Dᴴ`` for a real symmetric ``base`` and a seeded unitary
    diagonal ``D``: same pattern and spectrum, Hermitian and genuinely
    complex (every off-diagonal entry carries a phase)."""
    rng = np.random.default_rng(seed)
    d = np.exp(1j * rng.uniform(0, 2 * np.pi, base.n))
    r = base.rowind
    c = np.repeat(np.arange(base.n, dtype=np.int64), np.diff(base.colptr))
    v = base.values
    diag, up = r == c, r < c
    vu = d[r[up]] * v[up] * np.conj(d[c[up]])
    return CSCMatrix.from_coo(
        base.n,
        np.concatenate([r[diag], r[up], c[up]]),
        np.concatenate([c[diag], c[up], r[up]]),
        np.concatenate([v[diag].astype(np.complex128), vu, np.conj(vu)]))


@pytest.fixture
def blr_config():
    return tiny_blr_config


def reference_lu_nopivot(a: np.ndarray):
    """Dense LU without pivoting, used as ground truth in several tests."""
    n = a.shape[0]
    u = np.array(a, dtype=np.float64, copy=True)
    l_mat = np.eye(n)
    for k in range(n):
        l_mat[k + 1:, k] = u[k + 1:, k] / u[k, k]
        u[k + 1:, k:] -= np.outer(l_mat[k + 1:, k], u[k, k:])
    return l_mat, np.triu(u)


def random_lowrank(rng, m: int, n: int, r: int, decay: float = 0.5) -> np.ndarray:
    """Dense matrix with exactly controlled singular-value decay."""
    u = np.linalg.qr(rng.standard_normal((m, min(m, r))))[0]
    v = np.linalg.qr(rng.standard_normal((n, min(n, r))))[0]
    s = decay ** np.arange(min(m, n, r))
    return (u * s) @ v.T


SMALL_MATRICES = {
    "lap2d_6": lambda: laplacian_2d(6),
    "lap3d_6": lambda: laplacian_3d(6),
    "conv3d_6": lambda: convection_diffusion_3d(6),
    "elas_4": lambda: elasticity_3d(4),
    "hetero_6": lambda: heterogeneous_poisson_3d(6),
    "random_spd_60": lambda: random_spd(60, density=0.08, seed=3),
}


@pytest.fixture(params=sorted(SMALL_MATRICES))
def small_matrix(request) -> CSCMatrix:
    return SMALL_MATRICES[request.param]()
