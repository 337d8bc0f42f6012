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


def assemble_filled(a_perm: CSCMatrix, symb, config: SolverConfig):
    """:func:`~repro.core.factor.assemble`, then every column block filled
    as its task would start it — the whole assembled factor at once, for
    inspection (an engine run on it keeps the filled column blocks)."""
    from repro.core.factor import assemble

    fac = assemble(a_perm, symb, config)
    for k in range(symb.ncblk):
        fac.fill_column_block(k)
    return fac


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


def ldlt_reconstruct(packed, perm, d21, hermitian):
    """Rebuild P A Pᵀ from an LDLᵗ pivot kernel's packed output."""
    n = packed.shape[0]
    lmat = np.tril(packed, -1) + np.eye(n, dtype=packed.dtype)
    d = np.diag(np.diag(packed)).astype(packed.dtype)
    for j in np.flatnonzero(d21):
        d[j + 1, j] = d21[j]
        d[j, j + 1] = np.conj(d21[j]) if hermitian else d21[j]
    lt = lmat.conj().T if hermitian else lmat.T
    return lmat @ d @ lt


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
