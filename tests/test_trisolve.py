"""Tests for the mixed dense/low-rank triangular solves."""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serialize import load_factor, save_factor
from repro.core.solver import Solver
from repro.core.trisolve import _diag_scale_ldlt, solve_factored
from repro.lowrank.block import LowRankBlock
from repro.sparse.generators import laplacian_2d, laplacian_3d, zoo
from repro.sparse.permute import permute_symmetric
from tests.conftest import tiny_blr_config
from tests.test_backend_conformance import lr_apply, panel_gemm, panel_trsm
from tests.test_factorization import LANDING_CASES


def factored(a, **cfg_overrides):
    s = Solver(a, tiny_blr_config(**cfg_overrides))
    s.factorize()
    return s


class TestLuSolve:
    def test_matches_dense_solve(self, rng):
        a = laplacian_2d(6)
        s = factored(a, strategy="dense")
        ap = permute_symmetric(a, s.perm)
        b = rng.standard_normal(a.n)
        x = solve_factored(s.factor, b)
        ref = np.linalg.solve(ap.to_dense(), b)
        np.testing.assert_allclose(x, ref, atol=1e-10)

    def test_identity_rhs_gives_inverse(self):
        a = laplacian_2d(4)
        s = factored(a, strategy="dense")
        ap = permute_symmetric(a, s.perm).to_dense()
        inv = solve_factored(s.factor, np.eye(a.n))
        np.testing.assert_allclose(ap @ inv, np.eye(a.n), atol=1e-9)

    def test_lowrank_blocks_used_in_solve(self, rng):
        """Solve through a factor that actually holds LR blocks."""
        a = laplacian_3d(8)
        s = factored(a, strategy="minimal-memory", tolerance=1e-8)
        assert s.stats.nblocks_compressed > 0
        b = rng.standard_normal(a.n)
        x = s.solve(b)
        assert s.backward_error(x, b) <= 1e-5


class TestCholeskySolve:
    def test_matches_dense_solve(self, rng):
        a = laplacian_2d(6)
        s = factored(a, strategy="dense", factotype="cholesky")
        ap = permute_symmetric(a, s.perm)
        b = rng.standard_normal(a.n)
        x = solve_factored(s.factor, b)
        np.testing.assert_allclose(x, np.linalg.solve(ap.to_dense(), b),
                                   atol=1e-10)


class TestShapes:
    def test_vector_in_vector_out(self, rng):
        a = laplacian_2d(4)
        s = factored(a, strategy="dense")
        x = solve_factored(s.factor, rng.standard_normal(a.n))
        assert x.ndim == 1

    def test_block_rhs(self, rng):
        a = laplacian_2d(4)
        s = factored(a, strategy="dense")
        b = rng.standard_normal((a.n, 5))
        x = solve_factored(s.factor, b)
        assert x.shape == (a.n, 5)
        ap = permute_symmetric(a, s.perm).to_dense()
        np.testing.assert_allclose(ap @ x, b, atol=1e-9)

    def test_input_not_modified(self, rng):
        a = laplacian_2d(4)
        s = factored(a, strategy="dense")
        b = rng.standard_normal(a.n)
        b0 = b.copy()
        solve_factored(s.factor, b)
        np.testing.assert_array_equal(b, b0)


class TestMultiRhsBitwise:
    """Blocked ``(n, k)`` panel solves equal column-by-column single-RHS
    solves *bit for bit* — the column-stability contract of the panel
    kernels, end to end through the mixed dense/LR solve."""

    @pytest.mark.parametrize("strategy,factotype", [
        ("dense", "lu"),
        ("dense", "cholesky"),
        ("dense", "ldlt"),
        ("just-in-time", "lu"),
        ("minimal-memory", "lu"),
        ("minimal-memory", "cholesky"),
    ])
    def test_panel_equals_columns(self, rng, strategy, factotype):
        a = laplacian_3d(5)
        s = factored(a, strategy=strategy, factotype=factotype,
                     tolerance=1e-8)
        b = rng.standard_normal((a.n, 6))
        full = solve_factored(s.factor, b)
        for j in range(6):
            col = solve_factored(s.factor, np.ascontiguousarray(b[:, j]))
            np.testing.assert_array_equal(full[:, j], col)

    def test_panel_equals_columns_transposed(self, rng):
        a = laplacian_3d(5)
        s = factored(a, strategy="minimal-memory", tolerance=1e-8)
        b = rng.standard_normal((a.n, 4))
        full = solve_factored(s.factor, b, trans=True)
        for j in range(4):
            col = solve_factored(s.factor, np.ascontiguousarray(b[:, j]),
                                 trans=True)
            np.testing.assert_array_equal(full[:, j], col)

    def test_width_does_not_change_bits(self, rng):
        """The same column gives the same bits in a k=2 and a k=9 panel."""
        a = laplacian_3d(5)
        s = factored(a, strategy="just-in-time", tolerance=1e-8)
        b = rng.standard_normal((a.n, 9))
        wide = solve_factored(s.factor, b)
        narrow = solve_factored(s.factor, np.ascontiguousarray(b[:, :2]))
        np.testing.assert_array_equal(wide[:, :2], narrow)


# ----------------------------------------------------------------------
# stacked sweeps ≡ the per-block sweeps they replaced
# ----------------------------------------------------------------------
#
# The reference below is the solve as it ran before a column block kept its
# panel: every off-diagonal block applies on its own, a dense block's
# transpose through a contiguous copy.  The engine applies a kept panel as
# one stacked product per sweep and side and reads transposed operands in
# place — the same sums in another order, so equal to rounding — and must
# keep every column of a panel solve bit-identical to its single solve.

def _reference_apply(block, x, mode):
    if isinstance(block, LowRankBlock):
        return lr_apply(block.u, block.v, x, mode=mode)
    op = {"n": block, "t": block.T, "h": block.conj().T}[mode]
    return panel_gemm(np.ascontiguousarray(op), x)


def reference_solve(fac, b, trans=False):
    factotype = fac.config.factotype
    adjoint = "C" if fac.dtype.kind == "c" else "T"
    if factotype == "lu" and trans:
        forward = "ublock", dict(lower=False, trans="T")
        backward = "lblock", "t", dict(lower=True, trans="T",
                                       unit_diagonal=True)
    elif factotype == "lu":
        forward = "lblock", dict(lower=True, unit_diagonal=True)
        backward = "ublock", "t", dict(lower=False)
    else:
        unit = factotype == "ldlt"
        forward = "lblock", dict(lower=True, unit_diagonal=unit)
        backward = "lblock", "h", dict(lower=True, trans=adjoint,
                                       unit_diagonal=unit)
    x = np.array(b, dtype=np.result_type(fac.dtype, b.dtype), order="C")
    for nc in fac.cblks:
        lo, hi = nc.sym.first_col, nc.sym.end_col
        rhs = x[lo:hi] if nc.pivperm is None else x[lo:hi][nc.pivperm]
        x[lo:hi] = panel_trsm(nc.diag, rhs, **forward[1])
        for i, blk in enumerate(nc.sym.off_blocks()):
            x[blk.first_row:blk.end_row] -= _reference_apply(
                getattr(nc, forward[0])(i), x[lo:hi], "n")
    if factotype == "ldlt":
        _diag_scale_ldlt(fac, x)
    for nc in reversed(fac.cblks):
        lo, hi = nc.sym.first_col, nc.sym.end_col
        acc = x[lo:hi]
        for i, blk in enumerate(nc.sym.off_blocks()):
            acc -= _reference_apply(getattr(nc, backward[0])(i),
                                    x[blk.first_row:blk.end_row],
                                    backward[1])
        sol = panel_trsm(nc.diag, acc, **backward[2])
        if nc.pivperm is None:
            x[lo:hi] = sol
        else:
            x[lo:hi][nc.pivperm] = sol
    return x


SWEEP_CASES = {
    "lu": ("lu", False),
    "lu-transposed": ("lu", True),
    "cholesky": ("cholesky", False),
    "ldlt-threshold": ("ldlt-threshold", False),
    "cholesky-hermitian": ("cholesky-hermitian", False),
    "ldlh-hermitian": ("ldlh-hermitian", False),
}


class TestStackedSweepsMatchPerBlockSweeps:
    def check(self, fac, rng):
        n = fac.symb.n
        for trans in {False, fac.config.factotype == "lu"}:
            assert solve_factored(fac, np.zeros((n, 0)),
                                  trans=trans).shape == (n, 0)
        b = rng.standard_normal((n, 16))
        if fac.dtype.kind == "c":
            b = b + 1j * rng.standard_normal((n, 16))
        return b

    @pytest.mark.parametrize("strategy", ["dense", "just-in-time",
                                          "minimal-memory"])
    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_sweeps(self, rng, case, strategy):
        landing, trans = SWEEP_CASES[case]
        build, cfg = LANDING_CASES[landing]
        s = factored(build(), strategy=strategy, tolerance=1e-4, **cfg)
        fac = s.factor
        if strategy == "minimal-memory":  # both storage modes are walked
            assert {nc.panel_mode for nc in fac.cblks} == {True, False}
        b = self.check(fac, rng)
        x = solve_factored(fac, b, trans=trans)
        ref = reference_solve(fac, b, trans=trans)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        for j in (0, 7, 15):
            col = solve_factored(fac, np.ascontiguousarray(b[:, j]),
                                 trans=trans)
            assert np.array_equal(x[:, j], col)

    @pytest.mark.parametrize("storage_dtype", [None, "float32"])
    def test_reloaded_factor(self, rng, tmp_path, storage_dtype):
        """``storage_dtype`` is the narrow dtype the factor stores some
        column blocks in: none at τ = 1e-6, float32 at τ = 1e-2."""
        s = factored(laplacian_3d(8), strategy="just-in-time",
                     tolerance=1e-6 if storage_dtype is None else 1e-2)
        fac, _ = load_factor(save_factor(s.factor, s.perm,
                                         tmp_path / "f.npz"))
        assert ([nc.panel_mode for nc in fac.cblks]
                == [nc.panel_mode for nc in s.factor.cblks])
        assert {nc.panel_mode for nc in fac.cblks} == {True, False}
        narrow = {nc.lblocks[0].dtype for nc in fac.cblks
                  if not nc.panel_mode} - {np.dtype(np.float64)}
        assert narrow == ({np.dtype(storage_dtype)} if storage_dtype
                          else set())
        b = self.check(fac, rng)
        x = solve_factored(fac, b)
        assert np.array_equal(x, solve_factored(s.factor, b))
        ref = reference_solve(fac, b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(
            x[:, 3], solve_factored(fac, np.ascontiguousarray(b[:, 3])))


# ----------------------------------------------------------------------
# multi-RHS column identity, as a property over the zoo
# ----------------------------------------------------------------------

ZOO = {c.name: c for c in zoo()}
COLUMN_IDENTITY_CASES = [
    (name, factotype, strategy)
    for name in sorted(ZOO)
    for factotype in ("lu", "cholesky", "ldlt")
    for strategy in ("dense", "just-in-time", "minimal-memory")
    if (factotype != "cholesky" or ZOO[name].definiteness == "positive")
    # no admissible pivot in kkt's zero block: LDLᵗ breaks down
    and (factotype != "ldlt" or name != "kkt")]


@functools.lru_cache(maxsize=8)
def zoo_solver(name, factotype, strategy):
    cfg = dict(pivoting="threshold") if factotype == "ldlt" else {}
    return factored(ZOO[name].build(), strategy=strategy,
                    factotype=factotype, tolerance=1e-4, **cfg)


class TestMultiRhsColumnIdentity:
    """``solve(B)[:, j] == solve(B[:, j])`` bit for bit, over the zoo ×
    factotype (threshold-pivoted LDLᵗ) × strategy × ``trans`` × the memory
    order of ``B`` (a column of a C-ordered ``B`` is a strided vector)."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.sampled_from(COLUMN_IDENTITY_CASES),
           trans=st.booleans(), order=st.sampled_from("CF"),
           k=st.integers(2, 5), seed=st.integers(0, 2**31 - 1))
    def test_panel_columns_are_single_solves(self, case, trans, order, k,
                                             seed):
        s = zoo_solver(*case)
        b = np.array(np.random.default_rng(seed).standard_normal((s.n, k)),
                     order=order)
        x = s.solve(b, trans=trans)
        assert x.shape == b.shape
        for j in range(k):
            assert np.array_equal(x[:, j], s.solve(b[:, j], trans=trans))
