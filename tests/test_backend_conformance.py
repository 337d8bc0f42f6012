"""Kernel conformance suite.

The kernel module (:data:`repro.core.backend.KERNELS`) must pass the
kernel-level golden checks — gemm / trsm / panel solves on dense and
low-rank blocks, across all four dtypes — plus the contracts the solver
relies on:

* **column stability** of the panel kernels: column ``j`` of a blocked
  result is bit-identical to the single-column result, whatever the
  panel width;
* **pinned bits**: a float64 factorization
  reproduces four sha256 digests of its factors (each re-captured only
  with a change that says why it moved — see ``SEED_DIGESTS``), and its
  ``trsm`` the bits of ``scipy.linalg.solve_triangular``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import scipy.linalg as sla

from repro.core.backend import KERNELS, _solve_triangular
from repro.core.solver import Solver
from repro.sparse.generators import laplacian_3d
from tests.conftest import tiny_blr_config
from tests.test_recovery import factor_digest

DTYPES = (np.float32, np.float64, np.complex64, np.complex128)

#: relative tolerance per dtype for value-level (not bitwise) checks
RTOL = {
    np.float32: 5e-5,
    np.float64: 1e-12,
    np.complex64: 5e-5,
    np.complex128: 1e-12,
}

#: sha256 of the float64 factors on laplacian_3d(6) (tiny_blr_config,
#: tolerance 1e-8) — the kernels must reproduce these bits exactly.
#: A column block stays one stacked panel unless a block in it compressed
#: (ISSUE 15), and on this matrix at this tolerance Just-In-Time accepts no
#: block at all: a run in which nothing compresses *is* the dense
#: factorization, so its LU pin is the dense one and its Cholesky pin the
#: dense Cholesky run's
#: (tests/test_variants.py::TestNothingCompressedIsTheDenseFactorization
#: checks that identity against a dense run instead of a constant).
#:
#: ``("dense", "lu")`` was the seed's (560f1a0d…) until ISSUE 22: a visit
#: of a target by a panel-mode source is now one product per side over all
#: its facing blocks where it was one per facing block.  Visits with one
#: facing block issue the same GEMMs; the 46 of 207 with several give a
#: GEMM another column count (and take the upper block triangle from the
#: L·Uᵗ square instead of from Uᵗ·Lᵗ transposed), which moved exactly one
#: entry of the last diagonal block by one ulp (−0.04397881818151087 →
#: …088) and nothing else in the factor.  The Minimal-Memory and Cholesky
#: pins did not move: under Minimal Memory the visits in question start
#: from column blocks that hold a low-rank block (per-pair path,
#: untouched), and a symmetric factorization keeps one product per facing
#: block for the facing square.
SEED_DIGESTS = {
    ("just-in-time", "lu"):
        "6a0724934c0ed9fa9b87287b45d7e85693c9e29bac6c086e0156d870f5656ba4",
    # Minimal Memory does accept blocks at assembly here (five column
    # blocks leave panel mode; all fall back to dense at their flush).
    # Re-captured with ISSUE 15 — the 60 column blocks that kept their
    # panel now update through the batched GEMM, same values to rounding —
    # and before that when the extend-add moved from one LR2LR
    # recompression per update to one per target block (ISSUE 12).
    ("minimal-memory", "lu"):
        "ae9b39ddf9767914c928ff9699e8e7b6b8640ff192e136548fea2951fd0bb4a6",
    ("dense", "lu"):
        "6a0724934c0ed9fa9b87287b45d7e85693c9e29bac6c086e0156d870f5656ba4",
    ("just-in-time", "cholesky"):
        "e106c34182ceca29bb04262bf5601c1b0bc838a10dac908914312a5c600854cb",
}

#: the one kernel instance (the id keeps the test names of the suite)
kernels = pytest.mark.parametrize("be", [KERNELS], ids=["numpy"])

dtypes = pytest.mark.parametrize("dtype", DTYPES,
                                 ids=lambda d: np.dtype(d).name)


def _rand(rng, shape, dtype):
    a = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal(shape)
    return a.astype(dtype)


def _tri(rng, n, dtype, lower, unit):
    """Well-conditioned triangular matrix (unit or dominant diagonal)."""
    m = _rand(rng, (n, n), dtype)
    m = np.tril(m) if lower else np.triu(m)
    if unit:
        np.fill_diagonal(m, 1.0)
    else:
        np.fill_diagonal(m, np.diag(m) + np.array(4.0, dtype=dtype))
    return m


@pytest.fixture
def rng():
    return np.random.default_rng(20170529)  # IPDPS'17


# ----------------------------------------------------------------------
# trsm on the bound LAPACK routine ≡ solve_triangular
# ----------------------------------------------------------------------

def reference_trsm(a, b, side="left", lower=True, trans="N",
                   unit_diagonal=False):
    """``Kernels.trsm`` as it stood on ``scipy.linalg.solve_triangular``
    (kept as the reference): the same transpose tricks, one wrapper pass
    per call."""
    kw = dict(lower=lower, unit_diagonal=unit_diagonal, check_finite=False)
    if side == "left":
        if trans == "C":
            return sla.solve_triangular(a, b.conj(), trans="T", **kw).conj()
        return sla.solve_triangular(a, b, trans=trans, **kw)
    if trans == "N":
        return sla.solve_triangular(a, b.T, trans="T", **kw).T
    if trans == "T":
        return sla.solve_triangular(a, b.T, **kw).T
    return sla.solve_triangular(a, b.conj().T, **kw).conj().T


@pytest.mark.parametrize("side", ("left", "right"))
@pytest.mark.parametrize("trans", ("N", "T", "C"))
@pytest.mark.parametrize("lower", (True, False))
@pytest.mark.parametrize("unit", (True, False))
class TestBoundTrtrsMatchesSolveTriangular:
    def operands(self, rng, a_dtype, b_dtype, side, lower, unit, k=5, n=9):
        a = _tri(rng, n, a_dtype, lower, unit)
        # the other triangle holds the other factor in a packed diagonal
        # block: it must not be read
        a = a + (np.triu(a.T + 3, 1) if lower else np.tril(a.T + 3, -1))
        return a, _rand(rng, (n, k) if side == "left" else (k, n), b_dtype)

    @dtypes
    @pytest.mark.parametrize("a_order", ("C", "F"))
    @pytest.mark.parametrize("b_order", ("C", "F"))
    def test_bit_identical(self, rng, dtype, side, trans, lower, unit,
                           a_order, b_order):
        a, b = self.operands(rng, dtype, dtype, side, lower, unit)
        a, b = np.array(a, order=a_order), np.array(b, order=b_order)
        kw = dict(side=side, lower=lower, trans=trans, unit_diagonal=unit)
        got, want = KERNELS.trsm(a, b, **kw), reference_trsm(
            a, b, **kw)
        assert got.dtype == want.dtype == dtype and got.shape == b.shape
        assert np.array_equal(got, want)

    def test_mixed_dtypes_promote(self, rng, side, trans, lower, unit):
        # float32 storage against a float64 diagonal block, and a real
        # triangle against complex right-hand sides
        for a_dtype, b_dtype in ((np.float64, np.float32),
                                 (np.float32, np.float64),
                                 (np.float64, np.complex64)):
            a, b = self.operands(rng, a_dtype, b_dtype, side, lower, unit)
            kw = dict(side=side, lower=lower, trans=trans, unit_diagonal=unit)
            got, want = KERNELS.trsm(a, b, **kw), reference_trsm(
                a, b, **kw)
            assert got.dtype == want.dtype == np.result_type(
                a_dtype, b_dtype, np.float64)
            assert np.array_equal(got, want)

    def test_empty_right_hand_side(self, rng, side, trans, lower, unit):
        for a_dtype, b_dtype in ((np.float32, np.float32),
                                 (np.float64, np.float32),
                                 (np.complex128, np.float64)):
            a, b = self.operands(rng, a_dtype, b_dtype, side, lower, unit,
                                 k=0)
            kw = dict(side=side, lower=lower, trans=trans, unit_diagonal=unit)
            got, want = KERNELS.trsm(a, b, **kw), reference_trsm(
                a, b, **kw)
            assert got.shape == want.shape == b.shape
            assert got.dtype == want.dtype

    def test_zero_on_the_diagonal_names_its_index(self, rng, side, trans,
                                                  lower, unit):
        a, b = self.operands(rng, np.float64, np.float64, side, lower, False)
        a[4, 4] = 0.0
        kw = dict(side=side, lower=lower, trans=trans, unit_diagonal=unit)
        if unit:  # the diagonal is not referenced
            assert np.array_equal(KERNELS.trsm(a, b, **kw),
                                  reference_trsm(a, b, **kw))
            return
        for solve in (KERNELS.trsm, reference_trsm):
            with pytest.raises(np.linalg.LinAlgError, match="diagonal 4"):
                solve(a, b, **kw)


def test_bound_trsm_keeps_the_shape_checks():
    be = KERNELS
    with pytest.raises(ValueError, match="expected square matrix"):
        be.trsm(np.ones((3, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError, match="incompatible"):
        be.trsm(np.eye(3), np.ones((2, 2)))
    with pytest.raises(ValueError, match="side must be"):
        be.trsm(np.eye(3), np.ones((3, 2)), side="up")


# ----------------------------------------------------------------------
# kernel-level goldens, every dtype
# ----------------------------------------------------------------------

@kernels
@dtypes
class TestKernelGoldens:
    def test_gemm(self, be, dtype, rng):
        a = _rand(rng, (7, 5), dtype)
        b = _rand(rng, (5, 4), dtype)
        rtol = RTOL[dtype]
        np.testing.assert_allclose(be.gemm(a, b), a @ b, rtol=rtol)
        np.testing.assert_allclose(be.gemm(a, b.T, trans_b="T"),
                                   a @ b, rtol=rtol)
        np.testing.assert_allclose(be.gemm(a.T, b, trans_a="T"),
                                   a @ b, rtol=rtol)
        np.testing.assert_allclose(be.gemm(a.conj().T, b, trans_a="C"),
                                   a @ b, rtol=rtol)

    def test_syrk(self, be, dtype, rng):
        a = _rand(rng, (6, 3), dtype)
        rtol = RTOL[dtype]
        np.testing.assert_allclose(be.syrk(a), a @ a.T, rtol=rtol)
        np.testing.assert_allclose(be.syrk(a, herk=True), a @ a.conj().T,
                                   rtol=rtol)

    @pytest.mark.parametrize("side", ("left", "right"))
    @pytest.mark.parametrize("lower", (True, False))
    @pytest.mark.parametrize("trans", ("N", "T", "C"))
    @pytest.mark.parametrize("unit", (True, False))
    def test_trsm(self, be, dtype, rng, side, lower, trans, unit):
        n, k = 6, 3
        a = _tri(rng, n, dtype, lower, unit)
        op = {"N": a, "T": a.T, "C": a.conj().T}[trans]
        rtol = 200 * RTOL[dtype]
        if side == "left":
            b = _rand(rng, (n, k), dtype)
            x = be.trsm(a, b, side=side, lower=lower, trans=trans,
                        unit_diagonal=unit)
            np.testing.assert_allclose(op @ x, b, rtol=rtol, atol=rtol)
        else:
            b = _rand(rng, (k, n), dtype)
            x = be.trsm(a, b, side=side, lower=lower, trans=trans,
                        unit_diagonal=unit)
            np.testing.assert_allclose(x @ op, b, rtol=rtol, atol=rtol)

    @pytest.mark.parametrize("lower", (True, False))
    @pytest.mark.parametrize("trans", ("N", "T", "C"))
    @pytest.mark.parametrize("unit", (True, False))
    def test_panel_trsm(self, be, dtype, rng, lower, trans, unit):
        n, k = 6, 4
        a = _tri(rng, n, dtype, lower, unit)
        b = _rand(rng, (n, k), dtype)
        op = {"N": a, "T": a.T, "C": a.conj().T}[trans]
        x = be.panel_trsm(a, b, lower=lower, trans=trans,
                          unit_diagonal=unit)
        rtol = 200 * RTOL[dtype]
        np.testing.assert_allclose(op @ x, b, rtol=rtol, atol=rtol)

    def test_panel_trsm_reads_only_requested_triangle(self, be, dtype,
                                                      rng):
        """LAPACK-packed diagonal blocks carry L and U in one array; the
        panel solve must ignore the opposite triangle."""
        a = _tri(rng, 5, dtype, lower=True, unit=False)
        packed = a + np.triu(_rand(rng, (5, 5), dtype), 1)  # garbage above
        b = _rand(rng, (5, 2), dtype)
        x_clean = be.panel_trsm(a, b, lower=True)
        x_packed = be.panel_trsm(packed, b, lower=True)
        np.testing.assert_array_equal(x_clean, x_packed)

    def test_panel_gemm(self, be, dtype, rng):
        """``op(a) @ x`` for the plain, transposed and adjoint forms — the
        last two on a row slice of a larger panel, read in place — and on
        panels without rows or without columns."""
        panel = _rand(rng, (9, 4), dtype)
        for trans, a in (("N", panel[:6]), ("T", panel[2:8]),
                         ("C", panel[2:8])):
            op = {"N": a, "T": a.T, "C": a.conj().T}[trans]
            x = _rand(rng, (op.shape[1], 3), dtype)
            before = panel.copy()
            np.testing.assert_allclose(be.panel_gemm(a, x, trans), op @ x,
                                       rtol=RTOL[dtype], atol=RTOL[dtype])
            np.testing.assert_array_equal(panel, before)
            for aa, xx in ((a[:0], x if trans == "N" else x[:0]),
                           (a, x[:, :0])):
                out = be.panel_gemm(aa, xx, trans)
                ref = {"N": aa, "T": aa.T, "C": aa.conj().T}[trans] @ xx
                assert out.shape == ref.shape and out.dtype == ref.dtype
                np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("mode", ("n", "t", "h"))
    def test_lr_apply(self, be, dtype, rng, mode):
        u = _rand(rng, (6, 2), dtype)
        v = _rand(rng, (5, 2), dtype)
        x = _rand(rng, (5 if mode == "n" else 6, 3), dtype)
        block = u @ v.T
        ref = {"n": block, "t": block.T, "h": block.conj().T}[mode] @ x
        np.testing.assert_allclose(be.lr_apply(u, v, x, mode=mode), ref,
                                   rtol=10 * RTOL[dtype],
                                   atol=10 * RTOL[dtype])

    def test_ldlt_pivot(self, be, dtype, rng):
        n = 8
        m = _rand(rng, (n, n), dtype)
        hermitian = np.dtype(dtype).kind == "c"
        a = m + (m.conj().T if hermitian else m.T)
        a[0, 0] = 0.0  # forces at least one interchange or 2x2 pivot
        packed, perm, d21, stats = be.ldlt_pivot(np.ascontiguousarray(a))
        assert sorted(perm.tolist()) == list(range(n))
        assert set(stats) >= {"swaps", "n2x2", "perturbed", "growth"}
        assert stats["swaps"] + stats["n2x2"] > 0
        assert stats["perturbed"] == 0
        lmat = np.tril(packed, -1) + np.eye(n, dtype=packed.dtype)
        d = np.diag(np.diag(packed)).astype(packed.dtype)
        for j in np.flatnonzero(d21):
            d[j + 1, j] = d21[j]
            d[j, j + 1] = np.conj(d21[j]) if hermitian else d21[j]
        rec = lmat @ d @ (lmat.conj().T if hermitian else lmat.T)
        ap = a[np.ix_(perm, perm)]
        tol = 200 * RTOL[dtype] * np.abs(a).max()
        np.testing.assert_allclose(rec, ap, rtol=0, atol=tol)

    @pytest.mark.parametrize("mode", ("n", "t", "h"))
    def test_lr_apply_rank_zero(self, be, dtype, rng, mode):
        u = np.zeros((6, 0), dtype=dtype)
        v = np.zeros((5, 0), dtype=dtype)
        x = _rand(rng, (5 if mode == "n" else 6, 3), dtype)
        out = be.lr_apply(u, v, x, mode=mode)
        assert out.shape == ((6, 3) if mode == "n" else (5, 3))
        assert out.dtype == np.result_type(u, v, x)
        assert not out.any()


# ----------------------------------------------------------------------
# the column-stability contract (bitwise, every dtype)
# ----------------------------------------------------------------------

@kernels
@dtypes
class TestColumnStability:
    """Panel kernels: column j of a blocked result == the single-column
    result, bit for bit, at every panel width."""

    def test_panel_trsm_width_invariant(self, be, dtype, rng):
        """Column j of a panel solve is the single-column ``trtrs`` solve,
        bit for bit: every triangle, transpose, diagonal and memory order
        of a packed ``a`` (the other triangle holds garbage), and k = 0."""
        n = 12
        for lower, trans, unit, order in itertools.product(
                (True, False), "NTC", (True, False), "CF"):
            a = _tri(rng, n, dtype, lower, unit)
            a = a + (np.triu(a.T + 3, 1) if lower else np.tril(a.T + 3, -1))
            a = np.array(a, order=order)
            kw = dict(lower=lower, trans=trans, unit_diagonal=unit)
            b = _rand(rng, (n, 7), dtype)
            full = be.panel_trsm(a, b, **kw)
            assert full.dtype == dtype and full.shape == b.shape
            for j in range(7):
                col = _solve_triangular(a, b[:, j:j + 1], trans, lower, unit)
                np.testing.assert_array_equal(full[:, j:j + 1], col)
                np.testing.assert_array_equal(
                    be.panel_trsm(a, b[:, j:j + 1], **kw), col)
            empty = be.panel_trsm(a, b[:, :0], **kw)
            assert empty.shape == (n, 0) and empty.dtype == dtype

    def test_panel_trsm_mixed_dtypes(self, be, dtype, rng):
        """Float32 storage against a float64 panel and the reverse: ``a``
        is converted once per call, to the same bits ``trtrs`` would
        convert it to per column."""
        other = {"f": np.float64, "c": np.complex128}[np.dtype(dtype).kind]
        if np.dtype(dtype).itemsize == np.dtype(other).itemsize:
            other = {"f": np.float32, "c": np.complex64}[np.dtype(dtype).kind]
        for trans, order in itertools.product("NTC", "CF"):
            a = np.array(_tri(rng, 9, other, True, False), order=order)
            b = _rand(rng, (9, 4), dtype)
            full = be.panel_trsm(a, b, lower=True, trans=trans)
            assert full.dtype == np.result_type(a, b)
            for j in range(4):
                np.testing.assert_array_equal(
                    full[:, j:j + 1],
                    _solve_triangular(a, b[:, j:j + 1], trans, True))

    def test_panel_gemm_width_invariant(self, be, dtype, rng):
        a = _rand(rng, (9, 6), dtype)
        for trans in "NTC":
            x = _rand(rng, (6 if trans == "N" else 9, 5), dtype)
            full = be.panel_gemm(a, x, trans)
            for j in range(5):
                single = be.panel_gemm(a, x[:, j:j + 1], trans)
                np.testing.assert_array_equal(full[:, j:j + 1], single)

    def test_lr_apply_width_invariant(self, be, dtype, rng):
        u = _rand(rng, (8, 3), dtype)
        v = _rand(rng, (6, 3), dtype)
        x = _rand(rng, (6, 4), dtype)
        full = be.lr_apply(u, v, x)
        for j in range(4):
            single = be.lr_apply(u, v, x[:, j:j + 1])
            np.testing.assert_array_equal(full[:, j:j + 1], single)


# ----------------------------------------------------------------------
# end-to-end: blocked solves, and the seed digest pins
# ----------------------------------------------------------------------

@kernels
class TestEndToEnd:
    @pytest.mark.parametrize("strategy",
                             ("dense", "just-in-time", "minimal-memory"))
    def test_blocked_solve_matches_columns(self, be, strategy):
        rng = np.random.default_rng(7)
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy=strategy, tolerance=1e-8))
        s.factorize()
        b = rng.standard_normal((a.n, 5))
        x = s.solve(b)
        for j in range(5):
            np.testing.assert_array_equal(
                x[:, j], s.solve(np.ascontiguousarray(b[:, j])))

    def test_backend_recorded_in_stats(self, be):
        a = laplacian_3d(4)
        s = Solver(a, tiny_blr_config())
        s.factorize()
        assert s.factor.backend is be
        calls = s.stats.backend_kernel_calls
        assert calls.get("getrf", 0) > 0
        s.solve(np.ones(a.n))
        assert calls.get("panel_trsm", 0) > 0


class TestSeedBitCompatibility:
    """The kernels reproduce the pinned float64 factors bit-for-bit
    (sha256 over every factor array)."""

    @pytest.mark.parametrize("strategy,factotype", sorted(SEED_DIGESTS))
    def test_factor_digest_pinned(self, strategy, factotype):
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(strategy=strategy, factotype=factotype,
                                      tolerance=1e-8))
        s.factorize()
        assert factor_digest(s.factor) == SEED_DIGESTS[(strategy, factotype)]
