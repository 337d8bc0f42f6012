"""Kernel conformance suite.

The kernel module (:data:`repro.core.backend.KERNELS`) must pass the
kernel-level golden checks — gemm / trsm / panel solves on dense and
low-rank blocks, across all four dtypes — plus the contracts the solver
relies on:

* **column stability** of the solve's stacked products (``trtrs_rows``,
  ``stable_gemv``, ``lr_gemv``, driven below through one ``(n, k)`` panel
  each): column ``j`` of a blocked result is bit-identical to the
  single-column result, whatever the panel width;
* **pinned bits**: float64 factorizations reproduce the sha256 digests of
  their factors pinned in ``tests/golden/pins.json``, the factotype paths
  their factors and solves, and ``trsm`` the bits of
  ``scipy.linalg.solve_triangular``.

A change meant to move a pin re-pins it in one step,
``PYTHONPATH=src python -m tools.repin --pr N --reason "..."``: it
recomputes every pin (``tests/pins.py``), rewrites only the entries that
moved with the change's number and reason, and prints η∞, flops and bytes
of each moved factor before and after.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import scipy.linalg as sla

from repro.core.backend import (
    KERNELS,
    _solve_triangular,
    lr_gemv,
    stable_gemv,
    trtrs_routine,
    trtrs_rows,
)
from repro.core.solver import Solver
from repro.sparse.generators import laplacian_3d
from tests import pins
from tests.conftest import ldlt_reconstruct, tiny_blr_config

DTYPES = (np.float32, np.float64, np.complex64, np.complex128)

#: relative tolerance per dtype for value-level (not bitwise) checks
RTOL = {
    np.float32: 5e-5,
    np.float64: 1e-12,
    np.complex64: 5e-5,
    np.complex128: 1e-12,
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
# the solve's stacked products on one (n, k) panel: column j is row j
# ----------------------------------------------------------------------

def _stack(x, *ops):
    return np.array(x.T, dtype=np.result_type(x, *ops), order="C")


def panel_trsm(a, b, lower=True, trans="N", unit_diagonal=False):
    """``op(a) X = b`` as the solve runs it: :func:`trtrs_rows` on the
    columns of ``b`` as rows; a fresh array, ``b`` untouched."""
    trtrs = trtrs_routine(a.dtype, b.dtype)
    xt = np.array(b.T, dtype=trtrs.dtype, order="C")
    trtrs_rows(trtrs, a, xt, lower, trans, unit_diagonal)
    return xt.T


def panel_gemm(a, x, trans="N"):
    return stable_gemv(a, _stack(x, a), trans).T


def lr_apply(u, v, x, mode="n"):
    return lr_gemv(u, v, _stack(x, u, v), "NTC"["nth".index(mode)]).T


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
        x = panel_trsm(a, b, lower=lower, trans=trans,
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
        x_clean = panel_trsm(a, b, lower=True)
        x_packed = panel_trsm(packed, b, lower=True)
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
            np.testing.assert_allclose(panel_gemm(a, x, trans), op @ x,
                                       rtol=RTOL[dtype], atol=RTOL[dtype])
            np.testing.assert_array_equal(panel, before)
            for aa, xx in ((a[:0], x if trans == "N" else x[:0]),
                           (a, x[:, :0])):
                out = panel_gemm(aa, xx, trans)
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
        np.testing.assert_allclose(lr_apply(u, v, x, mode=mode), ref,
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
        rec = ldlt_reconstruct(packed, perm, d21, hermitian)
        ap = a[np.ix_(perm, perm)]
        tol = 200 * RTOL[dtype] * np.abs(a).max()
        np.testing.assert_allclose(rec, ap, rtol=0, atol=tol)

    @pytest.mark.parametrize("mode", ("n", "t", "h"))
    def test_lr_apply_rank_zero(self, be, dtype, rng, mode):
        u = np.zeros((6, 0), dtype=dtype)
        v = np.zeros((5, 0), dtype=dtype)
        x = _rand(rng, (5 if mode == "n" else 6, 3), dtype)
        out = lr_apply(u, v, x, mode=mode)
        assert out.shape == ((6, 3) if mode == "n" else (5, 3))
        assert out.dtype == np.result_type(u, v, x)
        assert not out.any()


# ----------------------------------------------------------------------
# the column-stability contract (bitwise, every dtype)
# ----------------------------------------------------------------------

@kernels
@dtypes
class TestColumnStability:
    """Panel solves and products: column j of a blocked result == the
    single-column result, bit for bit, at every panel width."""

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
            full = panel_trsm(a, b, **kw)
            assert full.dtype == dtype and full.shape == b.shape
            for j in range(7):
                col = _solve_triangular(a, b[:, j:j + 1], trans, lower, unit)
                np.testing.assert_array_equal(full[:, j:j + 1], col)
                np.testing.assert_array_equal(
                    panel_trsm(a, b[:, j:j + 1], **kw), col)
            empty = panel_trsm(a, b[:, :0], **kw)
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
            full = panel_trsm(a, b, lower=True, trans=trans)
            assert full.dtype == np.result_type(a, b)
            for j in range(4):
                np.testing.assert_array_equal(
                    full[:, j:j + 1],
                    _solve_triangular(a, b[:, j:j + 1], trans, True))

    def test_panel_gemm_width_invariant(self, be, dtype, rng):
        a = _rand(rng, (9, 6), dtype)
        for trans in "NTC":
            x = _rand(rng, (6 if trans == "N" else 9, 5), dtype)
            full = panel_gemm(a, x, trans)
            for j in range(5):
                single = panel_gemm(a, x[:, j:j + 1], trans)
                np.testing.assert_array_equal(full[:, j:j + 1], single)

    def test_lr_apply_width_invariant(self, be, dtype, rng):
        u = _rand(rng, (8, 3), dtype)
        v = _rand(rng, (6, 3), dtype)
        x = _rand(rng, (6, 4), dtype)
        full = lr_apply(u, v, x)
        for j in range(4):
            single = lr_apply(u, v, x[:, j:j + 1])
            np.testing.assert_array_equal(full[:, j:j + 1], single)


def _one_gemv(a, x, trans):
    """``op(a) @ x`` for one 1-D ``x`` as a lone gemv: ``'N'`` on the
    C-ordered ``a``, ``'T'`` reading ``a`` in place through ``a.T``
    (cast C-ordered when ``a`` is narrower than ``x``), ``'C'`` as
    ``conj(aᵗ conj(x))``."""
    if trans == "N":
        return np.ascontiguousarray(a, dtype=x.dtype) @ x
    op = a.T if a.dtype == x.dtype else np.ascontiguousarray(a.T,
                                                             dtype=x.dtype)
    return op @ x if trans == "T" else (op @ x.conj()).conj()


@dtypes
class TestBatchedGemv:
    """``stable_gemv`` issues one batched ``np.matmul`` over a stack of
    right-hand sides on the assumption that numpy runs it as the same gemv
    per item that a lone 1-D product runs: row ``j`` of the batch must be
    that 1-D gemv, bit for bit, at every stack height."""

    @pytest.mark.parametrize("k", (0, 1, 2, 3, 16))
    def test_rows_are_one_d_gemvs(self, dtype, rng, k):
        wide = {np.float32: np.float64, np.complex64: np.complex128}.get(dtype)
        panel = _rand(rng, (13, 7), dtype)
        cases = [
            ("N", panel, dtype),                         # a C operand
            ("N", _rand(rng, (7, 13), dtype).T, dtype),  # a transposed view
            ("T", panel, dtype),                         # aᵗ read in place
            ("C", panel, dtype),                         # the adjoint
        ]
        if wide is not None:  # a narrow operand against a wide stack
            cases += [(trans, panel, wide) for trans in "NTC"]
        for trans, a, xdtype in cases:
            m, n = a.shape if trans == "N" else a.shape[::-1]
            xt = _rand(rng, (k, n), xdtype)
            out = stable_gemv(a, xt, trans)
            assert out.shape == (k, m) and out.dtype == xt.dtype
            for j in range(k):
                np.testing.assert_array_equal(out[j],
                                              _one_gemv(a, xt[j], trans))

    def test_strided_stack_gives_contiguous_bits(self, dtype, rng):
        """A stack gathered by fancy indexing (not C-ordered) gives the
        bits of its contiguous copy."""
        a = _rand(rng, (9, 6), dtype)
        x = _rand(rng, (5, 20), dtype)
        idx = np.array([1, 4, 5, 9, 12, 17])
        gathered = x[:, idx]
        for trans, operand in (("N", a), ("T", a.T.copy())):
            np.testing.assert_array_equal(
                stable_gemv(operand, gathered, trans),
                stable_gemv(operand, np.ascontiguousarray(gathered), trans))


@dtypes
class TestRowSolves:
    """``trtrs_rows`` solves every row of a stack in place, each row its
    own ``trtrs``: the bits of the single-column solve, whether the row
    lies contiguous in the stack or has to be copied and written back."""

    @pytest.mark.parametrize("order", "CF")
    def test_in_place_rows_match_single_solves(self, dtype, rng, order):
        n, k = 8, 3
        a = _tri(rng, n, dtype, True, False)
        trtrs = trtrs_routine(a.dtype, a.dtype)
        for trans in "NTC":
            stack = np.array(_rand(rng, (k, 20), dtype), order=order)
            before = stack.copy()
            trtrs_rows(trtrs, a, stack[:, 5:5 + n], True, trans)
            for j in range(k):
                ref = _solve_triangular(a, before[j, 5:5 + n][:, None],
                                        trans, True)[:, 0]
                np.testing.assert_array_equal(stack[j, 5:5 + n], ref)
            np.testing.assert_array_equal(stack[:, :5], before[:, :5])
            np.testing.assert_array_equal(stack[:, 5 + n:],
                                          before[:, 5 + n:])


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

    @pytest.mark.parametrize("factotype", ("lu", "cholesky"))
    def test_refinement_charged_to_its_phase(self, be, factotype):
        """Every preconditioner application of ``refine`` (GMRES for LU,
        CG for Cholesky) is one solve's calls, charged to ``refine``."""
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      factotype=factotype, tolerance=1e-2))
        s.factorize()
        b = np.ones(a.n)
        s.solve(b)
        one_solve = dict(s.stats.backend_calls_by_phase["solve"])
        applications = []
        precond = s._precond
        s._precond = lambda r, trans=False: (applications.append(r),
                                             precond(r, trans))[1]
        res = s.refine(b, tol=1e-12)
        assert res.iterations >= 2 and len(applications) >= 2
        charged = s.stats.backend_calls_by_phase["refine"]
        assert charged == {op: len(applications) * n
                           for op, n in one_solve.items()}
        assert s.stats.backend_calls_by_phase["solve"] == one_solve


class TestSeedBitCompatibility:
    """The kernels reproduce the pinned float64 factors bit-for-bit
    (sha256 over every factor array)."""

    @pytest.mark.parametrize("key", pins.cases("seed"))
    def test_factor_digest_pinned(self, key):
        pins.check(key)


class TestFactotypeDigests:
    """One pin per factotype, strategy and dtype over the paths the per-
    factotype code takes: dense and low-rank panel solves, the update
    operands, the solve sweeps; and the D operator on 2×2 pivots."""

    @pytest.mark.parametrize("key", pins.cases("factotype"))
    def test_factor_and_solve_pinned(self, key):
        pins.check(key)

    @pytest.mark.parametrize("key", pins.cases("d-operator"))
    def test_d_operator_with_2x2_pivots_pinned(self, key):
        pins.check(key)
