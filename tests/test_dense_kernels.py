"""Tests for the dense block kernels (LU/Cholesky + right solves) and
their flop models."""

import numpy as np
import pytest

from repro.core import backend
from repro.core.backend import KERNELS
from repro.core.dense_kernels import (
    getrf_flops,
    potrf_flops,
    trsm_flops,
)


def dominant(rng, n):
    a = rng.standard_normal((n, n))
    a += n * np.eye(n)
    return a


class TestLuNoPivot:
    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130])
    def test_reconstruction(self, rng, n):
        a = dominant(rng, n)
        lu, nperturbed = KERNELS.getrf(a)
        assert nperturbed == 0
        l_mat = np.tril(lu, -1) + np.eye(n)
        u = np.triu(lu)
        np.testing.assert_allclose(l_mat @ u, a, rtol=0, atol=1e-10 * n)

    def test_static_pivot_perturbation(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])  # exactly singular
        lu, nperturbed = KERNELS.getrf(a, pivot_threshold=1e-8)
        assert nperturbed >= 1
        assert np.isfinite(lu).all()

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ValueError, match="square"):
            KERNELS.getrf(rng.standard_normal((3, 4)))

    def test_input_not_modified(self, rng):
        a = dominant(rng, 10)
        a0 = a.copy()
        KERNELS.getrf(a)
        np.testing.assert_array_equal(a, a0)


DTYPES = [np.float32, np.float64, np.complex64, np.complex128]

#: kind of diagonal block -> does LAPACK's partial pivoting interchange a
#: row or meet a pivot under the static floor (so the loop must run)?
KINDS = {
    "dominant": False,      # diagonally dominant: no interchange
    "interchange": True,    # |a10| > |a00| and every pivot large
    "singular": True,       # exactly singular (LAPACK info > 0)
    "subfloor": True,       # a pivot under the floor, no interchange
}


def _block(kind, dtype, n, rng):
    a = rng.standard_normal((n, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal((n, n))
    a += 4 * n * np.eye(n)
    if kind == "interchange":
        a[0, 0], a[1, 0] = 0.5, 8 * n
    elif kind == "singular":
        a[:, 1] = 0.0
    elif kind == "subfloor":
        a[2, :] = a[:, 2] = 0.0
        a[2, 2] = 1e-30  # under 1e-14 · max|a_kk|, nothing below it
    return a.astype(dtype)


def _scalar_calls(monkeypatch):
    """Count the tiles the scalar loop (the fallback) factors."""
    calls = []
    real = backend._scalar_tile

    def spy(*args):
        calls.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(backend, "_scalar_tile", spy)
    return calls


class TestGetrfFastPath:
    """``Kernels.getrf`` takes LAPACK ``getrf`` per diagonal tile when that
    tile is the statically pivoted LU, and the scalar loop otherwise."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    def test_fallback_exactly_when_pivoting_is_needed(
            self, rng, monkeypatch, dtype, kind, order):
        n = 24
        a = np.array(_block(kind, dtype, n, rng), order=order)
        a0 = a.copy()
        ref, ref_nperturbed = backend._lu_nopivot(a)
        calls = _scalar_calls(monkeypatch)
        lu, nperturbed = KERNELS.getrf(a)
        np.testing.assert_array_equal(a, a0)  # the input is not modified
        assert lu.dtype == ref.dtype
        assert bool(calls) == KINDS[kind]
        if calls:
            np.testing.assert_array_equal(lu, ref)
            assert nperturbed == ref_nperturbed
            assert (nperturbed > 0) == (kind != "interchange")
        else:
            assert nperturbed == 0
            l_mat = np.tril(lu, -1) + np.eye(n, dtype=lu.dtype)
            eps = np.finfo(lu.dtype).eps
            np.testing.assert_allclose(
                l_mat @ np.triu(lu), a, rtol=0,
                atol=8 * n * eps * np.abs(a).max())

    @pytest.mark.parametrize("n", [64, 65, 130])
    def test_every_tile_by_lapack_on_a_wide_block(self, rng, monkeypatch,
                                                  n):
        a = _block("dominant", np.float64, n, rng)
        calls = _scalar_calls(monkeypatch)
        lu, nperturbed = KERNELS.getrf(a)
        assert not calls and nperturbed == 0
        np.testing.assert_allclose(np.tril(lu, -1) @ np.triu(lu)
                                   + np.triu(lu), a, rtol=0,
                                   atol=1e-12 * n * np.abs(a).max())

    def test_refused_late_tile_restarts_the_loop(self, rng, monkeypatch):
        """A block whose second tile needs an interchange is the loop's
        result bit for bit, although its first tile was LAPACK's."""
        a = _block("dominant", np.float64, 100, rng)
        a[70, 70] = 0.0  # Schur complement pivot ~0, larger entries below
        ref = backend._lu_nopivot(a)
        lapack, real = [], backend._lapack_tile

        def lapack_spy(*args):
            lapack.append(real(*args))
            return lapack[-1]

        monkeypatch.setattr(backend, "_lapack_tile", lapack_spy)
        calls = _scalar_calls(monkeypatch)
        lu, nperturbed = KERNELS.getrf(a)
        assert lapack == [0, -1]  # first tile kept, second refused
        assert calls[0] == (0, 64)  # the loop ran from the first tile
        np.testing.assert_array_equal(lu, ref[0])
        assert nperturbed == ref[1]

    @pytest.mark.parametrize("where", [(0, 0), (5, 5), (23, 0), (0, 23)])
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    def test_nan_entry_propagates(self, rng, dtype, where):
        a = _block("dominant", dtype, 24, rng)
        a[where] = np.nan
        a0 = a.copy()
        with np.errstate(invalid="ignore"):
            lu, _ = KERNELS.getrf(a)
        np.testing.assert_array_equal(a, a0)
        assert not np.isfinite(lu).all()

    def test_nan_factor_sentinel_fires(self, monkeypatch):
        """A NaN that reaches the diagonal factorization (the input
        sentinel switched off) is caught by the post-factor sentinel."""
        import repro.core.factorization as factorization
        from repro import Solver
        from repro.runtime.faults import FaultInjector
        from repro.runtime.recovery import NumericalBreakdown, RecoveryPolicy
        from repro.sparse.generators import laplacian_3d
        from tests.conftest import tiny_blr_config

        monkeypatch.setattr(factorization, "_breakdown_check_input",
                            lambda fac, k: None)
        s = Solver(laplacian_3d(5), tiny_blr_config(
            strategy="dense", recovery=RecoveryPolicy(max_retries=0)))
        root = len(s.analyze().cblks) - 1  # no off-diagonal block
        inj = FaultInjector()
        inj.nan_in_panel(root)  # poisons its diagonal block
        with pytest.raises(NumericalBreakdown) as ei:
            s.factorize(faults=inj)
        assert (ei.value.cause, ei.value.cblk) == ("nan-factor", root)

    def test_dtype_without_a_lapack_routine_takes_the_loop(self, rng,
                                                            monkeypatch):
        a = _block("dominant", np.float16, 6, rng)
        calls = _scalar_calls(monkeypatch)
        lu, _ = KERNELS.getrf(a)
        assert calls and lu.dtype == np.float16
        np.testing.assert_array_equal(lu, backend._lu_nopivot(a)[0])


def _hermitian_block(kind, dtype, n, rng):
    """A symmetric (Hermitian for complex) :func:`_block`: the same kinds,
    mirrored from the lower triangle."""
    a = _block(kind, dtype, n, rng)
    low = np.tril(a, -1)
    a = low + low.conj().T + np.diag(np.diag(a).real)
    if kind == "interchange":
        a[0, 1] = np.conj(a[1, 0])
    elif kind == "singular":
        a[1, :] = 0.0  # a zero row and column: D_11 is exactly zero
    return a.astype(dtype)


def _loop_calls(monkeypatch):
    """Count the blocks the LDLᵗ loop (the fallback) factors."""
    calls = []
    real = backend._ldlt_nopivot

    def spy(a, *args):
        calls.append(a.shape)
        return real(a, *args)

    monkeypatch.setattr(backend, "_ldlt_nopivot", spy)
    return calls


#: digests of ``Kernels.ldlt`` on the LAPACK path, printed by a child
#: interpreter for one BLAS thread count
_LDLT_THREADS_SCRIPT = """
import hashlib
import numpy as np
from repro.core.backend import KERNELS
rng = np.random.default_rng(7)
out = []
for dtype in (np.float32, np.float64, np.complex64, np.complex128):
    for n in (8, 64, 100, 200):
        a = rng.standard_normal((n, n))
        if np.dtype(dtype).kind == "c":
            a = a + 1j * rng.standard_normal((n, n))
        a = (a + a.conj().T + 4 * n * np.eye(n)).astype(dtype)
        packed, nperturbed = KERNELS.ldlt(a)
        assert nperturbed == 0
        out.append(hashlib.sha256(np.tril(packed).tobytes()).hexdigest())
print(" ".join(out))
"""


class TestLdltFastPath:
    """``Kernels.ldlt`` takes LAPACK ``?sytrf`` / ``?hetrf`` when that is
    the statically pivoted LDLᵗ (LDLᴴ), and the loop otherwise."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    def test_fallback_exactly_when_pivoting_is_needed(
            self, rng, monkeypatch, dtype, kind, order):
        n = 24
        a = np.array(_hermitian_block(kind, dtype, n, rng), order=order)
        a0 = a.copy()
        ref, ref_nperturbed = backend._ldlt_nopivot(a)
        calls = _loop_calls(monkeypatch)
        packed, nperturbed = KERNELS.ldlt(a)
        np.testing.assert_array_equal(a, a0)  # the input is not modified
        assert packed.dtype == ref.dtype
        assert bool(calls) == KINDS[kind]
        if calls:
            np.testing.assert_array_equal(packed, ref)
            assert nperturbed == ref_nperturbed
            assert (nperturbed > 0) == (kind != "interchange")
        else:
            assert nperturbed == 0
            low = np.tril(packed, -1) + np.eye(n, dtype=packed.dtype)
            d = np.diag(packed)
            assert (d.imag == 0).all()
            eps = np.finfo(packed.dtype).eps
            np.testing.assert_allclose(
                (low * d) @ low.conj().T, a, rtol=0,
                atol=8 * n * eps * np.abs(a).max())
            np.testing.assert_allclose(np.tril(packed), np.tril(ref),
                                       rtol=0, atol=8 * n * eps)

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    def test_reads_the_lower_triangle_only(self, rng, dtype):
        a = _hermitian_block("dominant", dtype, 40, rng)
        junk = a.copy()
        junk[np.triu_indices(40, 1)] = 1e3
        want, _ = KERNELS.ldlt(a)
        got, _ = KERNELS.ldlt(junk)
        np.testing.assert_array_equal(np.tril(got), np.tril(want))

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    def test_nan_entry_propagates(self, rng, dtype):
        a = _hermitian_block("dominant", dtype, 24, rng)
        a[5, 0] = np.nan
        with np.errstate(invalid="ignore"):
            packed, _ = KERNELS.ldlt(a)
        assert not np.isfinite(packed).all()

    def test_dtype_without_a_lapack_routine_takes_the_loop(self, rng,
                                                            monkeypatch):
        a = _hermitian_block("dominant", np.float16, 6, rng)
        calls = _loop_calls(monkeypatch)
        packed, _ = KERNELS.ldlt(a)
        assert calls and packed.dtype == np.float16
        np.testing.assert_array_equal(packed, backend._ldlt_nopivot(a)[0])

    def test_same_bits_on_one_to_four_blas_threads(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(backend.__file__).resolve().parents[2])
        digests = set()
        for threads in range(1, 5):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       OMP_NUM_THREADS=str(threads), PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", _LDLT_THREADS_SCRIPT], env=env,
                capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1


class TestCholeskyNoPivot:
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_reconstruction(self, rng, n):
        b = rng.standard_normal((n, n))
        a = b @ b.T + n * np.eye(n)
        l_mat, nperturbed = KERNELS.potrf(a)
        assert nperturbed == 0
        np.testing.assert_allclose(l_mat @ l_mat.T, a, atol=1e-9 * n)

    def test_regularizes_semidefinite(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])  # PSD, rank 1
        l_mat, nperturbed = KERNELS.potrf(a, pivot_threshold=1e-10)
        assert np.isfinite(l_mat).all()
        assert nperturbed >= 1

    def test_lower_triangular_output(self, rng):
        a = dominant(rng, 6)
        a = (a + a.T) / 2 + 6 * np.eye(6)
        l_mat, _ = KERNELS.potrf(a)
        assert np.allclose(np.triu(l_mat, 1), 0)


class TestRightSolves:
    def test_solve_upper_right(self, rng):
        u = np.triu(dominant(rng, 6))
        b = rng.standard_normal((4, 6))
        x = KERNELS.trsm(u, b, side="right", lower=False)
        np.testing.assert_allclose(x @ u, b, atol=1e-10)

    def test_solve_unit_lower_right(self, rng):
        l_mat = np.tril(rng.standard_normal((6, 6)), -1) + np.eye(6)
        b = rng.standard_normal((4, 6))
        x = KERNELS.trsm(l_mat, b, side="right", trans="T",
                         unit_diagonal=True)
        np.testing.assert_allclose(x @ l_mat.T, b, atol=1e-10)

    def test_solve_lower_right(self, rng):
        l_mat = np.tril(dominant(rng, 6))
        b = rng.standard_normal((4, 6))
        x = KERNELS.trsm(l_mat, b, side="right", trans="T")
        np.testing.assert_allclose(x @ l_mat.T, b, atol=1e-10)

    def test_unit_diagonal_ignores_stored_diag(self, rng):
        """The packed LU layout stores U's diagonal where L's unit diagonal
        lives; the unit-lower solve must ignore it."""
        lu = dominant(rng, 5)  # arbitrary diagonal
        b = rng.standard_normal((3, 5))
        x = KERNELS.trsm(lu, b, side="right", trans="T",
                         unit_diagonal=True)
        l_unit = np.tril(lu, -1) + np.eye(5)
        np.testing.assert_allclose(x @ l_unit.T, b, atol=1e-10)


class TestFlopModels:
    def test_values(self):
        assert getrf_flops(6) == pytest.approx(144.0)
        assert potrf_flops(6) == pytest.approx(72.0)
        assert trsm_flops(4, 5) == 80
