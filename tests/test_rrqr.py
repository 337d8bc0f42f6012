"""Tests for the RRQR compression kernel (both implementations)."""

import itertools

import numpy as np
import pytest

from repro.lowrank.rrqr import rrqr, rrqr_compress, rrqr_lapack
from tests.conftest import random_lowrank

IMPLS = {"householder": rrqr, "lapack": rrqr_lapack}


@pytest.mark.parametrize("impl", sorted(IMPLS))
class TestBothImplementations:
    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
    def test_error_bound(self, rng, impl, tol):
        a = random_lowrank(rng, 40, 30, 25, decay=0.45)
        res = IMPLS[impl](a, tol)
        assert res.converged
        approx = res.q @ res.r
        err = np.linalg.norm(a[:, res.jpvt] - approx) / np.linalg.norm(a)
        assert err <= tol * 1.01

    def test_q_orthonormal(self, rng, impl):
        a = random_lowrank(rng, 30, 25, 10)
        res = IMPLS[impl](a, 1e-8)
        r = res.q.shape[1]
        np.testing.assert_allclose(res.q.T @ res.q, np.eye(r), atol=1e-12)

    def test_jpvt_is_permutation(self, rng, impl):
        a = random_lowrank(rng, 20, 16, 8)
        res = IMPLS[impl](a, 1e-10)
        assert sorted(res.jpvt.tolist()) == list(range(16))

    def test_exact_rank_revealed(self, rng, impl):
        u = rng.standard_normal((30, 4))
        v = rng.standard_normal((20, 4))
        res = IMPLS[impl](u @ v.T, 1e-10)
        assert res.q.shape[1] == 4

    def test_max_rank_rejection(self, rng, impl):
        a = rng.standard_normal((16, 16))
        res = IMPLS[impl](a, 1e-14, max_rank=4)
        assert not res.converged

    def test_zero_matrix(self, impl):
        res = IMPLS[impl](np.zeros((5, 4)), 1e-8)
        assert res.converged
        assert res.q.shape[1] == 0

    def test_full_rank_small_matrix_exact(self, rng, impl):
        a = rng.standard_normal((6, 6))
        res = IMPLS[impl](a, 1e-15)
        assert res.converged
        np.testing.assert_allclose(res.q @ res.r, a[:, res.jpvt],
                                   atol=1e-12)


class TestEarlyExit:
    """The property Table 1 leans on: the Householder implementation stops
    after ~rank steps, not min(m, n)."""

    def test_rank_steps_only(self, rng):
        a = random_lowrank(rng, 200, 100, 5, decay=0.1)
        res = rrqr(a, 1e-8)
        # revealed rank must be near 5, far below min(m, n) = 100
        assert res.q.shape[1] <= 8

    def test_work_scales_with_rank_not_size(self, rng):
        """Doubling n at fixed rank must not change the revealed rank, and
        the Q factor stays skinny (the Θ(mnr) claim)."""
        for n in (50, 100, 200):
            a = random_lowrank(rng, 60, n, 6, decay=0.2)
            res = rrqr(a, 1e-8)
            assert res.q.shape[1] <= 9


class TestCompressWrapper:
    def test_compress_undoes_permutation(self, rng):
        a = random_lowrank(rng, 30, 24, 10, decay=0.4)
        lr = rrqr_compress(a, 1e-8)
        err = np.linalg.norm(a - lr.to_dense()) / np.linalg.norm(a)
        assert err <= 1e-8 * 1.05

    def test_compress_cap_returns_none(self, rng):
        a = rng.standard_normal((12, 12))
        assert rrqr_compress(a, 1e-14, max_rank=3) is None

    def test_compress_empty(self):
        lr = rrqr_compress(np.zeros((0, 5)), 1e-8)
        assert lr.shape == (0, 5)

    def test_rank_monotone_in_tolerance(self, rng):
        a = random_lowrank(rng, 40, 40, 30, decay=0.6)
        ranks = [rrqr_compress(a, tol).rank for tol in (1e-2, 1e-6, 1e-10)]
        assert ranks == sorted(ranks)

    def test_svd_rank_not_larger_than_rrqr(self, rng):
        """Paper §3.1: 'for a given tolerance, SVD returns lower ranks'."""
        from repro.lowrank.svd import svd_compress
        a = random_lowrank(rng, 50, 40, 30, decay=0.7)
        for tol in (1e-4, 1e-8):
            r_svd = svd_compress(a, tol).rank
            r_rrqr = rrqr_compress(a, tol).rank
            assert r_svd <= r_rrqr + 1


class TestImplementationAgreement:
    def test_same_rank_revealed(self, rng):
        for _ in range(5):
            a = random_lowrank(rng, 35, 28,
                               int(rng.integers(3, 20)), decay=0.35)
            r1 = rrqr(a, 1e-8).q.shape[1]
            r2 = rrqr_lapack(a, 1e-8).q.shape[1]
            assert abs(r1 - r2) <= 1


class TestDtypePreservation:
    """The float32 path must stay float32 end-to-end (no float64 workspaces).

    Regression test for the dtype-unaware workspaces solverlint's
    dtype-literal-promotion rule caught: ``w``, ``vs``/``taus``, ``r_mat``
    and ``_form_q``'s accumulator all allocated float64 regardless of the
    input dtype, silently doubling memory traffic and destroying the
    mixed-precision storage win on single-precision blocks.
    """

    def _tracking_zeros(self, record):
        real_zeros = np.zeros

        def zeros(*args, **kwargs):
            out = real_zeros(*args, **kwargs)
            record.append(out.dtype)
            return out

        return zeros

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_householder_result_dtypes(self, rng, dtype):
        a = random_lowrank(rng, 30, 24, 8).astype(dtype)
        res = rrqr(a, 1e-3)
        assert res.q.dtype == dtype
        assert res.r.dtype == dtype

    def test_no_float64_intermediates_on_float32(self, rng, monkeypatch):
        import importlib
        rrqr_mod = importlib.import_module("repro.lowrank.rrqr")
        a = random_lowrank(rng, 30, 24, 8).astype(np.float32)
        allocated = []
        monkeypatch.setattr(rrqr_mod.np, "zeros",
                            self._tracking_zeros(allocated))
        res = rrqr_mod.rrqr(a, 1e-3)
        assert res.converged
        assert allocated, "tracking hook never fired"
        assert all(dt == np.float32 for dt in allocated), allocated

    def test_compress_preserves_float32(self, rng):
        a = random_lowrank(rng, 30, 24, 6).astype(np.float32)
        lr = rrqr_compress(a, 1e-3)
        assert lr.u.dtype == np.float32
        assert lr.v.dtype == np.float32

    def test_integer_input_promotes_once_to_float64(self):
        a = np.arange(12, dtype=np.int64).reshape(4, 3)
        res = rrqr(a, 1e-10)
        assert res.q.dtype == np.float64
        assert res.r.dtype == np.float64


def _scipy_rrqr(a, tol, max_rank=None, norm_ref=None):
    """The reference: ``scipy.linalg.qr`` (economic, pivoted), truncated
    as ``rrqr_lapack`` truncates."""
    import scipy.linalg as sla

    q, r, jpvt = sla.qr(a, mode="economic", pivoting=True,
                        check_finite=False)
    row_sq = np.einsum("ij,ij->i", r.conj(), r).real
    tail = np.sqrt(np.maximum(np.cumsum(row_sq[::-1])[::-1], 0.0))
    norm_a = float(tail[0]) if tail.size else 0.0
    scale = max(norm_a, norm_ref or 0.0)
    if scale == 0.0:
        rank = 0
    else:
        ok = np.flatnonzero(tail <= tol * scale)
        rank = int(ok[0]) if ok.size else int(r.shape[0])
    if max_rank is not None and rank > max_rank:
        return q[:, :0], r[:0], jpvt.astype(np.int64), False
    return (np.ascontiguousarray(q[:, :rank]),
            np.ascontiguousarray(r[:rank]), jpvt.astype(np.int64), True)


def _shaped(kind, m, n, dtype, rng):
    if kind == "zero":
        a = np.zeros((m, n))
    elif kind == "deficient":
        a = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
    else:
        a = random_lowrank(rng, m, n, min(m, n), decay=0.6)
    if np.dtype(dtype).kind == "c":
        a = a + 1j * random_lowrank(rng, m, n, min(m, n), decay=0.6)
    return a.astype(dtype)


RRQR_DTYPES = [np.float32, np.float64, np.complex64, np.complex128]
SHAPES = {"tall": (40, 12), "wide": (12, 40), "square": (20, 20),
          "row": (1, 9), "column": (9, 1)}


class TestBoundRoutinesMatchScipy:
    """``rrqr_lapack`` calls the bound ``?geqp3`` / ``?orgqr`` itself; its
    ``q``, ``r``, ``jpvt`` and ``converged`` are scipy's, bit for bit."""

    @pytest.mark.parametrize("kind", ["decaying", "deficient", "zero"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("dtype", RRQR_DTYPES,
                             ids=lambda d: np.dtype(d).name)
    def test_bit_identical(self, rng, dtype, shape, kind):
        a = _shaped(kind, *SHAPES[shape], dtype, rng)
        for order, tol, max_rank, norm_ref in itertools.product(
                "CF", (1e-2, 1e-6), (None, 2), (None, 1e3)):
            block = np.array(a, order=order)
            want = _scipy_rrqr(block, tol, max_rank, norm_ref)
            got = rrqr_lapack(block, tol, max_rank, norm_ref)
            for w, g in zip(want[:3], got[:3]):
                assert g.dtype == w.dtype and g.shape == w.shape
                np.testing.assert_array_equal(g, w)
            assert got.converged == want[3]

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
    def test_empty_block(self, shape):
        a = np.zeros(shape)
        want, got = _scipy_rrqr(a, 1e-8), rrqr_lapack(a, 1e-8)
        for w, g in zip(want[:3], got[:3]):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, w)
        assert got.converged

    def test_rejected_call_never_forms_q(self, rng, monkeypatch):
        import importlib

        rrqr_mod = importlib.import_module("repro.lowrank.rrqr")
        real = rrqr_mod.qr_routines
        formed = []

        def spying(dtype):
            geqp3, orgqr = real(dtype)

            def orgqr_spy(*args, **kwargs):
                if kwargs.get("lwork") != -1:  # not a workspace query
                    formed.append(args[0].shape)
                return orgqr(*args, **kwargs)

            return geqp3, orgqr_spy

        monkeypatch.setattr(rrqr_mod, "qr_routines", spying)
        rrqr_mod._qr_lwork.cache_clear()
        a = rng.standard_normal((16, 16))
        rejected = rrqr_mod.rrqr_lapack(a, 1e-14, max_rank=4)
        assert not rejected.converged and rejected.q.shape == (16, 0)
        assert formed == []
        kept = rrqr_mod.rrqr_lapack(random_lowrank(rng, 16, 16, 3), 1e-8,
                                    max_rank=4)
        assert kept.converged and formed == [(16, 16)]
        rrqr_mod._qr_lwork.cache_clear()

    def test_lapack_failure_is_a_compress_failure(self, monkeypatch):
        """A failing bound ``geqp3`` raises ``LinAlgError``: the block stays
        dense and the run records a ``compress_failure`` with no policy."""
        import importlib

        from repro import Solver
        from repro.sparse.generators import laplacian_3d
        from tests.conftest import tiny_blr_config

        rrqr_mod = importlib.import_module("repro.lowrank.rrqr")
        real = rrqr_mod.qr_routines
        calls = []

        def failing_once(dtype):
            geqp3, orgqr = real(dtype)

            def geqp3_fails(a, lwork):
                out = geqp3(a, lwork=lwork)
                if lwork == -1:  # a workspace query
                    return out
                calls.append(a.shape)
                return (*out[:-1], -1 if len(calls) == 1 else out[-1])

            return geqp3_fails, orgqr

        monkeypatch.setattr(rrqr_mod, "qr_routines", failing_once)
        a = laplacian_3d(8)
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      tolerance=1e-4))
        s.factorize()
        rec = s.last_recovery
        assert len(calls) > 1
        assert rec["policy"] is None
        assert rec["counts"] == {"compress_failure": 1}
        assert rec["actions"][0]["site"] == "rrqr"
        b = np.ones(a.n)
        assert s.backward_error(s.solve(b), b) <= 1e-3
