"""Tests for the SVD compression kernel."""

import numpy as np
import pytest

from repro.lowrank.recompress import recompress_svd
from repro.lowrank.svd import svd_compress, svd_truncate
from tests.conftest import random_lowrank


class TestTruncationRule:
    def test_exact_rank_found(self):
        sigma = np.array([1.0, 0.5, 1e-12, 1e-13])
        assert svd_truncate(sigma, 1e-8) == 2

    def test_keep_everything_when_tight(self):
        sigma = np.array([1.0, 0.9, 0.8])
        assert svd_truncate(sigma, 1e-15) == 3

    def test_rank_zero_when_loose(self):
        sigma = np.array([1.0, 0.5])
        assert svd_truncate(sigma, 2.0) == 0

    def test_empty_sigma(self):
        assert svd_truncate(np.array([]), 1e-8) == 0

    def test_zero_matrix(self):
        assert svd_truncate(np.zeros(4), 1e-8) == 0

    def test_tail_criterion_is_frobenius(self):
        # three equal small values: individually below τσ₁ but the tail
        # in Frobenius must be counted together
        sigma = np.array([1.0, 6e-9, 6e-9, 6e-9])
        # tail after rank 1 is sqrt(3)*6e-9 ≈ 1.04e-8 > 1e-8·||A||
        assert svd_truncate(sigma, 1e-8) > 1


class TestCompression:
    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
    def test_error_bound(self, rng, tol):
        a = random_lowrank(rng, 40, 30, 25, decay=0.45)
        lr = svd_compress(a, tol)
        err = np.linalg.norm(a - lr.to_dense()) / np.linalg.norm(a)
        assert err <= tol * 1.01

    def test_u_is_orthonormal(self, rng):
        a = random_lowrank(rng, 30, 30, 12)
        lr = svd_compress(a, 1e-8)
        np.testing.assert_allclose(lr.u.T @ lr.u, np.eye(lr.rank),
                                   atol=1e-12)

    def test_exact_lowrank_matrix_recovered(self, rng):
        u = rng.standard_normal((20, 3))
        v = rng.standard_normal((15, 3))
        lr = svd_compress(u @ v.T, 1e-10)
        assert lr.rank == 3

    def test_max_rank_rejection(self, rng):
        a = rng.standard_normal((20, 20))  # full rank
        assert svd_compress(a, 1e-12, max_rank=5) is None

    def test_zero_matrix(self):
        lr = svd_compress(np.zeros((6, 4)), 1e-8)
        assert lr.rank == 0

    def test_empty_dimension(self):
        lr = svd_compress(np.zeros((0, 4)), 1e-8)
        assert lr.shape == (0, 4)

    def test_gesdd_failure_falls_back_to_gesvd(self, rng, monkeypatch):
        """When the divide-and-conquer driver does not converge, the
        QR-iteration driver is tried before giving up."""
        import repro.lowrank.svd as svdmod

        real_svd = svdmod.sla.svd
        drivers = []

        def flaky(a, **kw):
            drivers.append(kw.get("lapack_driver"))
            if kw.get("lapack_driver") == "gesdd":
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, **kw)

        monkeypatch.setattr(svdmod.sla, "svd", flaky)
        a = random_lowrank(rng, 30, 20, 10, decay=0.4)
        lr = svd_compress(a, 1e-8)
        assert drivers == ["gesdd", "gesvd"]
        err = np.linalg.norm(a - lr.to_dense()) / np.linalg.norm(a)
        assert err <= 1e-8 * 1.01

    def test_double_driver_failure_propagates(self, rng, monkeypatch):
        import repro.lowrank.svd as svdmod

        def broken(a, **kw):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(svdmod.sla, "svd", broken)
        with pytest.raises(np.linalg.LinAlgError):
            svd_compress(rng.standard_normal((12, 10)), 1e-8)

    def test_compress_block_keeps_dense_on_kernel_failure(self, rng,
                                                          monkeypatch):
        """compress_block turns a LinAlgError into a keep-dense verdict
        and records it on the run's recovery record."""
        import repro.lowrank.svd as svdmod
        from repro.lowrank.kernels import compress_block
        from repro.runtime.recovery import RecoveryState
        from repro.runtime.stats import KernelStats

        def broken(a, **kw):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(svdmod.sla, "svd", broken)
        state = RecoveryState()
        stats = KernelStats(recovery=state)
        out = compress_block(rng.standard_normal((12, 10)), 1e-8,
                             kernel="svd", stats=stats)
        assert out is None
        assert state.counts() == {"compress_failure": 1}
        assert state.actions[0]["site"] == "svd"

    def test_compress_block_unknown_kernel_still_raises(self, rng):
        from repro.lowrank.kernels import compress_block

        with pytest.raises(ValueError, match="unknown kernel"):
            compress_block(rng.standard_normal((4, 4)), 1e-8,
                           kernel="nope")

    def test_smaller_tolerance_larger_rank(self, rng):
        a = random_lowrank(rng, 40, 40, 30, decay=0.6)
        r4 = svd_compress(a, 1e-4).rank
        r8 = svd_compress(a, 1e-8).rank
        r12 = svd_compress(a, 1e-12).rank
        assert r4 <= r8 <= r12


def _retruncate(u0: np.ndarray, v0: np.ndarray, tol: float):
    """``u0 v0ᵗ`` re-truncated by the SVD recompression (no contribution)."""
    m, n = u0.shape[0], v0.shape[0]
    return recompress_svd(u0, v0, np.zeros((m, 0)), np.zeros((n, 0)), tol)


class TestRecompressLR:
    def test_retruncates_factored_form(self, rng):
        a = random_lowrank(rng, 25, 20, 15, decay=0.3)
        # a sloppy high-rank factorization of a
        u0 = np.hstack([a, np.zeros((25, 5))])
        v0 = np.vstack([np.eye(20), np.zeros((5, 20))]).T
        blk = _retruncate(u0, v0, 1e-8)
        err = np.linalg.norm(a - blk.to_dense()) / np.linalg.norm(a)
        assert err <= 1e-8 * 1.1
        assert blk.rank < 25

    def test_rank_zero_input(self):
        blk = _retruncate(np.zeros((4, 0)), np.zeros((3, 0)), 1e-8)
        assert blk.u.shape == (4, 0)
        assert blk.shape == (4, 3)

    def test_output_u_orthonormal(self, rng):
        a = random_lowrank(rng, 20, 18, 10, decay=0.4)
        blk = _retruncate(a.copy(), np.eye(18), 1e-8)
        np.testing.assert_allclose(blk.u.T @ blk.u, np.eye(blk.rank),
                                   atol=1e-12)
