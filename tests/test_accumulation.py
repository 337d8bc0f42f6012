"""Tests for the batched extend-add: Minimal Memory gathers every
contribution to a low-rank target inside its pull task and recompresses
once (accumulate-then-recompress, the LUAR trade-off of the paper's §5)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.solver import Solver
from repro.lowrank.block import LowRankBlock
from repro.lowrank.kernels import lr2lr_update_multi
from repro.lowrank.rrqr import rrqr_compress
from repro.runtime.faults import FaultInjector
from repro.runtime.recovery import RecoveryPolicy
from repro.runtime.spans import SpanProfiler
from repro.sparse.generators import laplacian_3d
from tests.conftest import assemble_filled, random_lowrank, tiny_blr_config
from tests.pins import factor_digest


class TestMultiKernel:
    def make(self, rng, m=30, n=24, r=5):
        return rrqr_compress(random_lowrank(rng, m, n, r, 0.3), 1e-13)

    @pytest.mark.parametrize("kernel", ["rrqr", "svd"])
    def test_matches_sequential_extend_adds(self, rng, kernel):
        target = self.make(rng)
        contribs = []
        ref = target.to_dense()
        for _ in range(4):
            c = self.make(rng, 10, 8, 2)
            ro = int(rng.integers(0, target.m - c.m))
            co = int(rng.integers(0, target.n - c.n))
            contribs.append((c, ro, co))
            ref[ro:ro + c.m, co:co + c.n] -= c.to_dense()
        out = lr2lr_update_multi(target, contribs, 1e-10, kernel)
        err = np.linalg.norm(out.to_dense() - ref) / np.linalg.norm(ref)
        assert err <= 1e-8

    def test_empty_contribution_list(self, rng):
        target = self.make(rng)
        assert lr2lr_update_multi(target, [], 1e-10, "rrqr") is target

    def test_zero_rank_contributions_skipped(self, rng):
        from repro.lowrank.block import LowRankBlock
        target = self.make(rng)
        out = lr2lr_update_multi(
            target, [(LowRankBlock.zero(5, 5), 0, 0)], 1e-10, "rrqr")
        np.testing.assert_allclose(out.to_dense(), target.to_dense(),
                                   atol=1e-12)

    def test_dense_contributions_compressed(self, rng):
        target = self.make(rng)
        dense_c = random_lowrank(rng, 8, 6, 2, 0.2)
        ref = target.to_dense()
        ref[2:10, 3:9] -= dense_c
        out = lr2lr_update_multi(target, [(dense_c, 2, 3)], 1e-10, "rrqr")
        err = np.linalg.norm(out.to_dense() - ref) / np.linalg.norm(ref)
        assert err <= 1e-8

    def test_rank_cap_returns_none(self, rng):
        target = self.make(rng, r=4)
        big = rrqr_compress(rng.standard_normal((30, 24)), 1e-14)
        out = lr2lr_update_multi(target, [(big, 0, 0)], 1e-14, "rrqr",
                                 max_rank=3)
        assert out is None


def _gaussian(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


@st.composite
def extend_add_cases(draw):
    """A low-rank target plus a random set of pieces landing in its frame:
    dense (low- or full-rank), low-rank and zero-rank, at overlapping
    offsets."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    m, n = draw(st.integers(8, 36)), draw(st.integers(8, 36))
    r_c = draw(st.integers(0, 4))
    if r_c:
        target = rrqr_compress(
            _gaussian(rng, (m, r_c), dtype) @ _gaussian(rng, (r_c, n), dtype),
            1e-13)
    else:
        target = LowRankBlock.zero(m, n, dtype=dtype)
    if draw(st.booleans()):
        # mixed-precision storage: float32 factors, promoted on read the
        # way the solver does before the extend-add
        narrow = np.complex64 if np.dtype(dtype).kind == "c" else np.float32
        target = target.astype(narrow).astype(dtype)
    pieces = []
    for kind in draw(st.lists(st.sampled_from(
            ["dense", "dense-full", "lowrank", "zero"]), max_size=6)):
        pm, pn = int(rng.integers(1, m + 1)), int(rng.integers(1, n + 1))
        ro, co = int(rng.integers(0, m - pm + 1)), int(rng.integers(0, n - pn + 1))
        r = int(rng.integers(1, 3))
        if kind == "zero":
            piece = LowRankBlock.zero(pm, pn, dtype=dtype)
        elif kind == "dense-full":
            piece = _gaussian(rng, (pm, pn), dtype)
        else:
            u = np.linalg.qr(_gaussian(rng, (pm, min(r, pm)), dtype))[0]
            v = _gaussian(rng, (pn, u.shape[1]), dtype)
            piece = LowRankBlock(u, v) if kind == "lowrank" else u @ v.T
        pieces.append((piece, ro, co))
    # the solver's targets always fit under their own cap
    cap = draw(st.one_of(st.none(), st.integers(0, 10).map(
        lambda extra: max(target.rank + extra, 1))))
    return target, pieces, cap


class TestExtendAddProperty:
    """The batched kernel against the dense reference ``C − Σ pieces``."""

    @given(case=extend_add_cases(),
           kernel=st.sampled_from(["rrqr", "svd"]),
           tol=st.sampled_from([1e-4, 1e-6]))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_dense_reference_or_reports_cap(self, case, kernel, tol):
        target, pieces, cap = case
        ref = target.to_dense()
        scale = np.linalg.norm(ref)
        stacked = target.rank
        for piece, ro, co in pieces:
            d = (piece.to_dense() if isinstance(piece, LowRankBlock)
                 else piece)
            ref[ro:ro + d.shape[0], co:co + d.shape[1]] -= d
            scale += np.linalg.norm(d)
            stacked += (piece.rank if isinstance(piece, LowRankBlock)
                        else min(d.shape))
        out = lr2lr_update_multi(target, pieces, tol, kernel, max_rank=cap)
        # float32-stored u is orthonormal only to single precision
        bound = 5 * max(tol, 1e-6) * scale
        sigma = np.linalg.svd(ref, compute_uv=False)
        tail = np.sqrt(np.cumsum(sigma[::-1] ** 2))[::-1]
        needed = int(np.count_nonzero(tail > bound))
        if out is None:
            # only ever because of the cap, and never when the stacked
            # rank fits under it
            assert cap is not None and stacked > cap
        else:
            assert cap is None or out.rank <= cap
            assert np.linalg.norm(out.to_dense() - ref) <= bound
        if cap is not None and needed > cap:
            assert out is None


class TestSolverAccumulation:
    def mm_solver(self, **overrides):
        s = Solver(laplacian_3d(8), tiny_blr_config(
            strategy="minimal-memory", tolerance=1e-8, **overrides))
        s.analyze()
        return s

    def test_at_most_one_recompression_per_compressed_block(self):
        """Every low-rank target is recompressed at most once, however
        many updates land on it (the per-update LR2LR paid one each)."""
        from repro.sparse.permute import permute_symmetric

        s = self.mm_solver()
        fac = assemble_filled(permute_symmetric(s._a_sym, s.perm),
                              s.symbolic, s.config)
        compressed = sum(isinstance(b, LowRankBlock) for nc in fac.cblks
                         for blocks in (nc.lblocks, nc.ublocks)
                         for b in blocks or ())
        stats = s.factorize()
        calls = stats.kernels.call_count("lr_addition")
        assert 0 < calls <= compressed
        assert stats.accumulator_peak_nbytes > 0
        b = np.ones(s.n)
        assert s.backward_error(s.solve(b), b) <= 1e-6

    def test_factors_identical_with_profiler_and_task_retry(self):
        """The accumulator lives and dies inside one fan-in task, so the
        MM factors are bit-identical with a span profiler attached and
        after a task retry."""
        base = self.mm_solver()
        base.factorize()
        want = factor_digest(base.factor)
        s = self.mm_solver(profiler=SpanProfiler())
        s.factorize()
        assert factor_digest(s.factor) == want
        # fail the task of a column block whose low-rank blocks have just
        # been flushed: the retry must refill and regather from scratch
        k = max(nc.sym.id for nc in base.factor.cblks
                if any(isinstance(b, LowRankBlock)
                       for b in nc.lblocks or ()))
        s = self.mm_solver(recovery=RecoveryPolicy())
        inj = FaultInjector()
        inj.fail_factor(k, transient=True)
        s.factorize(faults=inj)
        assert s.last_recovery["counts"] == {"task_retry": 1}
        assert factor_digest(s.factor) == want
