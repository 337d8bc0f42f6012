"""Precision-generic solver tests: float32/complex end-to-end, Hermitian
low-rank algebra, dtype-honest byte accounting, and mixed-precision BLR
storage that follows the error compression discarded."""

import numpy as np
import pytest

from tests.conftest import hermitian_congruence, tiny_blr_config
from tests.pins import factor_digest

from repro.config import SolverConfig
from repro.core import factor as factor_module
from repro.core import factorization as F
from repro.core import scheduler as scheduler_module
from repro.core.solver import Solver
from repro.lowrank.block import LowRankBlock
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import helmholtz_3d, laplacian_3d, zoo

STRATEGIES = ("dense", "just-in-time", "minimal-memory")

#: per-dtype compression tolerance: single-kind dtypes cannot support τ
#: below their epsilon
TAU = {"float32": 1e-4, "complex64": 1e-4, "float64": 1e-8, "complex128": 1e-8}


def _workload(dtype: str) -> CSCMatrix:
    """A paper-shaped matrix whose factorization runs at ``dtype``."""
    if dtype.startswith("complex"):
        # damped Helmholtz: complex symmetric (LU territory)
        return helmholtz_3d(6, wavenumber=0.6, damping=0.5)
    return laplacian_3d(6)


def _config(dtype: str, strategy: str, **overrides) -> SolverConfig:
    return tiny_blr_config(strategy=strategy, factotype="lu",
                           tolerance=TAU[dtype], dtype=dtype, **overrides)


def _rhs(a: CSCMatrix, dtype: str) -> np.ndarray:
    rng = np.random.default_rng(7)
    b = rng.standard_normal(a.n)
    if dtype.startswith("complex"):
        b = b + 1j * rng.standard_normal(a.n)
    return b


class TestEndToEnd:
    """factorize + solve + refine + serialize for every dtype x strategy."""

    @pytest.mark.parametrize("dtype", sorted(TAU))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_factorize_solve(self, dtype, strategy):
        a = _workload(dtype)
        s = Solver(a, _config(dtype, strategy))
        s.factorize()
        assert s.factor.dtype == np.dtype(dtype)
        b = _rhs(a, dtype)
        x = s.solve(b)
        tau = TAU[dtype]
        assert s.backward_error(x, b) <= max(10 * tau, 1e-12)

    @pytest.mark.parametrize("dtype", sorted(TAU))
    def test_refine(self, dtype):
        a = _workload(dtype)
        s = Solver(a, _config(dtype, "minimal-memory"))
        b = _rhs(a, dtype)
        res = s.refine(b, tol=1e-12, maxiter=30)
        # single-kind arithmetic stalls near its epsilon; double converges
        limit = 1e-6 if dtype in ("float32", "complex64") else 1e-11
        assert res.backward_error <= limit

    @pytest.mark.parametrize("dtype", sorted(TAU))
    def test_serialize_roundtrip(self, dtype, tmp_path):
        a = _workload(dtype)
        s = Solver(a, _config(dtype, "just-in-time"))
        s.factorize()
        b = _rhs(a, dtype)
        x = s.solve(b)
        path = s.save_factor(tmp_path / "fac.blrz")
        s2 = Solver.load_factor(a, path)
        assert s2.factor.dtype == np.dtype(dtype)
        np.testing.assert_allclose(s2.solve(b), x, rtol=0, atol=0)

    def test_dtype_none_inherits_matrix_dtype(self):
        a = helmholtz_3d(5, wavenumber=0.6, damping=0.5)
        s = Solver(a, tiny_blr_config(factotype="lu", tolerance=1e-8))
        s.factorize()
        assert s.factor.dtype == np.complex128

    def test_float32_input_inherits(self):
        a64 = laplacian_3d(5)
        a = CSCMatrix(a64.n, a64.colptr, a64.rowind,
                      a64.values.astype(np.float32))
        s = Solver(a, tiny_blr_config(factotype="lu", tolerance=1e-4))
        s.factorize()
        assert s.factor.dtype == np.float32

    def test_complex_matrix_real_dtype_raises(self):
        a = helmholtz_3d(4, wavenumber=0.6, damping=0.5)
        with pytest.raises(ValueError, match="complex"):
            Solver(a, tiny_blr_config(factotype="lu", dtype="float64"))


class TestComplexRhs:
    def test_complex_rhs_against_real_factorization_raises(self):
        a = laplacian_3d(4)
        s = Solver(a, tiny_blr_config())
        s.factorize()
        b = np.ones(a.n) + 1j * np.ones(a.n)
        with pytest.raises(ValueError, match="complex right-hand side"):
            s.solve(b)

    def test_real_rhs_against_complex_factorization_promotes(self):
        a = helmholtz_3d(4, wavenumber=0.6, damping=0.5)
        s = Solver(a, tiny_blr_config(factotype="lu"))
        x = s.solve(np.ones(a.n))
        assert x.dtype == np.complex128


class TestHermitianSymmetry:
    def _hermitian(self, n=24, seed=3):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dense = b @ b.conj().T + n * np.eye(n)
        return CSCMatrix.from_dense(dense)

    def test_is_symmetric_hermitian_flag(self):
        a = self._hermitian()
        assert a.is_symmetric(tol=1e-12, hermitian=True)
        assert not a.is_symmetric(tol=1e-12, hermitian=False)
        sym = helmholtz_3d(4, wavenumber=0.6, damping=0.5)
        assert sym.is_symmetric(tol=0.0, hermitian=False)
        assert not sym.is_symmetric(tol=0.0, hermitian=True)

    @pytest.mark.parametrize("factotype", ("cholesky", "ldlt"))
    def test_hermitian_facto_solves(self, factotype):
        a = self._hermitian()
        s = Solver(a, tiny_blr_config(strategy="dense", factotype=factotype))
        s.factorize()
        b = _rhs(a, "complex128")
        x = s.solve(b)
        assert s.backward_error(x, b) <= 1e-12

    @pytest.mark.parametrize("strategy", ("just-in-time", "minimal-memory"))
    @pytest.mark.parametrize("factotype", ("cholesky", "ldlt"))
    def test_hermitian_facto_blr_paths(self, factotype, strategy):
        # D A D^H with unitary diagonal D: sparse, Hermitian PD, and
        # genuinely complex — conjugated trailing updates (nothing
        # compresses here: the low-rank paths are the lap8 case below)
        a = hermitian_congruence(laplacian_3d(6))
        assert a.is_symmetric(tol=0.0, hermitian=True)
        s = Solver(a, tiny_blr_config(strategy=strategy, factotype=factotype,
                                      tolerance=1e-8))
        s.factorize()
        b = _rhs(a, "complex128")
        x = s.solve(b)
        assert s.backward_error(x, b) <= 1e-7

    @pytest.mark.parametrize("strategy", ("just-in-time", "minimal-memory"))
    @pytest.mark.parametrize("factotype", ("cholesky", "ldlt"))
    def test_hermitian_facto_lowrank_paths(self, factotype, strategy):
        # lap8 at τ = 1e-4 holds rank > 0 low-rank blocks: the Hermitian
        # panel solves of their v factors and the conjugated low-rank
        # update operands run; bound 10·τ, as the layerbench gate
        tau = 1e-4
        a = hermitian_congruence(laplacian_3d(8))
        s = Solver(a, tiny_blr_config(strategy=strategy, factotype=factotype,
                                      tolerance=tau))
        s.factorize()
        assert any(b.rank for nc in s.factor.cblks
                   for b in nc.llowrank.values())
        b = _rhs(a, "complex128")
        x = s.solve(b)
        assert s.backward_error(x, b) <= 10 * tau

    def test_complex_symmetric_rejected_by_cholesky(self):
        # damped Helmholtz is complex symmetric but NOT Hermitian
        a = helmholtz_3d(4, wavenumber=0.6, damping=0.5)
        with pytest.raises(ValueError, match="Hermitian"):
            Solver(a, tiny_blr_config(factotype="cholesky"))


class TestLowRankBlockAlgebra:
    def _block(self, m=9, n=7, r=3, seed=11):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        v = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        return LowRankBlock(u, v)

    def test_matvec_is_u_vt(self):
        blk = self._block()
        x = np.arange(blk.n) + 1j * np.arange(blk.n)[::-1]
        dense = blk.u @ blk.v.T  # pure transpose, NOT conjugated
        np.testing.assert_allclose(blk.matvec(x), dense @ x, atol=1e-12)
        np.testing.assert_allclose(blk.to_dense(), dense, atol=0)

    def test_rmatvec_is_adjoint(self):
        blk = self._block()
        x = np.arange(blk.m) - 1j * np.arange(blk.m)
        dense = blk.to_dense()
        np.testing.assert_allclose(blk.rmatvec(x), dense.conj().T @ x,
                                   atol=1e-12)

    def test_adjoint_inner_product_identity(self):
        # <A x, y> == <x, A^H y>: rmatvec is the adjoint, not the transpose
        blk = self._block()
        rng = np.random.default_rng(5)
        x = rng.standard_normal(blk.n) + 1j * rng.standard_normal(blk.n)
        y = rng.standard_normal(blk.m) + 1j * rng.standard_normal(blk.m)
        lhs = np.vdot(y, blk.matvec(x))
        rhs = np.vdot(blk.rmatvec(y), x)
        assert abs(lhs - rhs) < 1e-10

    def test_conj_and_astype(self):
        blk = self._block()
        np.testing.assert_allclose(blk.conj().to_dense(),
                                   blk.to_dense().conj(), atol=0)
        narrow = blk.astype(np.complex64)
        assert narrow.dtype == np.complex64
        assert narrow.nbytes == blk.nbytes // 2
        assert blk.astype(np.complex128) is blk  # no-copy fast path


class TestByteAccounting:
    def test_dense_factor_nbytes_tracks_itemsize(self):
        a = laplacian_3d(5)
        stats = {}
        for dtype in ("float32", "float64"):
            s = Solver(a, tiny_blr_config(strategy="dense", dtype=dtype,
                                          tolerance=TAU[dtype]))
            stats[dtype] = s.factorize()
        assert stats["float64"].dense_factor_nbytes == \
            2 * stats["float32"].dense_factor_nbytes
        assert stats["float64"].factor_nbytes == \
            2 * stats["float32"].factor_nbytes

    def test_lowrank_block_nbytes_honest(self):
        blk = LowRankBlock(np.zeros((10, 2), dtype=np.float32),
                           np.zeros((8, 2), dtype=np.float32))
        assert blk.nbytes == (10 + 8) * 2 * 4


NARROW = {np.dtype(np.float64): np.dtype(np.float32),
          np.dtype(np.complex128): np.dtype(np.complex64)}


def _offdiag_dtypes(nc):
    """The dtypes of one column block's stored off-diagonal pieces."""
    return {b.dtype for _, _, b in nc.stored()}


def _narrow_cblks(fac):
    """Ids of the column blocks stored narrow."""
    return {nc.sym.id for nc in fac.cblks
            if _offdiag_dtypes(nc) != {fac.dtype}}


def _wide_reference(monkeypatch, a, cfg):
    """The same factorization with every block kept at the compute dtype
    (the narrowing budget monkeypatched to infinity)."""
    with monkeypatch.context() as m:
        m.setattr(factor_module, "NARROW_BUDGET", np.inf)
        ref = Solver(a, cfg)
        ref.factorize()
    assert not _narrow_cblks(ref.factor)
    return ref


def _dense(b, dtype):
    if isinstance(b, LowRankBlock):
        return LowRankBlock(b.u.astype(dtype), b.v.astype(dtype)).to_dense()
    return b.astype(dtype)


def _sq(x):
    return float(np.linalg.norm(x)) ** 2


class DiscardedOracle:
    """What each column block's truncations discarded, measured apart from
    the rule's own bookkeeping: every low-rank block is reconstructed and
    compared with the dense block it was cut from.  ``ratio[k]`` is
    ``Σ‖B − uvᵀ‖² / ‖column block‖²`` of column block ``k``'s compression
    point; ``flush[k]`` the same for a Minimal-Memory update flush (the
    exact sum against what was stored)."""

    def __init__(self, monkeypatch):
        self.ratio, self.flush = {}, {}
        compress = factor_module.compress_column_block
        flush = F.flush_accumulated

        def spy_compress(fac, nc, lpanel, upanel):
            panels = [p.copy() for p in (lpanel, upanel) if p is not None]
            out = compress(fac, nc, lpanel, upanel)
            if nc.llowrank or nc.ulowrank:
                offs = nc.row_offsets
                dropped = sum(
                    _sq(p[offs[i]:offs[i + 1]] - _dense(b, fac.dtype))
                    for p, side in zip(panels, "lu")
                    for i, b in nc.lowrank(side).items())
                self.ratio[nc.sym.id] = dropped / max(
                    sum(map(_sq, panels)), np.finfo(float).tiny)
            return out

        def spy_flush(fac, k, acc):
            tnc = fac.cblks[k]
            exact = {}
            for (side, i), contribs in acc.items():
                e = _dense(tnc.block(side, i), fac.dtype)
                for piece, ro, co in contribs:
                    d = _dense(piece, fac.dtype)
                    # the dense scratch holds minus the sum of its pieces
                    sign = 1 if isinstance(piece, np.ndarray) else -1
                    e[ro:ro + d.shape[0], co:co + d.shape[1]] += sign * d
                exact[side, i] = e
            flush(fac, k, acc)
            if exact:
                dropped = sum(_sq(e - _dense(tnc.block(side, i), fac.dtype))
                              for (side, i), e in exact.items())
                total = sum(_sq(_dense(b, fac.dtype))
                            for _, _, b in tnc.stored())
                self.flush[k] = dropped / total

        monkeypatch.setattr(factor_module, "compress_column_block",
                            spy_compress)
        monkeypatch.setattr(F, "compress_column_block", spy_compress)
        monkeypatch.setattr(F, "flush_accumulated", spy_flush)
        monkeypatch.setattr(scheduler_module, "flush_accumulated", spy_flush)


def _budget(dtype):
    """``(100 · u)²`` of the narrow dtype under compute ``dtype``."""
    return (factor_module.NARROW_BUDGET
            * np.finfo(NARROW[np.dtype(dtype)]).eps / 2) ** 2


def _decision(ratio, budget, slack):
    """Narrow (True), wide (False), or too close to the budget to call
    (None) — ``slack`` covers how the oracle's measure may differ from the
    rule's: none at a compression point (``‖B‖² − ‖v‖²`` is exact for an
    orthonormal u), a factor 2 at a flush (the scratch's and the
    recompression's errors add as vectors, the rule sums their squares)."""
    if ratio >= budget * slack:
        return True
    if ratio < budget / slack:
        return False
    return None


ZOO = {c.name: c for c in zoo()}
PROPERTY_CASES = [
    (name, strategy, factotype, dtype)
    for name in sorted(ZOO)
    for strategy in ("just-in-time", "minimal-memory")
    for factotype in ("lu", "cholesky")
    for dtype in ("float64", "complex128")
    if factotype == "lu" or ZOO[name].definiteness == "positive"]


class TestMixedPrecision:
    """A column block is stored in the narrow dtype exactly when its
    compression discarded at least ``NARROW_BUDGET`` unit roundoffs of the
    narrow dtype, relative to its norm."""

    def test_storage_dtype_validation(self):
        """There is no knob: the narrow dtype follows the compute dtype,
        and the dense strategy never narrows."""
        with pytest.raises(TypeError, match="storage_dtype"):
            SolverConfig(storage_dtype="float32")
        jit = SolverConfig()
        assert jit.resolve_storage_dtype("float64") == np.float32
        assert jit.resolve_storage_dtype("complex128") == np.complex64
        assert jit.resolve_storage_dtype("float32") is None
        assert jit.resolve_storage_dtype("complex64") is None
        dense = SolverConfig(strategy="dense")
        assert dense.resolve_storage_dtype("float64") is None

    def test_blocks_stored_narrow(self):
        a = laplacian_3d(8)
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      factotype="lu", tolerance=1e-2))
        s.factorize()
        assert s.factor.storage_dtype == np.float32
        narrow = _narrow_cblks(s.factor)
        assert narrow
        for nc in s.factor.cblks:
            assert nc.diag.dtype == np.float64  # pivots stay full precision
            dts = _offdiag_dtypes(nc)
            assert len(dts) <= 1  # one dtype per column block
            if not (nc.llowrank or nc.ulowrank):  # nothing discarded
                assert nc.sym.id not in narrow
            elif nc.sym.id in narrow:
                assert dts == {np.dtype(np.float32)}

    def test_mixed_precision_serialize_roundtrip(self, tmp_path):
        """An archive of a factor that mixes narrow and wide column blocks
        reloads them in their dtypes and solves bit-identically."""
        a = laplacian_3d(8)
        cfg = tiny_blr_config(strategy="just-in-time", factotype="lu",
                              tolerance=1e-3)
        s = Solver(a, cfg)
        s.factorize()
        narrow = _narrow_cblks(s.factor)
        assert narrow and any(nc.llowrank and nc.sym.id not in narrow
                              for nc in s.factor.cblks)
        b = np.ones(a.n)
        x = s.solve(b)
        path = s.save_factor(tmp_path / "mixed.blrz")
        s2 = Solver.load_factor(a, path)
        assert s2.factor.storage_dtype == np.float32
        assert _narrow_cblks(s2.factor) == narrow
        np.testing.assert_allclose(s2.solve(b), x, rtol=0, atol=0)

    @pytest.mark.slow
    def test_acceptance_reduction_on_laptop_laplacian(self, monkeypatch):
        """The headline on a laptop Laplacian at τ = 1e-4: fewer factor
        bytes than float64 storage, backward error within 1 % of it."""
        a = laplacian_3d(20)
        b = np.ones(a.n)
        cfg = SolverConfig.laptop_scale(strategy="just-in-time",
                                        factotype="lu", tolerance=1e-4,
                                        rank_ratio=1.0)
        full = _wide_reference(monkeypatch, a, cfg)
        mixed = Solver(a, cfg)
        st_mixed = mixed.factorize()
        assert st_mixed.factor_nbytes < 0.9 * full.factor.factor_nbytes()
        err, ref = mixed.backward_error(mixed.solve(b), b), \
            full.backward_error(full.solve(b), b)
        assert abs(err - ref) <= 0.01 * ref

    def test_exact_compression_narrows_nothing(self, monkeypatch):
        """Threshold-pivoted LDLᵀ of an indefinite Helmholtz operator at
        τ = 1e-4: the blocks that compress do so exactly, so nothing is
        narrowed — the factor is the float64-storage one, bit for bit.
        (Narrowing every compressed column block would not be.)"""
        a = helmholtz_3d(9, wavenumber=2.2)
        cfg = tiny_blr_config(strategy="just-in-time", factotype="ldlt",
                              pivoting="threshold", tolerance=1e-4)
        s = Solver(a, cfg)
        s.factorize()
        assert any(nc.llowrank for nc in s.factor.cblks)
        assert s.factor.pivot_swaps + s.factor.pivots_2x2 > 0
        assert not _narrow_cblks(s.factor)
        ref = _wide_reference(monkeypatch, a, cfg)
        assert factor_digest(s.factor) == factor_digest(ref.factor)

    @pytest.mark.parametrize("name,strategy,factotype,dtype",
                             PROPERTY_CASES)
    def test_narrow_iff_discarded_over_budget(self, monkeypatch, name,
                                              strategy, factotype, dtype):
        """Over the zoo: a column block is narrow exactly when an
        independent reconstruction of its truncations says it discarded
        at least the budget, and narrowing moves the backward error by
        less than 1 %."""
        a = ZOO[name].build()
        cfg = tiny_blr_config(strategy=strategy, factotype=factotype,
                              tolerance=1e-3, dtype=dtype)
        ref = _wide_reference(monkeypatch, a, cfg)
        with monkeypatch.context() as m:
            oracle = DiscardedOracle(m)
            s = Solver(a, cfg)
            s.factorize()
        budget = _budget(dtype)
        narrow = _narrow_cblks(s.factor)
        for nc in s.factor.cblks:
            k = nc.sym.id
            assert len(_offdiag_dtypes(nc)) <= 1
            calls = [_decision(oracle.ratio.get(k, 0.0), budget, 1.01),
                     _decision(oracle.flush.get(k, 0.0), budget, 2.0)]
            if True in calls:
                assert k in narrow
            elif calls == [False, False]:
                assert k not in narrow
        b = _rhs(a, dtype)
        err = s.backward_error(s.solve(b), b)
        want = ref.backward_error(ref.solve(b), b)
        assert abs(err - want) <= 0.01 * want


class TestComplexAcceptance:
    """complex128 Helmholtz under all three strategies (ISSUE acceptance)."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_helmholtz_complex128(self, strategy):
        a = helmholtz_3d(8, wavenumber=0.6, damping=0.5)
        assert a.values.dtype == np.complex128
        tau = 1e-8
        cfg = SolverConfig.laptop_scale(strategy=strategy, factotype="lu",
                                        tolerance=tau)
        s = Solver(a, cfg)
        s.factorize()
        assert s.factor.dtype == np.complex128
        b = _rhs(a, "complex128")
        x = s.solve(b)
        assert s.backward_error(x, b) <= max(10 * tau, 1e-12)
