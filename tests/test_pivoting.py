"""Threshold & 2×2 pivoting for indefinite LDLᵀ: kernel, end-to-end,
recovery-ladder, serialization and telemetry coverage.

The committed acceptance story (see docs/robustness.md):

* ``helmholtz_3d(9, wavenumber=3.0)`` — an indefinite zoo matrix whose
  active diagonal passes near zero mid-elimination — breaches a zero
  perturbation budget under static pivoting, but factorizes under
  threshold pivoting at backward error well below 1e-10 with the dense
  strategy *and* the BLR variants;
* the saddle-point ``kkt`` zoo matrix (exactly zero (2,2) block) defeats
  supernode-local threshold pivoting outright, and the escalation ladder
  demonstrably walks relax-threshold → delayed-pivot fallback.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.diagnostics import factor_inertia, factor_slogdet
from repro.config import SolverConfig
from repro.core.backend import KERNELS, Kernels, PivotError
from repro.core.solver import Solver
from repro.runtime.recovery import (
    PIVOT_RELAX,
    PIVOT_U_FLOOR,
    NumericalBreakdown,
    RecoveryPolicy,
    escalate_config,
)
from repro.sparse.generators import helmholtz_3d, saddle_point_kkt
from tests.conftest import ldlt_reconstruct, tiny_blr_config


@pytest.fixture
def rng():
    return np.random.default_rng(20170529)


class TestPivotKernel:
    def test_dominant_matrix_needs_no_interchanges(self, rng):
        be = KERNELS
        m = rng.standard_normal((7, 7))
        a = m + m.T + 20.0 * np.eye(7)
        packed, perm, d21, stats = be.ldlt_pivot(a)
        assert np.array_equal(perm, np.arange(7))
        assert stats["swaps"] == 0 and stats["n2x2"] == 0
        assert stats["perturbed"] == 0
        # and the elimination itself matches the unpivoted kernel
        unpiv, _ = be.ldlt(a, 1e-14)
        np.testing.assert_allclose(np.tril(packed), np.tril(unpiv),
                                   rtol=1e-13)

    def test_reconstruction_with_zero_diagonal(self, rng):
        be = KERNELS
        m = rng.standard_normal((8, 8))
        a = m + m.T
        a[0, 0] = 0.0
        a[4, 4] = 0.0
        packed, perm, d21, stats = be.ldlt_pivot(a)
        assert sorted(perm.tolist()) == list(range(8))
        rec = ldlt_reconstruct(packed, perm, d21, hermitian=False)
        ap = a[np.ix_(perm, perm)]
        np.testing.assert_allclose(rec, ap, atol=1e-12 * np.abs(a).max())
        assert stats["swaps"] + stats["n2x2"] > 0

    def test_forced_2x2_pivot(self):
        be = KERNELS
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        packed, perm, d21, stats = be.ldlt_pivot(a)
        assert stats["n2x2"] == 1
        assert d21[0] != 0.0
        rec = ldlt_reconstruct(packed, perm, d21, hermitian=False)
        np.testing.assert_allclose(rec, a[np.ix_(perm, perm)], atol=1e-14)

    def test_hermitian_reconstruction(self, rng):
        be = KERNELS
        m = (rng.standard_normal((6, 6))
             + 1j * rng.standard_normal((6, 6)))
        a = m + m.conj().T
        a[0, 0] = 0.0
        packed, perm, d21, stats = be.ldlt_pivot(a)
        rec = ldlt_reconstruct(packed, perm, d21, hermitian=True)
        np.testing.assert_allclose(rec, a[np.ix_(perm, perm)],
                                   atol=1e-12 * np.abs(a).max())

    def test_ignores_stale_upper_triangle(self, rng):
        # assembled diagonal blocks are only valid in their lower
        # triangle; the kernel must not let interchanges mix stale upper
        # entries into the active submatrix
        m = rng.standard_normal((6, 6))
        a = m + m.T
        a[0, 0] = 0.0
        poisoned = np.array(a)
        poisoned[np.triu_indices(6, 1)] = 777.0
        be = KERNELS
        ref = be.ldlt_pivot(a)
        got = be.ldlt_pivot(poisoned)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    def test_zero_matrix_raises_pivot_failure(self):
        be = KERNELS
        with pytest.raises(PivotError) as ei:
            be.ldlt_pivot(np.zeros((3, 3)))
        assert ei.value.kind == "pivot-failure"

    def test_fallback_perturbs_instead(self):
        be = KERNELS
        packed, perm, d21, stats = be.ldlt_pivot(np.zeros((3, 3)),
                                                 fallback=True)
        assert stats["perturbed"] == 3
        assert np.all(np.diag(packed) != 0.0)

    def test_growth_limit_enforced(self):
        be = KERNELS
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(PivotError) as ei:
            be.ldlt_pivot(a, growth_limit=1.0)
        assert ei.value.kind == "pivot-growth"
        # a sane limit accepts the same elimination
        packed, perm, d21, stats = be.ldlt_pivot(a, growth_limit=1e8)
        assert stats["growth"] > 1.0

    def test_per_op_counter(self):
        be = KERNELS
        before = be.counts_snapshot()
        be.ldlt_pivot(np.eye(3))
        assert be.counts_delta(before)["ldlt_pivot"] == 1


class TestThresholdPivotingE2E:
    STRATEGIES = ("dense", "minimal-memory", "just-in-time")

    def _config(self, strategy, **overrides):
        base = dict(factotype="ldlt", pivoting="threshold",
                    tolerance=1e-12, strategy=strategy)
        base.update(overrides)
        if strategy == "dense":
            return SolverConfig(factotype=base["factotype"],
                                pivoting=base["pivoting"],
                                strategy="dense",
                                recovery=base.get("recovery"))
        return tiny_blr_config(**base)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_indefinite_helmholtz_all_strategies(self, strategy, rng):
        a = helmholtz_3d(9, wavenumber=2.2)
        b = rng.standard_normal(a.n)
        s = Solver(a, self._config(strategy))
        s.factorize()
        x = s.solve(b)
        be = np.linalg.norm(b - a.matvec(x)) / np.linalg.norm(b)
        assert be < 1e-10
        assert s.factor.pivot_swaps > 0   # pivoting genuinely engaged
        assert s.factor.nperturbed == 0   # ...without any perturbation

    def test_acceptance_static_breaches_threshold_succeeds(self, rng):
        """The committed acceptance case (ISSUE): static pivoting blows a
        zero perturbation budget on helmholtz-k3; threshold pivoting
        factorizes the same matrix at BE <= 1e-10, dense and BLR."""
        a = helmholtz_3d(9, wavenumber=3.0)
        b = rng.standard_normal(a.n)
        static = SolverConfig(
            factotype="ldlt", strategy="dense", pivoting="static",
            recovery=RecoveryPolicy(pivot_budget=0.0, max_retries=0))
        with pytest.raises(NumericalBreakdown) as ei:
            Solver(a, static).factorize()
        assert ei.value.cause == "pivot-budget"
        for strategy in self.STRATEGIES:
            s = Solver(a, self._config(strategy))
            s.factorize()
            x = s.solve(b)
            be = np.linalg.norm(b - a.matvec(x)) / np.linalg.norm(b)
            assert be < 1e-10, f"{strategy}: BE {be:.2e}"
            assert s.factor.pivot_swaps + s.factor.pivots_2x2 > 0

    def test_multi_rhs_matches_single(self, rng):
        a = helmholtz_3d(7, wavenumber=3.0)
        s = Solver(a, self._config("dense"))
        s.factorize()
        bmat = rng.standard_normal((a.n, 3))
        xmat = s.solve(bmat)
        for j in range(3):
            np.testing.assert_array_equal(xmat[:, j], s.solve(bmat[:, j]))

    def test_hermitian_indefinite_e2e(self, rng):
        from repro.sparse.csc import CSCMatrix

        m = (rng.standard_normal((24, 24))
             + 1j * rng.standard_normal((24, 24)))
        d = m + m.conj().T
        d[np.diag_indices(24)] = 0.0  # forces 2x2 hermitian pivots
        a = CSCMatrix.from_dense(d)
        b = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        s = Solver(a, SolverConfig(factotype="ldlt", strategy="dense",
                                   pivoting="threshold"))
        s.factorize()
        x = s.solve(b)
        be = np.linalg.norm(b - a.matvec(x)) / np.linalg.norm(b)
        assert be < 1e-10
        assert s.factor.pivots_2x2 > 0

    def test_transpose_solve_with_pivoting(self, rng):
        # refinement uses the transpose solve; with symmetric ldlt the
        # operator is its own transpose, so refine must converge
        a = helmholtz_3d(9, wavenumber=3.0)
        b = rng.standard_normal(a.n)
        s = Solver(a, self._config("dense"))
        s.factorize()
        res = s.refine(b, tol=1e-13, maxiter=10)
        assert res.backward_error < 1e-12


class TestBitIdentityWithPivotingOff:
    """pivoting='static' (the default) must remain bit-identical to the
    pre-pivoting code; the sha256 seed digests in
    test_backend_conformance pin this globally, these are the local
    spot-checks."""

    def test_static_ldlt_unchanged_by_helpers(self, rng):
        from repro.core.factorization import apply_d

        x = rng.standard_normal((5, 4))
        d = rng.standard_normal(4) + 3.0
        np.testing.assert_array_equal(
            apply_d(x, d, None, False, inverse=True, cols=True), x / d)
        np.testing.assert_array_equal(
            apply_d(x.T, d, None, False, inverse=True), x.T / d[:, None])
        np.testing.assert_array_equal(
            apply_d(x, d, None, False, cols=True), x * d)

    def test_threshold_without_pivots_matches_static(self, rng):
        # SPD matrix: threshold pivoting accepts every pivot in place, so
        # the factors must be bitwise identical to the static kernel's
        from repro.sparse.generators import laplacian_3d
        from tests.pins import factor_digest

        a = laplacian_3d(6)
        digests = []
        for pivoting in ("static", "threshold"):
            s = Solver(a, tiny_blr_config(factotype="ldlt",
                                          strategy="minimal-memory",
                                          tolerance=1e-8,
                                          pivoting=pivoting))
            s.factorize()
            assert s.factor.pivot_swaps == 0
            digests.append(factor_digest(s.factor))
        assert digests[0] == digests[1]


class TestPivotLadder:
    def test_escalate_relax_then_fallback(self):
        cfg = SolverConfig(factotype="ldlt", pivoting="threshold",
                           strategy="dense")
        seen = []
        while True:
            nxt = escalate_config(cfg, cause="pivot-failure")
            if nxt is None or len(seen) > 10:
                break
            seen.append((nxt.pivot_u, nxt.pivot_fallback))
            cfg = nxt
        # four relax rungs (0.1 * 0.25^k >= 1e-4), then the fallback
        assert [u for u, _ in seen[:-1]] == pytest.approx(
            [0.1 * 0.25 ** k for k in range(1, len(seen))])
        assert seen[-1][1] is True
        assert all(not fb for _, fb in seen[:-1])

    def test_escalate_static_budget_to_threshold(self):
        cfg = SolverConfig(factotype="ldlt", pivoting="static",
                           strategy="dense")
        nxt = escalate_config(cfg, cause="pivot-budget")
        assert nxt is not None and nxt.pivoting == "threshold"

    @pytest.mark.parametrize("strategy,rungs", [("dense", 0),
                                                ("just-in-time", 3)])
    def test_lu_budget_breakdown_wastes_no_pivoting_rung(self, strategy,
                                                         rungs):
        """Threshold pivoting only changes LDLᵗ, so an LU budget breakdown
        takes the legacy ladder: a BLR run tightens τ, a dense one has no
        rung left."""
        a = saddle_point_kkt(6)
        s = Solver(a, SolverConfig(
            factotype="lu", strategy=strategy, tolerance=1e-8,
            recovery=RecoveryPolicy(pivot_budget=0.0, max_retries=3)))
        with pytest.raises(NumericalBreakdown) as ei:
            s.factorize()
        assert ei.value.cause == "pivot-budget"
        refacs = [act for act in s.last_recovery["actions"]
                  if act["action"] == "refactorize"]
        assert len(refacs) == rungs
        if rungs:
            assert refacs[0]["tolerance"] == pytest.approx(1e-9)
            assert refacs[0]["strategy"] == strategy

    def test_non_pivot_cause_ignores_pivot_rungs(self):
        cfg = SolverConfig(factotype="ldlt", pivoting="threshold",
                           strategy="dense")
        assert escalate_config(cfg, cause="nan-factor") is None

    def test_ladder_walks_relax_then_fallback_end_to_end(self, rng):
        """The kkt zoo matrix defeats supernode-local pivoting outright;
        the armed solver must walk relax -> fallback and complete."""
        a = saddle_point_kkt(12)
        b = rng.standard_normal(a.n)
        cfg = SolverConfig(factotype="ldlt", strategy="dense",
                           pivoting="threshold",
                           recovery=RecoveryPolicy(max_retries=6))
        s = Solver(a, cfg)
        s.factorize()
        refacs = [act for act in s.last_recovery["actions"]
                  if act["action"] == "refactorize"]
        assert len(refacs) >= 2
        relaxed = [r["pivot_u"] for r in refacs if not r["pivot_fallback"]]
        assert relaxed == sorted(relaxed, reverse=True)  # monotone relax
        assert refacs[-1]["pivot_fallback"] is True      # final rung
        x = s.solve(b)
        res = s.refine(b, tol=1e-10, maxiter=25)
        assert res.backward_error < 1e-6  # perturbed fallback + refinement
        assert np.all(np.isfinite(x))

    def test_static_budget_breach_recovers_via_threshold(self, rng):
        a = helmholtz_3d(9, wavenumber=3.0)
        b = rng.standard_normal(a.n)
        cfg = SolverConfig(factotype="ldlt", strategy="dense",
                           pivoting="static",
                           recovery=RecoveryPolicy(pivot_budget=0.0))
        s = Solver(a, cfg)
        s.factorize()
        causes = [act.get("cause") for act in s.last_recovery["actions"]]
        assert "pivot-budget" in causes
        x = s.solve(b)
        be = np.linalg.norm(b - a.matvec(x)) / np.linalg.norm(b)
        assert be < 1e-10
        assert s.factor.pivot_swaps > 0  # final attempt used threshold

    def test_fallback_perturbations_exempt_from_budget(self, rng):
        # once the ladder enables pivot_fallback its perturbations are
        # sanctioned: a zero budget must not kill the final rung
        a = saddle_point_kkt(12)
        cfg = SolverConfig(factotype="ldlt", strategy="dense",
                           pivoting="threshold",
                           recovery=RecoveryPolicy(max_retries=6,
                                                   pivot_budget=0.0))
        s = Solver(a, cfg)
        s.factorize()
        assert s.factor.nperturbed > 0

    def test_policy_validation(self):
        """The pivoting rungs' shape is fixed, not a policy knob."""
        assert 0.0 < PIVOT_RELAX < 1.0
        assert 0.0 < PIVOT_U_FLOOR < SolverConfig().pivot_u


def _fake_ldlt_factor(diags, d21s, dtype=np.float64):
    """Hand-built stand-in NumericFactor for diagnostics unit tests."""
    cblks = []
    for d, d21 in zip(diags, d21s):
        diag = np.diag(np.asarray(d, dtype=dtype))
        piv = None if d21 is None else np.asarray(d21, dtype=dtype)
        cblks.append(SimpleNamespace(diag=diag, pivd21=piv))
    return SimpleNamespace(config=SimpleNamespace(factotype="ldlt"),
                           cblks=cblks,
                           symb=SimpleNamespace(n=sum(len(d) for d in diags)))


class TestInertiaWithPivoting:
    def test_exact_zero_entries_counted(self):
        fac = _fake_ldlt_factor([[2.0, -3.0, 0.0]], [None])
        assert factor_inertia(fac) == (1, 1, 1)

    def test_2x2_negative_determinant(self):
        # canonical Bunch-Kaufman block [[0, 1], [1, 0]]: one each sign
        fac = _fake_ldlt_factor([[0.0, 0.0]], [[1.0, 0.0]])
        assert factor_inertia(fac) == (1, 0, 1)

    def test_2x2_positive_determinant_follows_trace(self):
        fac = _fake_ldlt_factor([[-1.0, -2.0]], [[0.5, 0.0]])
        assert factor_inertia(fac) == (2, 0, 0)
        fac = _fake_ldlt_factor([[2.0, 1.0]], [[0.5, 0.0]])
        assert factor_inertia(fac) == (0, 0, 2)

    def test_2x2_singular_block(self):
        fac = _fake_ldlt_factor([[1.0, 1.0]], [[1.0, 0.0]])
        assert factor_inertia(fac) == (0, 1, 1)

    def test_mixed_blocks_and_singletons(self):
        fac = _fake_ldlt_factor([[3.0, 0.0, 0.0, -4.0]],
                                [[0.0, 1.0, 0.0, 0.0]])
        # singleton +3, 2x2 (0,-4|1) det -1 -> one each sign, plus ... the
        # 2x2 pairs entries 1,2; entry 3 is the -4 singleton
        neg, zero, pos = factor_inertia(fac)
        assert (neg, zero, pos) == (2, 0, 2)

    def test_slogdet_with_2x2_blocks(self):
        fac = _fake_ldlt_factor([[2.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
        sign, logdet = factor_slogdet(fac)
        # det = 2 * det([[0,1],[1,0]]) = -2
        assert sign == -1.0
        assert logdet == pytest.approx(np.log(2.0))

    def test_e2e_inertia_matches_eigenvalues(self, rng):
        a = helmholtz_3d(7, wavenumber=3.0)
        ev = np.linalg.eigvalsh(a.to_dense())
        expect = (int((ev < 0).sum()), 0, int((ev > 0).sum()))
        s = Solver(a, SolverConfig(factotype="ldlt", strategy="dense",
                                   pivoting="threshold"))
        s.factorize()
        assert s.factor.pivot_swaps + s.factor.pivots_2x2 > 0
        assert factor_inertia(s.factor) == expect


class TestSerializeWithPivoting:
    def test_factor_roundtrip_preserves_permutations(self, rng, tmp_path):
        from repro.core.serialize import load_factor, save_factor

        a = helmholtz_3d(7, wavenumber=3.0)
        b = rng.standard_normal(a.n)
        s = Solver(a, SolverConfig(factotype="ldlt", strategy="dense",
                                   pivoting="threshold"))
        s.factorize()
        x0 = s.solve(b)
        assert any(nc.pivperm is not None for nc in s.factor.cblks)
        path = save_factor(s.factor, s.perm, tmp_path / "piv.rpz")
        fac2, perm2 = load_factor(path)
        for nc, nc2 in zip(s.factor.cblks, fac2.cblks):
            if nc.pivperm is None:
                assert nc2.pivperm is None
            else:
                np.testing.assert_array_equal(nc.pivperm, nc2.pivperm)
            if nc.pivd21 is None:
                assert nc2.pivd21 is None
            else:
                np.testing.assert_array_equal(nc.pivd21, nc2.pivd21)
        s2 = Solver.load_factor(a, path)
        np.testing.assert_array_equal(s2.solve(b), x0)


@pytest.fixture
def pivot_stats(monkeypatch):
    """The ``stats`` dict of every ``Kernels.ldlt_pivot`` call."""
    made, real = [], Kernels.ldlt_pivot

    def spy(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        made.append(out[3])
        return out

    monkeypatch.setattr(Kernels, "ldlt_pivot", spy)
    return made


class TestPivotTelemetryAndReport:
    def test_record_pivoting_counters(self, pivot_stats):
        """The run-wide pivot counts on the factor are the sums of what
        the pivoting kernel reported, block by block."""
        a = helmholtz_3d(9, wavenumber=3.0)
        s = Solver(a, SolverConfig(factotype="ldlt", strategy="dense",
                                   pivoting="threshold"))
        s.factorize()
        assert len(pivot_stats) == len(s.factor.cblks)
        assert any(st["swaps"] or st["n2x2"] for st in pivot_stats)
        assert sum(st["swaps"] for st in pivot_stats) == s.factor.pivot_swaps
        assert sum(st["n2x2"] for st in pivot_stats) == s.factor.pivots_2x2
        assert s.factor.pivot_growth >= 1.0
        assert max(st["growth"] for st in pivot_stats) == s.factor.pivot_growth

    def test_each_fallback_perturbation_counts_once(self, pivot_stats):
        """``nperturbed`` counts every perturbation the pivoting kernel
        made exactly once: the factor's total is the sum of the kernel's
        own per-block counts."""
        s = Solver(saddle_point_kkt(6), SolverConfig(
            factotype="ldlt", strategy="dense", pivoting="threshold",
            pivot_fallback=True))
        s.factorize()
        assert sum(st["perturbed"] for st in pivot_stats) == 1
        assert s.factor.nperturbed == 1

    def test_run_report_carries_pivot_stats(self, rng):
        from repro.analysis.report import render_markdown
        from repro.runtime.telemetry import Telemetry

        a = helmholtz_3d(9, wavenumber=3.0)
        b = rng.standard_normal(a.n)
        s = Solver(a, SolverConfig(factotype="ldlt", strategy="dense",
                                   pivoting="threshold",
                                   telemetry=Telemetry()))
        s.factorize()
        x = s.solve(b)
        rep = s.run_report(workload="helmholtz-k3",
                           backward_error=float(np.linalg.norm(
                               b - a.matvec(x)) / np.linalg.norm(b)))
        piv = rep["pivoting"]
        assert piv["mode"] == "threshold"
        assert piv["swaps"] == s.factor.pivot_swaps
        assert piv["two_by_two"] == s.factor.pivots_2x2
        md = render_markdown(rep)
        assert "Pivoting (threshold/2x2)" in md
