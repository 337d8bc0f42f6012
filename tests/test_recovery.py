"""Tests for the self-healing solve pipeline (repro.runtime.recovery).

Covers the three tentpole layers end to end: breakdown detection (NaN
sentinels, pivot budgets, compression failures), the escalation policy
engine (local task retries, per-block dense fallback, whole-solve
refactorization, refinement-driven escalation), and the chaos acceptance
test at the bottom, which the CI chaos job runs.
"""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.config import SolverConfig
from repro.core.refinement import classify_history
from repro.core.solver import Solver
from repro.lowrank.block import LowRankBlock
from repro.runtime.faults import FaultError, FaultInjector
from repro.runtime.recovery import (
    NumericalBreakdown,
    RecoveryPolicy,
    RecoveryState,
    escalate_config,
    find_breakdown,
)
from repro.runtime.telemetry import Telemetry
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import laplacian_2d, laplacian_3d
from tests.conftest import tiny_blr_config


def factor_digest(fac):
    """sha256 over every numerical array of the factors (order-stable).

    Archive bytes are not comparable (zip timestamps), so bit-identity
    assertions hash the factor *contents*.
    """
    h = hashlib.sha256()

    def eat(arr):
        if arr is not None:
            h.update(np.ascontiguousarray(arr).tobytes())

    for nc in fac.cblks:
        eat(nc.diag)
        eat(nc.lpanel)
        eat(nc.upanel)
        for blocks in (nc.lblocks, nc.ublocks):
            for b in blocks or ():
                if isinstance(b, LowRankBlock):
                    eat(b.u)
                    eat(b.v)
                else:
                    eat(b)
    return h.hexdigest()


def singular_identityish(n=12, zero_at=5):
    """Identity-pattern SPD-ish matrix with one exactly-zero pivot.

    Static pivoting must perturb the zero diagonal entry, which a
    ``pivot_budget=0.0`` policy then flags as a breakdown.
    """
    colptr = np.arange(n + 1, dtype=np.int64)
    rowind = np.arange(n, dtype=np.int64)
    values = np.ones(n)
    values[zero_at] = 0.0
    return CSCMatrix(n, colptr, rowind, values)


class TestPolicyAndState:
    def test_policy_defaults_validate(self):
        p = RecoveryPolicy()
        assert p.max_retries == 3 and p.dense_fallback

    @pytest.mark.parametrize("bad", [
        dict(max_retries=-1),
        dict(tau_shrink=0.0),
        dict(tau_shrink=1.0),
        dict(tau_floor=0.0),
        dict(task_retries=-1),
        dict(retry_backoff=-0.5),
        dict(pivot_budget=-0.1),
        dict(refine_window=0),
        dict(refine_drop=1.0),
        dict(pivot_relax=1.0),
    ])
    def test_policy_rejects_bad_knobs(self, bad):
        with pytest.raises(ValueError):
            RecoveryPolicy(**bad)

    def test_config_coerces_dict(self):
        cfg = SolverConfig(recovery={"max_retries": 1})
        assert isinstance(cfg.recovery, RecoveryPolicy)
        assert cfg.recovery.max_retries == 1
        with pytest.raises(TypeError):
            SolverConfig(recovery="yes please")

    def test_state_records_and_counts(self):
        state = RecoveryState(RecoveryPolicy())
        state.record("task_retry", site="scheduler", cblk=3, attempt=1)
        state.record("task_retry", site="scheduler", cblk=4, attempt=1)
        state.record("breakdown", site="factor", cblk=4, cause="nan-input")
        assert state.counts() == {"task_retry": 2, "breakdown": 1}
        summ = state.summary()
        assert summ["counts"]["task_retry"] == 2
        assert summ["actions"][0]["cblk"] == 3

    def test_backoff_is_seeded_and_bounded(self):
        a = RecoveryState(RecoveryPolicy(retry_backoff=0.01, seed=9))
        b = RecoveryState(RecoveryPolicy(retry_backoff=0.01, seed=9))
        seq_a = [a.backoff(i) for i in range(3)]
        assert seq_a == [b.backoff(i) for i in range(3)]
        assert all(0.005 * 2 ** i <= s <= 0.015 * 2 ** i
                   for i, s in enumerate(seq_a))
        assert RecoveryState(RecoveryPolicy()).backoff(5) == 0.0


class TestBreakdownPlumbing:
    def test_breakdown_message_is_structured(self):
        exc = NumericalBreakdown("nan-input", cblk=7, site="factor",
                                 detail="lpanel")
        assert "nan-input" in str(exc) and "column block 7" in str(exc)
        assert (exc.cause, exc.cblk, exc.site) == ("nan-input", 7, "factor")

    def test_find_breakdown_direct_and_chained(self):
        bd = NumericalBreakdown("pivot-budget", cblk=2)
        assert find_breakdown(bd) is bd
        try:
            try:
                raise bd
            except NumericalBreakdown as inner:
                raise RuntimeError("wrapped") from inner
        except RuntimeError as outer:
            assert find_breakdown(outer) is bd
        assert find_breakdown(ValueError("plain")) is None

    def test_escalation_respects_downgrade_switch(self):
        policy = RecoveryPolicy(tau_shrink=0.1, tau_floor=1.0,
                                strategy_downgrade=False)
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=1e-8)
        assert escalate_config(cfg, policy) is None


class TestSentinels:
    def test_nan_input_breaks_down_structured(self):
        """With recovery on and no rungs left, a poisoned panel surfaces as
        a structured breakdown instead of silently NaN-ing the factors."""
        a = laplacian_3d(5)
        cfg = tiny_blr_config(strategy="dense",
                              recovery=RecoveryPolicy(max_retries=0))
        s = Solver(a, cfg)
        s.analyze()
        inj = FaultInjector()
        inj.nan_in_panel(0)
        with pytest.raises(NumericalBreakdown) as ei:
            s.factorize(faults=inj)
        assert ei.value.cause == "nan-input"
        assert ei.value.cblk == 0
        assert s.last_recovery["counts"]["breakdown"] == 1

    def test_pivot_budget_breakdown(self):
        a = singular_identityish()
        cfg = tiny_blr_config(
            strategy="dense",
            recovery=RecoveryPolicy(pivot_budget=0.0, max_retries=3))
        s = Solver(a, cfg)
        # dense strategy has no escalation rungs: the breakdown propagates
        with pytest.raises(NumericalBreakdown) as ei:
            s.factorize()
        assert ei.value.cause == "pivot-budget"

    def test_pivot_budget_none_tolerates_perturbation(self):
        a = singular_identityish()
        cfg = tiny_blr_config(strategy="dense", recovery=RecoveryPolicy())
        s = Solver(a, cfg)
        s.factorize()
        assert s.factor.nperturbed >= 1

    def test_default_config_unchanged(self):
        """recovery=None keeps the historical silent-poisoning behaviour."""
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="dense"))
        s.analyze()
        inj = FaultInjector()
        inj.nan_in_panel(0)
        s.factorize(faults=inj)  # must not raise
        assert s.last_recovery is None


class TestEscalationEndToEnd:
    def test_nan_panel_heals_via_refactorization(self):
        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=1e-8,
                              recovery=RecoveryPolicy())
        s = Solver(a, cfg)
        s.analyze()
        inj = FaultInjector()
        inj.nan_in_panel(0, transient=True)
        s.factorize(faults=inj)
        counts = s.last_recovery["counts"]
        assert counts["breakdown"] >= 1 and counts["refactorize"] >= 1
        b = np.ones(a.n)
        assert s.backward_error(s.solve(b), b) <= 1e-6

    def test_task_retry_heals_transient_fault(self):
        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=1e-8,
                              recovery=RecoveryPolicy())
        baseline = Solver(a, cfg)
        baseline.factorize()
        s = Solver(a, cfg)
        s.analyze()
        inj = FaultInjector()
        inj.fail_factor(s.symbolic.ncblk // 2, transient=True)
        s.factorize(faults=inj)
        assert s.last_recovery["counts"] == {"task_retry": 1}
        # snapshot/restore retry is exact: same factors as the clean run
        assert factor_digest(s.factor) == factor_digest(baseline.factor)

    def test_kept_panels_and_split_column_blocks_round_trip(self):
        """A JIT run holds both storage modes — most column blocks keep
        their panel, the ones with a low-rank block are split.  A
        snapshot/restore task retry at a split column block ends in the
        clean run's factors."""
        a = laplacian_3d(8)
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=1e-4)
        clean = Solver(a, cfg)
        clean.factorize()
        split = [nc.sym.id for nc in clean.factor.cblks if not nc.panel_mode]
        assert 0 < len(split) < clean.symbolic.ncblk / 2
        s = Solver(a, cfg.with_options(recovery=RecoveryPolicy()))
        inj = FaultInjector()
        inj.fail_factor(split[len(split) // 2], transient=True)
        s.factorize(faults=inj)
        assert s.last_recovery["counts"] == {"task_retry": 1}
        assert factor_digest(s.factor) == factor_digest(clean.factor)

    def test_left_looking_retries_locally(self):
        """Every task allocates its own column block (§4.3's left-looking
        allocation): a transient update-site fault, hit after earlier
        updates already landed in the freshly filled column block, frees
        it, fills it again and ends in the uninterrupted run's factors and
        peak."""
        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=1e-8,
                              recovery=RecoveryPolicy(task_retries=2))
        clean = Solver(a, cfg)
        clean.factorize()
        s = Solver(a, cfg)
        symb = s.analyze()
        t = next(t for t in range(symb.ncblk)
                 if len(symb.contributors(t)) >= 2)
        inj = FaultInjector()
        inj.fail_update(symb.contributors(t)[-1], target=t, transient=True)
        s.factorize(faults=inj)
        assert s.last_recovery["counts"] == {"task_retry": 1}
        assert factor_digest(s.factor) == factor_digest(clean.factor)
        assert s.stats.peak_nbytes == clean.stats.peak_nbytes

    def test_task_retries_exhausted_still_raises(self):
        a = laplacian_2d(6)
        cfg = tiny_blr_config(
            strategy="dense",
            recovery=RecoveryPolicy(task_retries=2, max_retries=0))
        s = Solver(a, cfg)
        s.analyze()
        inj = FaultInjector()
        inj.fail_factor(0)  # permanent: every retry refaults
        with pytest.raises(FaultError):
            s.factorize(faults=inj)
        assert s.last_recovery["counts"]["task_retry"] == 2

    def test_compress_failure_falls_back_to_dense(self):
        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=1e-8,
                              recovery=RecoveryPolicy())
        s = Solver(a, cfg)
        s.analyze()
        inj = FaultInjector()
        for k in range(s.symbolic.ncblk):
            inj.fail_compress(k)
        s.factorize(faults=inj)
        counts = s.last_recovery["counts"]
        assert counts.get("dense_fallback", 0) >= 1
        assert "refactorize" not in counts  # healed per block, not per run
        b = np.ones(a.n)
        assert s.backward_error(s.solve(b), b) <= 1e-10  # fully dense now

    def test_compress_failure_without_fallback_raises(self):
        a = laplacian_3d(6)
        cfg = tiny_blr_config(
            strategy="just-in-time", tolerance=1e-8,
            recovery=RecoveryPolicy(dense_fallback=False, max_retries=0,
                                    task_retries=0))
        s = Solver(a, cfg)
        s.analyze()
        inj = FaultInjector()
        for k in range(s.symbolic.ncblk):
            inj.fail_compress(k)
        with pytest.raises(FaultError):
            s.factorize(faults=inj)

    def test_trisolve_retry(self):
        a = laplacian_3d(5)
        cfg = tiny_blr_config(strategy="dense", recovery=RecoveryPolicy())
        s = Solver(a, cfg)
        s.factorize()
        inj = FaultInjector()
        inj.fail_trisolve(transient=True)
        s.factor.faults = inj
        b = np.ones(a.n)
        x = s.solve(b)
        assert s.backward_error(x, b) <= 1e-10
        assert ("trisolve", -1, None, "raise") in inj.fired

    def test_trisolve_retry_is_counted_on_the_run(self):
        """The retried solve lands in the run's record with no telemetry
        store attached."""
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="dense",
                                      recovery=RecoveryPolicy()))
        s.factorize()
        assert s.config.telemetry is None
        inj = FaultInjector()
        inj.fail_trisolve(transient=True)
        s.factor.faults = inj
        s.solve(np.ones(a.n))
        assert s.last_recovery["counts"] == {"task_retry": 1}
        assert s.last_recovery["actions"][0]["site"] == "trisolve"
        assert s.run_report()["recovery"]["counts"] == {"task_retry": 1}

    def test_compress_kernel_failure_counted_without_policy(self,
                                                            monkeypatch):
        """A compression kernel that fails keeps its block dense whatever
        the policy, and the run counts the verdict even with none armed."""
        import repro.lowrank.kernels as kernels_mod

        real = kernels_mod.rrqr_compress
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("geqp3 did not converge")
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels_mod, "rrqr_compress", fails_once)
        a = laplacian_3d(8)
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      tolerance=1e-4))
        stats = s.factorize()
        assert calls and stats.kernels.call_count("compress") > 1
        rec = s.last_recovery
        assert rec["policy"] is None
        assert rec["counts"] == {"compress_failure": 1}
        assert rec["actions"][0]["site"] == "rrqr"
        assert s.run_report()["recovery"]["counts"] == \
            {"compress_failure": 1}
        b = np.ones(a.n)
        assert s.backward_error(s.solve(b), b) <= 1e-3


class TestRefinementEscalation:
    def test_classify_history_verdicts(self):
        assert classify_history([]) == (False, False)
        assert classify_history([1.0, 0.5, float("nan")]) == (False, True)
        assert classify_history([1e-3, 1e-2, 5e-2],
                                growth=10.0) == (False, True)
        # 5 entries, window 4: last did not drop 10x below history[-5]
        assert classify_history([1.0, 0.9, 0.8, 0.7, 0.6],
                                window=4) == (True, False)
        assert classify_history([1.0, 0.1, 0.01, 1e-3, 1e-4],
                                window=4) == (False, False)

    def test_stalled_refinement_triggers_refactorization(self):
        a = laplacian_3d(6)
        policy = RecoveryPolicy(refine_window=2, refine_drop=50.0,
                                tau_shrink=1e-3, max_retries=3)
        # τ=0.9 plain iterative refinement contracts ~0.4x per iteration:
        # nowhere near the demanded 50x-per-2-iterations, so it stalls
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=0.9,
                              recovery=policy)
        s = Solver(a, cfg)
        s.factorize()
        b = np.ones(a.n)
        res = s.refine(b, tol=1e-12, maxiter=20, method="ir")
        assert res.converged
        assert s.last_recovery["counts"]["refine_escalation"] >= 1
        assert s.last_recovery["final_tolerance"] < 0.9

    def test_escalation_keeps_the_factorize_actions(self):
        """factorize, then refine with escalation rungs: one run, one
        record — the retry of the first factorization survives."""
        a = laplacian_3d(6)
        policy = RecoveryPolicy(refine_window=2, refine_drop=50.0,
                                tau_shrink=1e-3, max_retries=3)
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      tolerance=0.9, recovery=policy))
        s.analyze()
        inj = FaultInjector()
        inj.fail_factor(s.symbolic.ncblk // 2, transient=True)
        s.factorize(faults=inj)
        assert s.last_recovery["counts"] == {"task_retry": 1}
        s.refine(np.ones(a.n), tol=1e-12, maxiter=20, method="ir")
        rec = s.last_recovery
        rungs = rec["counts"]["refine_escalation"]
        assert rungs >= 1 and rec["counts"]["task_retry"] == 1
        assert rec["actions"][0]["action"] == "task_retry"
        assert rec["attempts"] == 1 + rungs

    def test_refinement_marks_classification_without_policy(self):
        """The classification fields are filled even with recovery off."""
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      tolerance=0.9))
        s.factorize()
        b = np.ones(a.n)
        res = s.refine(b, tol=1e-14, maxiter=8, method="ir")
        assert not res.converged  # 0.4x/iter cannot reach 1e-14 in 8 iters
        assert (res.stagnated, res.diverged) == classify_history(res.history)


class TestChaosAcceptance:
    """ISSUE acceptance: transient faults at three distinct sites, the
    recovery-enabled solve completes with a τ-consistent backward error
    and nonzero recovery counters in the RunReport."""

    def test_three_site_chaos_completes(self):
        a = laplacian_3d(6)
        tele = Telemetry()
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=1e-8,
                              telemetry=tele,
                              recovery=RecoveryPolicy())
        s = Solver(a, cfg)
        s.analyze()
        ncblk = s.symbolic.ncblk
        inj = FaultInjector(seed=42)
        inj.fail_factor(inj.pick_block(ncblk), transient=True)
        inj.nan_in_panel(inj.pick_block(ncblk), transient=True)
        inj.fail_compress(inj.pick_block(ncblk), transient=True)
        s.factorize(faults=inj)

        sites = {f[0] for f in inj.fired}
        assert sites == {"factor", "compress"}  # nan fires at site 'factor'
        counts = s.last_recovery["counts"]
        assert sum(counts.values()) >= 2
        b = np.ones(a.n)
        err = s.backward_error(s.solve(b), b)
        assert err <= 1e-5  # τ-consistent (τ=1e-8 with BLR slack)

        report = s.run_report(workload="chaos", backward_error=err)
        assert report["recovery"]["counts"] == counts
        assert counts["task_retry"] >= 1 and counts["dense_fallback"] >= 1
        assert report["telemetry"]["events_emitted"] > 0

        # the record does not depend on telemetry being attached
        bare = Solver(a, cfg.with_options(telemetry=None))
        bare.analyze()
        inj = FaultInjector(seed=42)
        inj.fail_factor(inj.pick_block(ncblk), transient=True)
        inj.nan_in_panel(inj.pick_block(ncblk), transient=True)
        inj.fail_compress(inj.pick_block(ncblk), transient=True)
        bare.factorize(faults=inj)
        assert bare.last_recovery["counts"] == counts


RECOVERY_LAYER_FILES = [
    "src/repro/runtime/recovery.py",
    "src/repro/runtime/faults.py",
    "src/repro/core/scheduler.py",
    "src/repro/core/factor.py",
    "src/repro/core/factorization.py",
    "src/repro/core/serialize.py",
    "src/repro/core/solver.py",
    "src/repro/core/refinement.py",
    "src/repro/core/trisolve.py",
    "src/repro/lowrank/kernels.py",
]

#: method names that count as "recording" an exception instead of
#: swallowing it (recovery log, event log, scheduler error aggregation)
RECORDING_CALLS = {"record", "emit", "append", "extend", "put",
                   "put_nowait", "add", "warn"}


def _handler_reraises_or_records(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in RECORDING_CALLS):
            return True
    return False


class TestNoSwallowedExceptions:
    """Satellite (f): every except handler in the recovery layer either
    re-raises or records what happened — silent healing is forbidden."""

    @pytest.mark.parametrize("rel", RECOVERY_LAYER_FILES)
    def test_every_handler_reraises_or_records(self, rel):
        path = Path(__file__).resolve().parent.parent / rel
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders = [
            f"{rel}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler)
            and not _handler_reraises_or_records(node)
        ]
        assert not offenders, (
            "except handlers that neither re-raise nor record: "
            + ", ".join(offenders))
