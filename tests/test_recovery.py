"""Tests for the self-healing solve pipeline (repro.runtime.recovery).

Covers the three tentpole layers end to end: breakdown detection (NaN
sentinels, pivot budgets, compression failures), the escalation policy
engine (local task retries, per-block dense fallback, whole-solve
refactorization, refinement-driven escalation), and the chaos acceptance
test at the bottom, which the CI chaos job runs.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.config import SolverConfig
from repro.core.refinement import classify_history
from repro.core.solver import Solver
from repro.runtime import recovery
from repro.runtime.faults import FaultError, FaultInjector
from repro.runtime.recovery import (
    NumericalBreakdown,
    RecoveryPolicy,
    RecoveryState,
)
from repro.runtime.telemetry import Telemetry
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import laplacian_2d, laplacian_3d
from tests.conftest import tiny_blr_config
from tests.pins import factor_digest


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
        assert (p.max_retries, p.task_retries, p.pivot_budget) == (3, 2, None)

    @pytest.mark.parametrize("bad", [
        dict(max_retries=-1),
        dict(task_retries=-1),
        dict(pivot_budget=-0.1),
        dict(pivot_budget=float("nan")),  # would disable the budget
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


class TestBreakdownPlumbing:
    def test_breakdown_message_is_structured(self):
        exc = NumericalBreakdown("nan-input", cblk=7, site="factor",
                                 detail="lpanel")
        assert "nan-input" in str(exc) and "column block 7" in str(exc)
        assert (exc.cause, exc.cblk, exc.site) == ("nan-input", 7, "factor")


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

    def test_nan_in_panel_poisons_an_off_diagonal_block(self):
        """A column block whose candidates compressed as its task filled
        it still has off-diagonal rows: the first off-diagonal block is
        poisoned, not the diagonal block."""
        s = Solver(laplacian_3d(8), tiny_blr_config(
            strategy="minimal-memory", tolerance=1e-4,
            recovery=RecoveryPolicy()))
        inj = FaultInjector()
        inj.nan_in_panel(24, transient=True)
        s.factorize(faults=inj)
        assert s.factor.cblks[24].sym.blocks[1].lr_candidate
        assert s.last_recovery["actions"][0] == {
            "action": "breakdown", "site": "factor", "cblk": 24,
            "cause": "nan-input", "where": "lpanel"}

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
        """In a JIT run most column blocks hold every row in their panel,
        a few hold low-rank blocks beside it.  A snapshot/restore task
        retry at one of those ends in the clean run's factors."""
        a = laplacian_3d(8)
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=1e-4)
        clean = Solver(a, cfg)
        clean.factorize()
        split = [nc.sym.id for nc in clean.factor.cblks if nc.llowrank]
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
        """A bare run (no policy) has no dense fallback: the fault
        surfaces."""
        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=1e-8)
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

    @pytest.fixture
    def strict_stall(self, monkeypatch):
        """Demand a 50× drop every 2 iterations; shrink τ 1000× a rung."""
        monkeypatch.setattr(recovery, "REFINE_WINDOW", 2)
        monkeypatch.setattr(recovery, "REFINE_DROP", 50.0)
        monkeypatch.setattr(recovery, "TAU_SHRINK", 1e-3)

    def test_stalled_refinement_triggers_refactorization(self, strict_stall):
        a = laplacian_3d(6)
        # τ=0.9 plain iterative refinement contracts ~0.4x per iteration:
        # nowhere near the demanded 50x-per-2-iterations, so it stalls
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=0.9,
                              recovery=RecoveryPolicy())
        s = Solver(a, cfg)
        s.factorize()
        b = np.ones(a.n)
        res = s.refine(b, tol=1e-12, maxiter=20, method="ir")
        assert res.converged
        assert s.last_recovery["counts"]["refine_escalation"] >= 1
        assert s.last_recovery["final_tolerance"] < 0.9

    def test_escalation_keeps_the_factorize_actions(self, strict_stall):
        """factorize, then refine with escalation rungs: one run, one
        record — the retry of the first factorization survives."""
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      tolerance=0.9, recovery=RecoveryPolicy()))
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

    def test_breakdown_on_a_refine_rung_is_recorded_and_climbed(
            self, strict_stall):
        """The run's injector stays armed on refine rungs: a panel NaN on
        the first one is recorded by the ladder and climbs a refactorize
        rung, against the same budget."""
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      tolerance=0.9, recovery=RecoveryPolicy()))
        inj = FaultInjector()
        s.factorize(faults=inj)
        inj.nan_in_panel(0, transient=True)
        assert s.refine(np.ones(a.n), tol=1e-12, maxiter=20,
                        method="ir").converged
        acts = s.last_recovery["actions"]
        assert [(x["action"], x["cause"], x.get("rung")) for x in acts] == [
            ("refine_escalation", "stagnated", 1),
            ("breakdown", "nan-input", None), ("refactorize", "nan-input", 2)]
        assert (acts[1]["cblk"], acts[1]["where"]) == (0, "lpanel")
        assert s.last_recovery["final_tolerance"] == acts[2]["tolerance"]

    def test_exhausted_ladder_names_the_factor_it_holds(self, strict_stall):
        """A refine rung that cannot build a factor leaves the solver on
        the one it had: the final rung reported is that factor's."""
        from repro.runtime.recovery import NumericalBreakdown

        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(
            strategy="just-in-time", tolerance=0.9,
            recovery=RecoveryPolicy(max_retries=1)))
        inj = FaultInjector()
        s.factorize(faults=inj)
        inj.nan_in_panel(0)  # persistent: the rung breaks down
        with pytest.raises(NumericalBreakdown, match="nan-input"):
            s.refine(np.ones(a.n), tol=1e-12, maxiter=20, method="ir")
        rec = s.last_recovery
        assert rec["final_tolerance"] == s.factor.config.tolerance == 0.9
        assert rec["final_strategy"] == s.factor.config.strategy

    def test_failed_factorize_leaves_no_factor(self):
        """A factorize() that breaks down drops the previous run's factor:
        no rung is reported built, and the next solve factors anew
        instead of answering from the old factor."""
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(
            strategy="just-in-time", tolerance=1e-4,
            recovery=RecoveryPolicy(max_retries=1)))
        s.factorize()
        first = s.factor
        inj = FaultInjector()
        inj.nan_in_panel(0)  # persistent: every rung breaks down
        with pytest.raises(NumericalBreakdown, match="nan-input"):
            s.factorize(faults=inj)
        assert s.factor is None
        rec = s.last_recovery
        assert rec["counts"] == {"breakdown": 2, "refactorize": 1}
        assert rec["final_tolerance"] is None
        assert rec["final_strategy"] is None
        b = np.ones(a.n)
        x = s.solve(b)
        assert s.factor is not None and s.factor is not first
        assert s.backward_error(x, b) <= 1e-3

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

    @staticmethod
    def drill(cfg):
        """The three-site drill on lap6: the solver and its injector."""
        s = Solver(laplacian_3d(6), cfg)
        ncblk = s.analyze().ncblk
        inj = FaultInjector(seed=42)
        inj.fail_factor(inj.pick_block(ncblk), transient=True)
        inj.nan_in_panel(inj.pick_block(ncblk), transient=True)
        inj.fail_compress(inj.pick_block(ncblk), transient=True)
        s.factorize(faults=inj)
        return s, inj

    def test_three_site_chaos_completes(self):
        cfg = tiny_blr_config(strategy="just-in-time", tolerance=1e-8,
                              telemetry=Telemetry(),
                              recovery=RecoveryPolicy())
        s, inj = self.drill(cfg)
        sites = {f[0] for f in inj.fired}
        assert sites == {"factor", "compress"}  # nan fires at site 'factor'
        # one action per armed fault, in firing order, plus the rung the
        # panel-NaN breakdown climbs
        actions = [
            {"action": "task_retry", "site": "scheduler", "cblk": 5,
             "attempt": 1, "error": "FaultError"},
            {"action": "dense_fallback", "site": "compress", "cblk": 42,
             "error": "FaultError"},
            {"action": "breakdown", "site": "factor", "cblk": 50,
             "cause": "nan-input", "where": "lpanel"},
            {"action": "refactorize", "site": "solver", "cblk": 50,
             "cause": "nan-input", "tolerance": 1e-9,
             "strategy": "just-in-time", "pivot_u": 0.1,
             "pivot_fallback": False, "rung": 1}]
        assert s.last_recovery["actions"] == actions
        b = np.ones(s.n)
        err = s.backward_error(s.solve(b), b)
        assert err <= 1e-5  # τ-consistent (τ=1e-8 with BLR slack)

        report = s.run_report(workload="chaos", backward_error=err)
        assert report["recovery"]["counts"] == s.last_recovery["counts"]
        assert report["telemetry"]["series"]["memory_highwater"]
        # the record does not depend on telemetry being attached
        bare, _ = self.drill(cfg.with_options(telemetry=None))
        assert bare.last_recovery["actions"] == actions


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
