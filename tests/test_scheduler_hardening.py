"""Concurrency tests for the hardened worker pool.

Covers the PR's tentpole guarantees:

* **Seeded determinism stress** — threaded factors are bit-identical to the
  sequential run (the pull-mode fan-in reduction fixes the floating-point
  reduction order per target).
* **Error aggregation** — every worker exception is collected; several
  simultaneous failures surface as one :class:`SchedulerError` carrying all
  of them.
* **Sentinel shutdown** — workers exit promptly after completion or
  failure; no scheduler thread outlives a run.
* **Deadlock watchdog** — a synthetic stall (fault-injected worker hang)
  raises :class:`DeadlockError` with a pending-counter dump instead of
  hanging the caller forever.

``REPRO_STRESS_REPS`` scales the stress repetition count (CI runs more).
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.core.factor import assemble
from repro.core.scheduler import (
    DeadlockError,
    SchedulerError,
    run_sequential,
    run_threaded,
)
from repro.lowrank.block import LowRankBlock
from repro.runtime.faults import FaultError, FaultInjector
from repro.core.solver import Solver
from repro.sparse.generators import laplacian_2d, laplacian_3d
from repro.sparse.permute import permute_symmetric
from repro.symbolic.factorization import SymbolicOptions, symbolic_factorization
from tests.conftest import tiny_blr_config

STRESS_REPS = int(os.environ.get("REPRO_STRESS_REPS", "10"))
STRESS_THREADS = tuple(
    int(t) for t in os.environ.get("REPRO_STRESS_THREADS", "2,4").split(","))


def _prepared(a, **overrides):
    cfg = tiny_blr_config(**overrides)
    opts = SymbolicOptions.from_config(cfg)
    symb, perm = symbolic_factorization(a, opts)
    return cfg, symb, permute_symmetric(a, perm)


def _assert_bit_identical(ref, other, context=""):
    for nc_r, nc_o in zip(ref.cblks, other.cblks):
        assert np.array_equal(nc_r.diag, nc_o.diag), \
            f"diag of cblk {nc_r.sym.id} differs {context}"
        for i in range(nc_r.sym.noff):
            br, bo = nc_r.lblock(i), nc_o.lblock(i)
            assert isinstance(br, LowRankBlock) == \
                isinstance(bo, LowRankBlock), \
                f"storage mode of block ({nc_r.sym.id},{i}) differs {context}"
            if isinstance(br, LowRankBlock):
                assert np.array_equal(br.u, bo.u) \
                    and np.array_equal(br.v, bo.v), \
                    f"LR block ({nc_r.sym.id},{i}) differs {context}"
            else:
                assert np.array_equal(np.asarray(br), np.asarray(bo)), \
                    f"dense block ({nc_r.sym.id},{i}) differs {context}"
        if nc_r.ublocks is not None or nc_r.upanel is not None:
            for i in range(nc_r.sym.noff):
                br, bo = nc_r.ublock(i), nc_o.ublock(i)
                if isinstance(br, LowRankBlock):
                    assert np.array_equal(br.u, bo.u) \
                        and np.array_equal(br.v, bo.v)
                else:
                    assert np.array_equal(np.asarray(br), np.asarray(bo))


class TestDeterminismStress:
    """Satellite: ~20 threaded factorizations, all bit-identical to the
    sequential run, for both engines and 2/4 threads."""

    @pytest.mark.parametrize("strategy", ["dense", "just-in-time"])
    def test_threaded_factors_bit_identical(self, strategy):
        a = laplacian_3d(6)
        cfg, symb, ap = _prepared(a, strategy=strategy, tolerance=1e-8)
        ref = assemble(ap, symb, cfg)
        run_sequential(ref)
        runs = 0
        for rep in range(STRESS_REPS):
            for nthreads in STRESS_THREADS:
                fac = assemble(ap, symb, cfg)
                run_threaded(fac, nthreads)
                _assert_bit_identical(
                    ref, fac, f"({nthreads} threads, rep {rep})")
                runs += 1
        assert runs >= 20

    def test_minimal_memory_also_deterministic(self):
        a = laplacian_3d(6)
        cfg, symb, ap = _prepared(a, strategy="minimal-memory",
                                  tolerance=1e-8)
        ref = assemble(ap, symb, cfg)
        run_sequential(ref)
        fac = assemble(ap, symb, cfg)
        run_threaded(fac, 4)
        _assert_bit_identical(ref, fac)

    def test_repeated_solves_identical(self):
        """End-to-end: repeated threaded factorize+solve yields the exact
        same solution vector every time."""
        a = laplacian_3d(5)
        b = np.arange(a.n, dtype=np.float64)
        ref = None
        for _ in range(4):
            s = Solver(a, tiny_blr_config(threads=4))
            s.factorize()
            x = s.solve(b)
            if ref is None:
                ref = x
            else:
                assert np.array_equal(ref, x)


class TestErrorAggregation:
    """Satellite: unsynchronized error collection is gone — all failures
    are gathered under a lock and surfaced together."""

    def test_two_simultaneous_failures_aggregate(self):
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(threads=2))
        s.analyze()
        leaves = [t for t in range(s.symbolic.ncblk)
                  if not s.symbolic.contributors(t)]
        assert len(leaves) >= 2
        inj = FaultInjector()
        # both initial leaves fail after a delay long enough that both
        # workers are guaranteed to be mid-task when the first error lands
        inj.fail_factor(leaves[0], delay=0.3)
        inj.fail_factor(leaves[1], delay=0.3)
        with pytest.raises(SchedulerError) as info:
            s.factorize(faults=inj)
        exc = info.value
        assert len(exc.errors) == 2
        assert all(isinstance(e, FaultError) for e in exc.errors)
        assert "2 scheduler workers failed" in str(exc)
        assert exc.__cause__ is exc.errors[0]

    def test_single_failure_raises_itself(self):
        """One failure must re-raise as the original exception type, not
        wrapped — callers keep matching on semantic exception classes."""
        a = laplacian_2d(6)
        s = Solver(a, tiny_blr_config(threads=2))
        s.analyze()
        inj = FaultInjector()
        inj.fail_factor(0, exc=ArithmeticError("singular-ish"))
        with pytest.raises(ArithmeticError, match="singular-ish"):
            s.factorize(faults=inj)


class TestSentinelShutdown:
    def test_no_scheduler_threads_survive_success(self):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(threads=4))
        s.factorize()
        leftovers = [th for th in threading.enumerate()
                     if th.name.startswith("repro-dyn")]
        assert not leftovers

    def test_no_scheduler_threads_survive_failure(self):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(threads=4))
        s.analyze()
        inj = FaultInjector()
        inj.fail_factor(0)
        with pytest.raises((FaultError, SchedulerError)):
            s.factorize(faults=inj)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leftovers = [th for th in threading.enumerate()
                         if th.name.startswith("repro-dyn")
                         and th.is_alive()]
            if not leftovers:
                break
            time.sleep(0.01)
        assert not leftovers

    def test_completion_is_prompt_without_watchdog(self):
        """Sentinel shutdown replaced the 50ms polling loop: a tiny run
        must complete and join essentially immediately."""
        a = laplacian_2d(5)
        cfg, symb, ap = _prepared(a, strategy="dense")
        fac = assemble(ap, symb, cfg)
        t0 = time.perf_counter()
        run_threaded(fac, 4)
        assert all(nc.factored for nc in fac.cblks)
        assert time.perf_counter() - t0 < 5.0


class TestDeadlockWatchdog:
    """Satellite/tentpole: a synthetic stall trips the watchdog, which
    raises with a pending-counter dump instead of hanging."""

    def test_watchdog_fires_with_pending_dump(self):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(threads=2, watchdog_timeout=0.4))
        s.analyze()
        inj = FaultInjector()
        release = inj.stall_factor(s.symbolic.ncblk - 1)  # hang on the root
        t0 = time.monotonic()
        try:
            with pytest.raises(DeadlockError) as info:
                s.factorize(faults=inj)
        finally:
            release.set()  # let the stalled daemon worker exit
        elapsed = time.monotonic() - t0
        msg = str(info.value)
        assert "stalled for 0.4s" in msg
        assert "pending counters" in msg
        assert "column blocks" in msg and "factored" in msg
        assert elapsed < 30.0, "watchdog did not bound the stall"

    def test_watchdog_reports_waiting_blocks(self):
        """Stall a mid-tree block: blocks depending on it must show up in
        the dump with their unfactored-contributor counts."""
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(threads=2, watchdog_timeout=0.4))
        s.analyze()
        symb = s.symbolic
        # a block someone depends on
        stalled = next(c for t in range(symb.ncblk)
                       for c in symb.contributors(t))
        inj = FaultInjector()
        release = inj.stall_factor(stalled)
        try:
            with pytest.raises(DeadlockError) as info:
                s.factorize(faults=inj)
        finally:
            release.set()
        assert "unfactored contributor" in str(info.value)

    def test_healthy_run_does_not_trip_watchdog(self):
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(threads=4, watchdog_timeout=30.0))
        s.factorize()  # must not raise
        b = np.ones(a.n)
        assert s.backward_error(s.solve(b), b) <= 1e-6

    def test_watchdog_config_validation(self):
        from repro.config import SolverConfig

        with pytest.raises(ValueError, match="watchdog"):
            SolverConfig(watchdog_timeout=0.0)
        with pytest.raises(ValueError, match="watchdog"):
            SolverConfig(watchdog_timeout=-1.0)
        SolverConfig(watchdog_timeout=None)  # disabled is fine
        SolverConfig(watchdog_timeout=5.0)
