"""The one span seam (`repro.runtime.spans.span`): its disabled path, its
late attributes, and span trees that stay well-formed when a profiled
region raises."""

import numpy as np
import pytest

from repro import Solver, SolverConfig
from repro.core.scheduler import SchedulerError
from repro.runtime.faults import FaultError, FaultInjector
from repro.runtime.recovery import NumericalBreakdown
from repro.runtime.spans import SpanProfiler, span
from repro.sparse.generators import laplacian_3d, saddle_point_kkt
from tests.conftest import tiny_blr_config

FAILURES = (FaultError, SchedulerError, NumericalBreakdown)


class TestSpan:
    def test_disabled_is_one_shared_null_context(self):
        a, b = span(None, "x", cblk=1), span(None, "y")
        assert a is b
        with a as late:
            late["k"] = 1
        with b as late:
            assert late == {}

    def test_late_attributes_merge_at_close(self):
        prof = SpanProfiler()
        with span(prof, "phase", n=3) as late:
            late["ncblk"] = 7
        (phase,) = [s for s in prof.events() if s.name == "phase"]
        assert phase.attrs == {"n": 3, "ncblk": 7}
        assert phase.t1 >= phase.t0

    def test_closes_on_exception(self):
        prof = SpanProfiler()
        with pytest.raises(RuntimeError):
            with span(prof, "phase"):
                with prof.span("kernel", cblk=0):
                    raise RuntimeError("boom")
        assert prof.current() is None
        assert prof.check_invariants() == []


def _faulted(threads, arm, strategy="just-in-time"):
    """Factor (and solve) laplacian_3d(6) under a profiler with the faults
    ``arm`` registers; the run must raise."""
    a = laplacian_3d(6)
    prof = SpanProfiler()
    s = Solver(a, tiny_blr_config(strategy=strategy, tolerance=1e-4,
                                  threads=threads, profiler=prof))
    inj = FaultInjector()
    arm(inj, s.analyze().ncblk)
    with pytest.raises(FAILURES):
        s.factorize(faults=inj)
        s.solve(np.ones(a.n))
    assert inj.fired, "the armed fault never fired"
    return prof


@pytest.mark.parametrize("threads", [1, 4])
class TestSpansOnFailure:
    """A region that raises still closes every span it opened."""

    def test_update_failure(self, threads):
        prof = _faulted(threads, lambda inj, n: inj.fail_update(n // 2))
        assert prof.check_invariants() == []

    def test_compress_failure(self, threads):
        prof = _faulted(threads, lambda inj, n: inj.fail_compress(n // 2))
        assert prof.check_invariants() == []

    def test_trisolve_failure(self, threads):
        prof = _faulted(threads, lambda inj, n: inj.fail_trisolve())
        assert [s.name for s in prof.events()].count("solve") == 1
        assert prof.check_invariants() == []

    def test_pivot_failure_inside_factor(self, threads):
        prof = SpanProfiler()
        s = Solver(saddle_point_kkt(12),
                   SolverConfig(factotype="ldlt", strategy="dense",
                                pivoting="threshold", threads=threads,
                                profiler=prof))
        with pytest.raises(FAILURES):
            s.factorize()
        assert "factor" in {sp.name for sp in prof.events()}
        assert prof.check_invariants() == []
