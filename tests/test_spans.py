"""Tests for the causal span profiler (repro.runtime.spans) and its
analysis pipeline (repro.analysis.profile).

The heart of the suite: a traced factorization records the task DAG as
its causal span tree — the same tree, edge for edge and attribute for
attribute (timestamps aside), on every run — and attaching the profiler
must not change a single bit of the computed factors.
"""

import hashlib
import json
import threading
import time

import numpy as np
import pytest

from repro.analysis.profile import phase_rollup
from repro.core.solver import Solver
from repro.runtime.spans import (
    LINK_CHILD,
    LINK_FOLLOWS,
    SpanProfiler,
    canonical_tree,
)
from repro.sparse.generators import laplacian_2d, laplacian_3d
from tests.conftest import tiny_blr_config

def profiled_solver(a, **overrides):
    prof = SpanProfiler()
    s = Solver(a, tiny_blr_config(profiler=prof, **overrides))
    s.factorize()
    return s, prof


def factor_digest(solver):
    h = hashlib.sha256()
    for nc in solver.factor.cblks:
        h.update(np.ascontiguousarray(nc.diag).tobytes())
        for i in range(len(nc.sym.off_blocks())):
            blk = nc.lblock(i)
            if hasattr(blk, "u"):
                h.update(np.ascontiguousarray(blk.u).tobytes())
                h.update(np.ascontiguousarray(blk.v).tobytes())
            else:
                h.update(np.ascontiguousarray(blk).tobytes())
    return h.hexdigest()


class TestProfilerUnit:
    def test_nesting_via_context_stack(self):
        prof = SpanProfiler()
        outer = prof.start("outer")
        inner = prof.start("inner")
        assert prof.current() == inner
        prof.end(inner)
        assert prof.current() == outer
        prof.end(outer)
        spans = {s.name: s for s in prof.events()}
        assert spans["outer"].parent_id == prof.root_id
        assert spans["inner"].parent_id == outer
        assert spans["inner"].link == LINK_CHILD

    def test_explicit_parent_and_follows_link(self):
        prof = SpanProfiler()
        a = prof.start("a")
        prof.end(a)
        b = prof.start("b", parent=a, link=LINK_FOLLOWS)
        prof.end(b)
        spans = {s.name: s for s in prof.events()}
        assert spans["b"].parent_id == a
        assert spans["b"].link == LINK_FOLLOWS

    def test_end_none_is_noop(self):
        prof = SpanProfiler()
        prof.end(None)  # must not raise

    def test_end_merges_late_attrs(self):
        prof = SpanProfiler()
        sid = prof.start("phase", n=3)
        prof.end(sid, ncblk=7)
        span = next(s for s in prof.events() if s.span_id == sid)
        assert span.attrs == {"n": 3, "ncblk": 7}

    def test_span_context_manager_closes_on_error(self):
        prof = SpanProfiler()
        with pytest.raises(RuntimeError):
            with prof.span("work"):
                raise RuntimeError("boom")
        prof.finish()
        assert prof.check_invariants() == []

    def test_ids_are_unique_across_threads(self):
        prof = SpanProfiler()
        ids, errs = [], []
        gate = threading.Barrier(4)

        def worker():
            try:
                gate.wait()  # all four threads alive at once
                for _ in range(50):
                    sid = prof.start("w")
                    ids.append(sid)
                    prof.end(sid)
            except Exception as exc:  # pragma: no cover - diagnostic
                errs.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errs
        assert len(ids) == len(set(ids)) == 200
        assert len({s.thread for s in prof.events() if s.name == "w"}) == 4

    def test_invariants_catch_unended_span(self):
        prof = SpanProfiler()
        prof.start("leak")
        problems = prof.check_invariants()
        assert any("never ended" in p for p in problems)

    def test_json_round_trip(self):
        prof = SpanProfiler()
        prof.meta.update(engine="sequential", threads=1)
        with prof.span("phase", n=5):
            with prof.span("kernel", cblk=0):
                pass
        prof.finish()
        doc = prof.to_json()
        assert doc["version"] == 1
        clone = SpanProfiler.from_json(doc)
        assert clone.meta["engine"] == "sequential"
        assert canonical_tree(clone.events()) == canonical_tree(prof.events())
        assert clone.check_invariants() == []

    def test_from_json_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            SpanProfiler.from_json({"version": 99, "spans": []})

    def test_to_json_writes_file(self, tmp_path):
        prof = SpanProfiler()
        prof.finish()
        path = tmp_path / "spans.json"
        prof.to_json(path)
        assert json.loads(path.read_text())["version"] == 1

    def test_task_start_parents_to_canonical_releaser(self):
        prof = SpanProfiler()
        phase = prof.start("factorize")
        prof.begin_tasks(levels=[0, 1, 1])
        t0 = prof.task_start(0, [])
        prof.end(t0)
        t2 = prof.task_start(2, [])
        prof.end(t2)
        # cblk 1 depends on 0 and 2: parent must be the span of max(0, 2)
        t1 = prof.task_start(1, [0, 2])
        prof.end(t1)
        prof.end(phase)
        spans = {s.span_id: s for s in prof.events()}
        assert spans[t0].parent_id == phase
        assert spans[t0].link == LINK_CHILD
        assert spans[t1].parent_id == t2
        assert spans[t1].link == LINK_FOLLOWS
        assert spans[t1].attrs["level"] == 1

    def test_phase_span_emits_telemetry_event(self):
        from repro.runtime.telemetry import Telemetry

        tele = Telemetry()
        prof = SpanProfiler(telemetry=tele)
        with prof.span("factorize", strategy="just-in-time"):
            with prof.span("factor", cblk=0):  # nested: no event
                pass
        names = [e["name"] for e in tele.events()
                 if e["kind"] == "span"]
        assert names == ["factorize"]


class TestCanonicalTree:
    def test_ignores_timestamps_threads_and_sibling_order(self):
        def build(order):
            prof = SpanProfiler()
            for name in order:
                sid = prof.start(name, parent=prof.root_id, cblk=name)
                prof.end(sid)
            prof.finish()
            return canonical_tree(prof.events())

        assert build(["a", "b", "c"]) == build(["c", "a", "b"])

    def test_distinguishes_edges_and_attrs(self):
        def build(attr):
            prof = SpanProfiler()
            sid = prof.start("t", cblk=attr)
            prof.end(sid)
            prof.finish()
            return canonical_tree(prof.events())

        assert build(1) != build(2)


class TestEngineEquivalence:
    """Traced runs: a reproducible tree, the unprofiled run's bits."""

    @pytest.mark.parametrize("strategy", [pytest.param("just-in-time",
                                                       id="ucf")])
    def test_span_tree_is_reproducible(self, strategy):
        a = laplacian_2d(12)
        trees, digests = [], []
        for _ in range(2):
            s, prof = profiled_solver(a, strategy=strategy)
            assert prof.check_invariants() == [], strategy
            assert prof.meta == {"engine": "sequential", "threads": 1}
            trees.append(canonical_tree(prof.events()))
            digests.append(factor_digest(s))
        assert trees[0] == trees[1]
        assert digests[0] == digests[1]

    def test_profiling_does_not_change_float64_factor_bits(self):
        a = laplacian_2d(12)
        plain = Solver(a, tiny_blr_config(strategy="just-in-time"))
        plain.factorize()
        profiled, prof = profiled_solver(a, strategy="just-in-time")
        assert factor_digest(plain) == factor_digest(profiled)
        assert prof.check_invariants() == []

    def test_full_pipeline_phases_recorded(self):
        a = laplacian_2d(10)
        prof = SpanProfiler()
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      profiler=prof))
        s.factorize()
        b = np.ones(a.n)
        x = s.solve(b)
        s.refine(b, x0=x)
        prof.finish()
        names = {sp.name for sp in prof.events()}
        for expected in ("run", "analyze", "ordering", "symbolic",
                         "assemble", "factorize", "task", "factor",
                         "solve", "trisolve", "refinement"):
            assert expected in names, expected
        # phase spans are the direct children of the root
        root = prof.root_id
        phases = {sp.name for sp in prof.events() if sp.parent_id == root}
        assert {"analyze", "factorize", "solve", "refinement"} <= phases


class TestRollupAndExporters:
    @pytest.fixture(scope="class")
    def doc(self):
        a = laplacian_2d(10)
        prof = SpanProfiler()
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      profiler=prof))
        s.factorize()
        s.solve(np.ones(a.n))
        prof.finish()
        return prof.to_json()

    def test_phase_rollup_shape(self, doc):
        roll = phase_rollup(doc)
        assert roll["total_time"] > 0
        assert set(roll["phases"]) == {"analyze", "factorize", "solve"}
        fact = roll["phases"]["factorize"]
        assert 0 <= fact["self_time"] <= fact["time"]
        assert roll["kernels"]["task"]["count"] > 0
        assert roll["kernels"]["factor"]["count"] > 0
        assert roll["by_level"], "task spans must carry level attributes"


class TestDisabledAndEnabledOverhead:
    def test_profiling_is_off_by_default(self):
        s = Solver(laplacian_2d(6), tiny_blr_config())
        s.factorize()
        assert s.config.profiler is None

    def test_profiled_overhead_under_5_percent(self):
        """Span recording must not slow a laplacian_3d(8) JIT/RRQR
        factorization by more than 5% (plus a small absolute epsilon
        for scheduler noise) — the bound CI enforces on tier-0."""
        from repro.config import SolverConfig

        a = laplacian_3d(8)

        def best_of(profile, reps=3):
            times = []
            for _ in range(reps):
                cfg = SolverConfig.laptop_scale(
                    strategy="just-in-time", kernel="rrqr",
                    profiler=SpanProfiler() if profile else None)
                s = Solver(a, cfg)
                s.analyze()
                t0 = time.perf_counter()
                s.factorize()
                times.append(time.perf_counter() - t0)
            return min(times)

        best_of(False, reps=1)  # warm the caches
        t_off = best_of(False)
        t_on = best_of(True)
        assert t_on <= 1.05 * t_off + 0.02, (
            f"profiling overhead too high: off={t_off:.4f}s on={t_on:.4f}s")
