"""Tests for the span profiler (repro.runtime.spans) and its analysis
pipeline (repro.analysis.profile).

The heart of the suite: a traced factorization records one tree of
nested spans — the same tree, edge for edge and attribute for attribute
(timestamps aside), on every run — and attaching the profiler must not
change a single bit of the computed factors.
"""

import json
import time

import numpy as np
import pytest

from repro.analysis.profile import phase_rollup
from repro.core.solver import Solver
from repro.runtime.spans import SpanProfiler, canonical_tree
from repro.sparse.generators import laplacian_2d, laplacian_3d
from tests.conftest import tiny_blr_config
from tests.pins import factor_digest


def profiled_solver(a, **overrides):
    prof = SpanProfiler()
    s = Solver(a, tiny_blr_config(profiler=prof, **overrides))
    s.factorize()
    return s, prof


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

    def test_invariants_catch_unended_span(self):
        prof = SpanProfiler()
        prof.start("leak")
        problems = prof.check_invariants()
        assert any("never ended" in p for p in problems)

    def test_json_round_trip(self):
        prof = SpanProfiler()
        with prof.span("phase", n=5):
            with prof.span("kernel", cblk=0):
                pass
        prof.finish()
        doc = json.loads(json.dumps(prof.to_json()))
        assert set(doc) == {"version", "trace_id", "spans"}
        assert doc["version"] == 1
        assert canonical_tree(doc["spans"]) == canonical_tree(prof.events())

    def test_from_json_rejects_unknown_version(self):
        """The documents' reader, ``phase_rollup``, checks the version."""
        with pytest.raises(ValueError, match="version"):
            phase_rollup({"version": 99, "spans": []})

    def test_to_json_writes_file(self, tmp_path):
        prof = SpanProfiler()
        prof.finish()
        path = tmp_path / "spans.json"
        prof.to_json(path)
        assert json.loads(path.read_text())["version"] == 1

    def test_older_document_with_thread_and_link_keys_loads(self):
        """Span documents written while the profiler kept ``meta``,
        thread slots and "follows" links are still version 1: those keys
        are ignored, so the document rolls up and canonicalizes."""
        doc = {"version": 1, "trace_id": "old",
               "meta": {"engine": "sequential", "threads": 1},
               "spans": [
                   {"name": "run", "span_id": 1, "parent_id": None,
                    "thread": 0, "t0": 0.0, "t1": 1.0, "link": "child",
                    "attrs": {}},
                   {"name": "factorize", "span_id": 2, "parent_id": 1,
                    "thread": 0, "t0": 0.1, "t1": 0.9, "link": "child",
                    "attrs": {}},
                   {"name": "task", "span_id": 3, "parent_id": 2,
                    "thread": 0, "t0": 0.2, "t1": 0.4, "link": "child",
                    "attrs": {"cblk": 0, "level": 1}},
                   {"name": "task", "span_id": 4, "parent_id": 3,
                    "thread": 0, "t0": 0.5, "t1": 0.8, "link": "follows",
                    "attrs": {"cblk": 1, "level": 0}}]}
        roll = phase_rollup(doc)
        assert set(roll) == {"total_time", "phases", "kernels", "by_level"}
        assert roll["phases"]["factorize"]["time"] == pytest.approx(0.8)
        assert roll["kernels"]["task"]["count"] == 2
        assert set(roll["by_level"]) == {"0", "1"}
        bare = [{k: v for k, v in sp.items() if k not in ("thread", "link")}
                for sp in doc["spans"]]
        assert canonical_tree(doc["spans"]) == canonical_tree(bare)


class TestCanonicalTree:
    def test_ignores_timestamps_threads_and_sibling_order(self):
        def build(order):
            prof = SpanProfiler()
            for name in order:
                sid = prof.start(name, cblk=name)
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
            trees.append(canonical_tree(prof.events()))
            digests.append(factor_digest(s.factor))
        assert trees[0] == trees[1]
        assert digests[0] == digests[1]

    def test_profiling_does_not_change_float64_factor_bits(self):
        a = laplacian_2d(12)
        plain = Solver(a, tiny_blr_config(strategy="just-in-time"))
        plain.factorize()
        profiled, prof = profiled_solver(a, strategy="just-in-time")
        assert factor_digest(plain.factor) == factor_digest(profiled.factor)
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

    def test_phase_self_time_excludes_every_direct_child(self, doc):
        """A phase's self time is its time minus its direct children's —
        and the factorize phase's direct children are its assemble and
        every task, so its self time is what neither covers."""
        spans = doc["spans"]
        roll = phase_rollup(doc)

        def dur(sp):
            return sp["t1"] - sp["t0"]

        kids = {}
        for sp in spans:
            kids.setdefault(sp["parent_id"], []).append(sp)
        (root,) = kids[None]
        for phase in kids[root["span_id"]]:
            want = dur(phase) - sum(dur(c)
                                    for c in kids.get(phase["span_id"], []))
            assert roll["phases"][phase["name"]]["self_time"] == \
                pytest.approx(max(want, 0.0), abs=1e-9), phase["name"]
        (fact,) = [sp for sp in spans if sp["name"] == "factorize"]
        covered = sum(dur(sp) for sp in spans
                      if sp["name"] in ("assemble", "task"))
        assert roll["phases"]["factorize"]["self_time"] == \
            pytest.approx(dur(fact) - covered, abs=1e-9)


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
