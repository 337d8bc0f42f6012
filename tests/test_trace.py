"""Tests for the task view of a span profile (repro.analysis.profile).

Who ran which fan-in task when is read off the span document: the
invariants every engine's task and kernel spans must satisfy, the
utilization/critical-path summary, and the Gantt renderer — from a live
profiler and from its JSON round trip.
"""

import json

import pytest

from repro.analysis.charts import gantt_chart
from repro.analysis.profile import task_summary
from repro.core.solver import Solver
from repro.runtime.spans import SpanProfiler
from repro.sparse.generators import laplacian_2d, laplacian_3d
from tests.conftest import tiny_blr_config

#: engine name -> config overrides producing that engine through Solver
ENGINES = {
    "sequential": dict(threads=1),
    "threaded-dynamic": dict(threads=4),
}


def traced_solver(a, **overrides):
    """A factorized solver and the span document of its run."""
    prof = SpanProfiler()
    s = Solver(a, tiny_blr_config(profiler=prof, **overrides))
    s.factorize()
    return s, prof.to_json()


def named(doc, name):
    return [sp for sp in doc["spans"] if sp["name"] == name]


def duration(sp):
    return sp["t1"] - sp["t0"]


class TestTracerUnit:
    def test_empty_tracer_summaries(self):
        summ = task_summary([])
        assert summ["n_tasks"] == 0 and summ["n_threads"] == 0
        assert summ["span"] == 0.0
        assert summ["critical_path"] == 0.0
        assert summ["mean_utilization"] == 0.0
        assert summ["parallelism"] == 0.0


class TestJsonRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        _, doc = traced_solver(laplacian_3d(5), threads=2)
        path = tmp_path / "spans.json"
        path.write_text(json.dumps(doc))
        assert task_summary(json.loads(path.read_text())) == \
            task_summary(doc)

    def test_from_json_accepts_dict(self):
        _, doc = traced_solver(laplacian_2d(6))
        assert task_summary(doc) == task_summary(doc["spans"])

    def test_schema_fields(self):
        """What the summary and the Gantt chart read off a span."""
        _, doc = traced_solver(laplacian_2d(6))
        assert doc["version"] == 1
        for sp in doc["spans"]:
            assert {"name", "thread", "t0", "t1", "attrs"} <= set(sp)
        for sp in named(doc, "task") + named(doc, "factor"):
            assert "cblk" in sp["attrs"]
        for sp in named(doc, "update"):
            assert {"cblk", "target"} <= set(sp["attrs"])


class TestTraceInvariants:
    """The properties every engine's spans must satisfy."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_factor_tasks_cover_every_block_once(self, engine):
        s, doc = traced_solver(laplacian_3d(6), **ENGINES[engine])
        every_block = list(range(s.symbolic.ncblk))
        for name in ("task", "factor"):
            assert sorted(sp["attrs"]["cblk"]
                          for sp in named(doc, name)) == every_block
        assert doc["meta"]["engine"] == engine

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_begin_before_end_and_no_thread_overlap(self, engine):
        _, doc = traced_solver(laplacian_3d(6), **ENGINES[engine])
        assert all(sp["t1"] >= sp["t0"] for sp in doc["spans"])
        # tasks on one thread follow one another, and so do the kernel
        # spans of one nesting depth (updates and factors inside tasks)
        for names in (("task",), ("update", "factor")):
            by_thread = {}
            for sp in doc["spans"]:
                if sp["name"] in names:
                    by_thread.setdefault(sp["thread"], []).append(sp)
            for spans in by_thread.values():
                spans.sort(key=lambda sp: sp["t0"])
                for a, b in zip(spans, spans[1:]):
                    assert b["t0"] >= a["t1"] - 1e-9

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_pull_mode_updates_have_explicit_targets(self, engine):
        s, doc = traced_solver(laplacian_3d(6), **ENGINES[engine])
        updates = named(doc, "update")
        assert updates, "every engine must record update spans"
        # one pulled update per (contributor, target) edge
        edges = {(sp["attrs"]["cblk"], sp["attrs"]["target"])
                 for sp in updates}
        want = {(c, t) for t in range(s.symbolic.ncblk)
                for c in s.symbolic.contributors(t)}
        assert edges == want


class TestSummaries:
    def test_thread_counts_reproduced(self):
        _, doc = traced_solver(laplacian_3d(6), threads=2)
        summ = task_summary(doc)
        assert doc["meta"]["threads"] == 2
        assert summ["n_threads"] == 2  # both workers genuinely ran tasks
        assert set(summ["utilization"]) == set(summ["thread_busy"])
        assert all(0.0 <= u <= 1.0 + 1e-9
                   for u in summ["utilization"].values())

    def test_sequential_critical_path_is_busy_time(self):
        _, doc = traced_solver(laplacian_2d(7))
        busy = sum(duration(sp) for sp in named(doc, "task"))
        assert task_summary(doc)["critical_path"] == pytest.approx(busy)

    def test_threaded_critical_path_bounds(self):
        _, doc = traced_solver(laplacian_3d(6), threads=4)
        summ = task_summary(doc)
        tasks = [duration(sp) for sp in named(doc, "task")]
        # the chain is at most all work, at least the heaviest single task
        assert max(tasks) <= summ["critical_path"] + 1e-12
        assert summ["critical_path"] <= sum(tasks) + 1e-9
        assert summ["parallelism"] >= 1.0 - 1e-9

    def test_span_covers_events(self):
        _, doc = traced_solver(laplacian_3d(5), threads=2)
        tasks = named(doc, "task")
        assert task_summary(doc)["span"] == pytest.approx(
            max(sp["t1"] for sp in tasks) - min(sp["t0"] for sp in tasks))


class TestGantt:
    def test_renders_lanes_and_legend(self, tmp_path):
        _, doc = traced_solver(laplacian_3d(5), threads=2)
        out = gantt_chart(tmp_path / "gantt.svg", doc["spans"],
                          title="tasks")
        svg = out.read_text()
        assert svg.startswith("<svg")
        drawn = named(doc, "factor") + named(doc, "update")
        for tid in sorted({sp["thread"] for sp in drawn}):
            assert f"thread {tid}" in svg
        assert "factor" in svg and "update" in svg
        # one rect per kernel span (plus background + legend swatches)
        assert svg.count("<rect") >= len(drawn)

    def test_accepts_json_dicts(self, tmp_path):
        _, doc = traced_solver(laplacian_2d(6))
        spans = json.loads(json.dumps(doc))["spans"]
        out = gantt_chart(tmp_path / "g.svg", spans)
        assert out.read_text() == gantt_chart(
            tmp_path / "h.svg", doc["spans"]).read_text()


class TestGanttKindColors:
    def test_compress_gets_a_stable_legend_color(self, tmp_path):
        """The "compress" pass renders with its own palette entry and
        appears in the legend; spans of any other name are not drawn."""
        from repro.analysis.charts import _GANTT_KIND_COLORS, PALETTE

        assert _GANTT_KIND_COLORS["compress"] == PALETTE[2]
        assert len(set(_GANTT_KIND_COLORS.values())) == 3

        prof = SpanProfiler()
        with prof.span("task", cblk=0):
            for kind in _GANTT_KIND_COLORS:
                with prof.span(kind, cblk=0):
                    pass
        svg = gantt_chart(tmp_path / "g.svg",
                          prof.to_json()["spans"]).read_text()
        for kind, color in _GANTT_KIND_COLORS.items():
            assert kind in svg
            assert color in svg
        # background + one rect and one legend swatch per kind: neither
        # the enclosing task nor the root span is drawn
        assert svg.count("<rect") == 1 + 2 * len(_GANTT_KIND_COLORS)

    def test_variant_runs_trace_their_extra_kinds(self):
        a = laplacian_2d(10)
        _, jit = traced_solver(a, strategy="just-in-time")
        assert named(jit, "compress")
