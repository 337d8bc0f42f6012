"""Tests for the task view of a span profile (repro.analysis.profile).

Which fan-in task ran when is read off the span document: the
invariants the engine's task and kernel spans must satisfy, the task
bucket of the phase rollup, and the Gantt renderer — from a live
profiler and from its JSON round trip.
"""

import json

import pytest

from repro.analysis.charts import gantt_chart
from repro.analysis.profile import phase_rollup
from repro.core.solver import Solver
from repro.runtime.spans import SpanProfiler
from repro.sparse.generators import laplacian_2d, laplacian_3d
from tests.conftest import tiny_blr_config

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
        assert phase_rollup([]) == {"total_time": 0, "phases": {},
                                    "kernels": {}, "by_level": {}}


class TestJsonRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        _, doc = traced_solver(laplacian_3d(5))
        path = tmp_path / "spans.json"
        path.write_text(json.dumps(doc))
        assert phase_rollup(json.loads(path.read_text())) == \
            phase_rollup(doc)

    def test_from_json_accepts_dict(self):
        _, doc = traced_solver(laplacian_2d(6))
        assert phase_rollup(doc) == phase_rollup(doc["spans"])

    def test_schema_fields(self):
        """What the rollup and the Gantt chart read off a span."""
        _, doc = traced_solver(laplacian_2d(6))
        assert set(doc) == {"version", "trace_id", "spans"}
        assert doc["version"] == 1
        for sp in doc["spans"]:
            assert set(sp) == {"name", "span_id", "parent_id", "t0", "t1",
                               "attrs"}
        for sp in named(doc, "task") + named(doc, "factor"):
            assert "cblk" in sp["attrs"]
        for sp in named(doc, "update"):
            assert {"cblk", "target"} <= set(sp["attrs"])


class TestTraceInvariants:
    """The properties the engine's spans must satisfy."""

    def test_factor_tasks_cover_every_block_once(self):
        s, doc = traced_solver(laplacian_3d(6))
        every_block = list(range(s.symbolic.ncblk))
        for name in ("task", "factor"):
            assert sorted(sp["attrs"]["cblk"]
                          for sp in named(doc, name)) == every_block

    def test_tasks_are_children_of_factorize_with_cblk_and_level(self):
        s, doc = traced_solver(laplacian_3d(6))
        (fact,) = named(doc, "factorize")
        levels = s.symbolic.block_levels()
        for sp in named(doc, "task"):
            assert sp["parent_id"] == fact["span_id"]
            assert set(sp["attrs"]) == {"cblk", "level"}
            assert sp["attrs"]["level"] == levels[sp["attrs"]["cblk"]]

    def test_begin_before_end_and_no_thread_overlap(self):
        _, doc = traced_solver(laplacian_3d(6))
        assert all(sp["t1"] >= sp["t0"] for sp in doc["spans"])
        # tasks follow one another, and so do the kernel spans of one
        # nesting depth (updates and factors inside tasks)
        for names in (("task",), ("update", "factor")):
            spans = sorted((sp for sp in doc["spans"] if sp["name"] in names),
                           key=lambda sp: sp["t0"])
            assert spans
            for a, b in zip(spans, spans[1:]):
                assert b["t0"] >= a["t1"] - 1e-9

    def test_pull_mode_updates_have_explicit_targets(self):
        s, doc = traced_solver(laplacian_3d(6))
        updates = named(doc, "update")
        assert updates, "the engine must record update spans"
        # one update per edge of the plan: a fan-in target pulls each
        # contributor outside the bottom subtrees and each subtree root
        # facing it, a subtree column block extend-adds each child
        plan = s.symbolic.subtree_plan()
        edges = [(sp["attrs"]["cblk"], sp["attrs"]["target"])
                 for sp in updates]
        want = {(c, t) for t in range(s.symbolic.ncblk)
                for c in plan.pulls[t] + plan.children[t]}
        assert len(edges) == len(set(edges))
        assert set(edges) == want


class TestSummaries:
    def test_busy_is_the_task_time(self):
        """The tasks' busy time is the rollup's ``task`` bucket."""
        _, doc = traced_solver(laplacian_2d(7))
        tasks = phase_rollup(doc)["kernels"]["task"]
        assert tasks["count"] == len(named(doc, "task"))
        assert tasks["time"] == pytest.approx(
            sum(duration(sp) for sp in named(doc, "task")))


class TestGantt:
    def test_renders_lanes_and_legend(self, tmp_path):
        _, doc = traced_solver(laplacian_3d(5))
        out = gantt_chart(tmp_path / "gantt.svg", doc["spans"],
                          title="factorization")
        svg = out.read_text()
        assert svg.startswith("<svg")
        drawn = named(doc, "factor") + named(doc, "update")
        # one lane, labelled once
        assert svg.count(">tasks</text>") == 1
        assert "thread" not in svg
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
