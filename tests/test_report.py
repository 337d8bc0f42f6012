"""Tests for RunReport artifacts, rank-by-level metrics, the ``repro
report`` CLI, the tier-0 bench history format, and tools/benchdiff.

The two ``test_run_report_*`` cases are the acceptance criteria: a
telemetry-enabled JIT run and a Minimal Memory run must each produce a
RunReport containing kernel tallies and backend kernel calls, a memory
high-water timeline, rank-evolution samples and a refinement residual
history.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.metrics import cblk_levels, rank_histogram_by_level
from repro.analysis.report import (
    REPORT_SCHEMA,
    build_run_report,
    load_run_report,
    render_figures,
    render_markdown,
    report_attribution,
    save_run_report,
)
from repro.cli import main
from repro.core.solver import Solver
from repro.runtime.telemetry import Telemetry
from repro.sparse.generators import laplacian_2d, laplacian_3d
from tests.conftest import tiny_blr_config
from tools.benchdiff import Thresholds, compare, extract_metrics
from tools.benchdiff.__main__ import run as benchdiff_run

REPO_ROOT = Path(__file__).resolve().parent.parent


def _reported_solver(strategy: str, **overrides) -> Solver:
    tele = Telemetry()
    a = laplacian_2d(24)
    s = Solver(a, tiny_blr_config(strategy=strategy, telemetry=tele,
                                  **overrides))
    s.factorize()
    b = np.ones(a.n)
    x = s.solve(b)
    s.refine(b, x0=x)
    return s


def _check_full_report(report: dict) -> None:
    assert report["schema"] == REPORT_SCHEMA
    # kernel counts: the Table-2 tallies and the backend calls per phase
    assert report["kernels"]["compress"]["calls"] > 0
    calls = report["backend_kernel_calls"]
    assert calls["factorize"]["getrf"] > 0
    assert calls["solve"]["panel_trsm"] > 0
    assert set(report["telemetry"]) == {"series", "events_emitted"}
    # memory high-water timeline
    mem = report["telemetry"]["series"]["memory_highwater"]
    assert len(mem) > 1
    assert mem[-1]["peak"] >= mem[0]["peak"]
    # rank-evolution samples
    ranks = report["telemetry"]["series"]["rank_evolution"]
    assert len(ranks) > 0
    assert all("rank_after" in p for p in ranks)
    # refinement residual history
    hist = report["refinement"]["residual_history"]
    assert len(hist) >= 1
    assert all(isinstance(h, float) for h in hist)
    # the whole artifact is valid JSON
    json.dumps(report)


class TestRunReport:
    def test_run_report_just_in_time(self):
        s = _reported_solver("just-in-time")
        report = s.run_report(workload="lap2d:24", backward_error=1e-12)
        _check_full_report(report)
        assert report["workload"] == "lap2d:24"
        assert report["backward_error"] == 1e-12
        assert report["config"]["strategy"] == "just-in-time"
        assert report["config"]["telemetry"] is None

    def test_run_report_minimal_memory(self):
        s = _reported_solver("minimal-memory")
        report = s.run_report()
        _check_full_report(report)
        sites = {p["site"]
                 for p in report["telemetry"]["series"]["rank_evolution"]}
        assert "recompress" in sites

    def test_report_without_telemetry_still_builds(self):
        a = laplacian_2d(16)
        s = Solver(a, tiny_blr_config())
        s.factorize()
        s.refine(np.ones(a.n))
        report = build_run_report(s, workload="plain")
        assert report["telemetry"] is None
        assert report["refinement"]["residual_history"]
        assert report["kernels"]

    def test_unfactorized_solver_rejected(self):
        s = Solver(laplacian_2d(8), tiny_blr_config())
        with pytest.raises(ValueError):
            build_run_report(s)

    def test_save_load_round_trip(self, tmp_path):
        s = _reported_solver("just-in-time")
        report = s.run_report(workload="rt")
        path = save_run_report(report, tmp_path / "run.json")
        assert load_run_report(path) == json.loads(json.dumps(report))

    def test_load_rejects_non_reports(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"results": []}')
        with pytest.raises(ValueError):
            load_run_report(bad)

    def test_render_markdown_sections(self):
        s = _reported_solver("minimal-memory")
        md = render_markdown(s.run_report(workload="md-test"))
        for heading in ("# Run report — md-test", "## Problem and timings",
                        "## Kernel breakdown", "## Backend kernel calls",
                        "## Compression", "## Refinement", "## Telemetry"):
            assert heading in md

    def test_render_figures(self, tmp_path):
        s = _reported_solver("minimal-memory")
        figs = render_figures(s.run_report(), tmp_path)
        names = {f.name for f in figs}
        assert "memory_highwater.svg" in names
        assert "refinement_residual.svg" in names
        for f in figs:
            assert f.read_text().startswith("<svg")


class TestRankHistogramByLevel:
    def test_levels_follow_block_etree(self):
        s = Solver(laplacian_3d(8), tiny_blr_config())
        s.factorize()
        levels = cblk_levels(s.factor)
        parent = s.factor.symb.block_etree()
        assert len(levels) == s.symbolic.ncblk
        for k, p in enumerate(parent):
            if p < 0:
                assert levels[k] == 0
            else:
                assert levels[k] == levels[p] + 1

    def test_per_level_sums_match_global(self):
        from repro.analysis.metrics import rank_histogram

        s = Solver(laplacian_2d(24), tiny_blr_config())
        s.factorize()
        global_hist = rank_histogram(s.factor)
        by_level = rank_histogram_by_level(s.factor)
        assert sum(global_hist.values()) > 0  # compression happened
        merged = {}
        for per in by_level.values():
            for r, c in per.items():
                merged[r] = merged.get(r, 0) + c
        assert merged == global_hist


class TestReportCLI:
    def test_solve_report_then_render(self, tmp_path, capsys):
        run = tmp_path / "run.json"
        rc = main(["solve", "--generate", "lap3d:6", "--tolerance", "1e-4",
                   "--refine", "--report", str(run)])
        assert rc == 0
        report = load_run_report(run)
        assert report["workload"] == "lap3d:6"
        assert report["telemetry"] is not None
        capsys.readouterr()

        out_md = tmp_path / "run.md"
        rc = main(["report", str(run), "-o", str(out_md),
                   "--figures", str(tmp_path / "figs")])
        assert rc == 0
        assert out_md.read_text().startswith("# Run report")

    def test_report_to_stdout(self, tmp_path, capsys):
        run = tmp_path / "run.json"
        main(["solve", "--generate", "lap3d:5", "--report", str(run)])
        capsys.readouterr()
        rc = main(["report", str(run)])
        assert rc == 0
        assert "## Problem and timings" in capsys.readouterr().out

    def test_figure_links_resolve_from_the_markdown(self, tmp_path,
                                                    monkeypatch, capsys):
        """Figure links resolve from the markdown's directory under -o,
        from the current directory on stdout."""
        def links(md):
            return [line[line.index("](") + 2:-1] for line in md.splitlines()
                    if line.startswith("![")]

        monkeypatch.chdir(tmp_path)
        main(["solve", "--generate", "lap3d:6", "--refine",
              "--report", "run.json"])
        for out, base in (("out/run.md", tmp_path / "out"),
                          ("run.md", tmp_path)):
            assert main(["report", "run.json", "-o", out,
                         "--figures", "out/figs"]) == 0
            found = links((tmp_path / out).read_text())
            assert found and all((base / f).is_file() for f in found)
        capsys.readouterr()
        main(["report", "run.json", "--figures", "out/figs"])
        found = links(capsys.readouterr().out)
        assert found and all((tmp_path / f).is_file() for f in found)


# ----------------------------------------------------------------------
# bench history + benchdiff
# ----------------------------------------------------------------------

def _bench_payload(**overrides):
    rec = {
        "label": "float64",
        "facto_time_s": 1.0,
        "solve_time_s": 0.1,
        "factor_nbytes": 1000,
        "peak_nbytes": 2000,
        "backward_error": 1e-7,
    }
    rec.update(overrides)
    return {"bench": "tier0", "history": [
        {"timestamp": "2026-01-01T00:00:00+00:00", "python": "3.11",
         "results": [rec]}]}


class TestBenchHistory:
    def test_migrate_legacy_layout(self):
        from benchmarks.bench_tier0 import migrate

        legacy = {"bench": "tier0", "python": "3.11.7",
                  "results": [{"label": "float64", "facto_time_s": 1.0}]}
        migrated = migrate(legacy)
        assert "results" not in migrated
        assert len(migrated["history"]) == 1
        assert migrated["history"][0]["timestamp"] is None
        assert migrated["history"][0]["python"] == "3.11.7"
        # already-migrated payloads pass through untouched
        assert migrate(migrated) is migrated

    def test_committed_baseline_is_history_format(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        payload = json.loads((root / "BENCH_tier0.json").read_text())
        assert isinstance(payload["history"], list)
        assert payload["history"]
        assert "results" not in payload
        labels = [r["label"] for r in payload["history"][-1]["results"]]
        assert "float64" in labels

    def test_extract_metrics_takes_last_history_entry(self):
        payload = _bench_payload()
        payload["history"].append(
            {"timestamp": "2026-01-02T00:00:00+00:00", "python": "3.11",
             "results": [{"label": "float64", "facto_time_s": 2.0}]})
        metrics = extract_metrics(payload)
        assert metrics["float64"]["facto_time_s"] == 2.0


class TestBenchdiff:
    def test_identical_inputs_pass(self):
        payload = _bench_payload()
        findings, notes = compare(payload, payload)
        assert findings == []
        assert notes == []

    def test_time_regression_warns_only(self):
        base = _bench_payload()
        cur = _bench_payload(facto_time_s=2.0)
        findings, _ = compare(base, cur)
        assert [f.severity for f in findings] == ["warn"]
        assert findings[0].metric == "facto_time_s"

    def test_bytes_and_error_regressions_fail(self):
        base = _bench_payload()
        cur = _bench_payload(factor_nbytes=1200, backward_error=1e-5)
        findings, _ = compare(base, cur)
        assert {f.metric for f in findings
                if f.severity == "fail"} == {"factor_nbytes",
                                             "backward_error"}

    def test_thresholds_respected(self):
        base = _bench_payload()
        cur = _bench_payload(factor_nbytes=1050)
        assert compare(base, cur)[0] == []  # +5% under the 10% gate
        findings, _ = compare(base, cur,
                              Thresholds(bytes_fail=0.01))
        assert findings and findings[0].severity == "fail"

    def test_new_and_missing_labels_are_notes(self):
        base = _bench_payload()
        cur = _bench_payload()
        cur["history"][-1]["results"][0]["label"] = "float32"
        findings, notes = compare(base, cur)
        assert findings == []
        assert len(notes) == 2  # one missing, one new

    def test_speedup_floor_fails_absolute(self):
        base = _bench_payload(multirhs_speedup=8.0)
        cur = _bench_payload(multirhs_speedup=1.9)
        findings, _ = compare(base, cur)
        assert any(f.metric == "multirhs_speedup" and f.severity == "fail"
                   for f in findings)
        # above the floor passes even when slower than the baseline
        cur = _bench_payload(multirhs_speedup=2.5)
        findings, _ = compare(base, cur)
        assert not any(f.metric == "multirhs_speedup" for f in findings)

    def test_speedup_floor_applies_without_baseline(self):
        """A brand-new speedup entry below the floor already fails —
        the absolute gate must not wait a PR for a baseline."""
        base = _bench_payload()
        cur = _bench_payload(multirhs_speedup=1.5)
        findings, notes = compare(base, cur)
        fails = [f for f in findings if f.metric == "multirhs_speedup"]
        assert fails and fails[0].severity == "fail"
        assert fails[0].baseline == Thresholds().speedup_floor
        # a new *label* carrying a bad speedup fails too
        cur2 = _bench_payload(multirhs_speedup=1.5)
        cur2["history"][-1]["results"][0]["label"] = "multirhs"
        findings2, _ = compare(base, cur2)
        assert any(f.metric == "multirhs_speedup" and f.severity == "fail"
                   for f in findings2)

    def test_speedup_floor_cli_flag(self, tmp_path, capsys):
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps(_bench_payload(multirhs_speedup=5.0)))
        assert benchdiff_run([str(ok), str(ok)]) == 0
        assert benchdiff_run([str(ok), str(ok),
                              "--speedup-floor", "6.0"]) == 1
        capsys.readouterr()

    def test_run_report_inputs(self, tmp_path):
        s = _reported_solver("just-in-time")
        base = s.run_report(workload="w", backward_error=1e-9)
        cur = json.loads(json.dumps(base))
        cur["stats"]["peak_nbytes"] *= 2
        findings, _ = compare(base, cur)
        assert any(f.metric == "peak_nbytes" and f.severity == "fail"
                   for f in findings)

    def test_cli_exit_codes(self, tmp_path, capsys):
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps(_bench_payload()))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_bench_payload(factor_nbytes=5000)))
        warn = tmp_path / "warn.json"
        warn.write_text(json.dumps(_bench_payload(facto_time_s=3.0)))

        assert benchdiff_run([str(ok), str(ok)]) == 0
        assert benchdiff_run([str(ok), str(bad)]) == 1
        assert benchdiff_run([str(ok), str(warn)]) == 0
        assert benchdiff_run([str(ok), str(warn), "--fail-on-warn"]) == 1
        assert benchdiff_run([str(ok), str(tmp_path / "missing.json")]) == 2
        notjson = tmp_path / "notjson.json"
        notjson.write_text("not json")
        assert benchdiff_run([str(ok), str(notjson)]) == 2
        capsys.readouterr()


# ----------------------------------------------------------------------
# profile section and attribution
# ----------------------------------------------------------------------

class TestProfileSection:
    def _profiled_solver(self) -> Solver:
        from repro.runtime.spans import SpanProfiler

        tele = Telemetry()
        a = laplacian_2d(24)
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      telemetry=tele,
                                      profiler=SpanProfiler(telemetry=tele)))
        s.factorize()
        b = np.ones(a.n)
        x = s.solve(b)
        s.refine(b, x0=x)
        return s

    def test_report_carries_phase_rollup(self):
        report = self._profiled_solver().run_report(workload="prof")
        profile = report["profile"]
        assert profile is not None
        assert {"analyze", "factorize", "solve",
                "refinement"} <= set(profile["phases"])
        assert profile["total_time"] > 0
        assert profile["kernels"]["task"]["count"] > 0
        assert profile["tasks"]["n_tasks"] == \
            profile["kernels"]["task"]["count"]
        assert "trace" not in report
        json.dumps(report)

    def test_report_without_profiler_has_null_profile(self):
        report = _reported_solver("just-in-time").run_report()
        assert report["profile"] is None

    def test_markdown_profile_section(self):
        report = self._profiled_solver().run_report(workload="prof")
        md = render_markdown(report)
        assert "## Profile" in md
        assert "| factorize |" in md
        assert "## Task trace" in md
        assert "| critical_path |" in md

    def test_committed_tier0_reports_diff(self, capsys):
        """`repro report --against` over the two committed tier-0
        RunReports appends the ranked per-phase attribution section."""
        base = REPO_ROOT / "benchmarks" / "reports" / \
            "RUN_tier0_baseline.json"
        cur = REPO_ROOT / "benchmarks" / "reports" / \
            "RUN_tier0_current.json"
        assert base.exists() and cur.exists(), "committed artifacts missing"
        rc = main(["report", str(cur), "--against", str(base)])
        out = capsys.readouterr().out
        assert rc == 0
        section = out[out.index("## Against"):]
        assert "| factorize |" in section
        assert "Factor bytes:" in section
        assert "Rank drift:" in section
        phases = [line.split("|")[1].strip() for line in section.splitlines()
                  if line.startswith("| ") and line.count("|") == 6][2:]
        want = report_attribution(load_run_report(base),
                                  load_run_report(cur))["phases"]
        assert phases == [r["phase"] for r in want]


class TestAttribution:
    def _report(self, factor=1.0):
        phases = {"analyze": 0.2, "factorize": 1.0 * factor, "solve": 0.1}
        return {
            "schema": REPORT_SCHEMA,
            "workload": "lap",
            "profile": {
                "total_time": sum(phases.values()),
                "meta": {"engine": "sequential", "threads": 1},
                "phases": {k: {"time": v, "self_time": v, "count": 1}
                           for k, v in phases.items()},
                "kernels": {},
                "by_level": {"0": {"time": 0.5 * factor, "count": 3}},
                "by_order": {},
            },
            "compression": {"total_nbytes": int(1000 * factor)},
        }

    def test_ranked_by_absolute_delta(self):
        att = report_attribution(self._report(), self._report(factor=2.0))
        assert att["phases"][0]["phase"] == "factorize"
        assert att["top_regression"] == "factorize"
        deltas = [abs(r["delta"]) for r in att["phases"]
                  if r["delta"] is not None]
        assert deltas == sorted(deltas, reverse=True)

    def test_byte_delta_and_levels(self):
        att = report_attribution(self._report(), self._report(factor=2.0))
        assert att["factor_bytes"]["delta"] == 1000
        assert att["by_level"][0]["delta"] == pytest.approx(0.5)

    def test_falls_back_to_timings_without_profile(self):
        a = {"schema": REPORT_SCHEMA, "workload": "x",
             "timings": {"factor_time": 1.0, "solve_time": 0.1}}
        b = {"schema": REPORT_SCHEMA, "workload": "x",
             "timings": {"factor_time": 2.0, "solve_time": 0.1}}
        att = report_attribution(a, b)
        assert att["top_regression"] == "factorize"

    def test_render_against_section(self):
        md = render_markdown(self._report(factor=2.0),
                             against=self._report())
        section = md[md.index("## Against lap"):]
        assert "Largest regression: **factorize**." in section
        assert "| factorize | 1 | 2 | +1 | +100.0% |" in section
        assert "Factor bytes: 1000 → 2000 (+1000 B)" in section
        assert "## Against" not in render_markdown(self._report())

    def test_identical_reports_have_no_regression(self):
        att = report_attribution(self._report(), self._report())
        assert att["top_regression"] is None
        md = render_markdown(self._report(), against=self._report())
        assert "No phase regressed." in md

    def test_recovery_deltas_rendered(self):
        a, b = self._report(), self._report()
        b["recovery"] = {"attempts": 2, "counts": {"refactorize": 1}}
        md = render_markdown(b, against=a)
        assert "| refactorize | 0 | 1 | +1 |" in md
        assert "| attempts | 0 | 2 | +2 |" in md
