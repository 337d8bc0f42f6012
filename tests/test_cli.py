"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.sparse.generators import laplacian_2d
from repro.sparse.io import write_matrix_market


class TestSolveCommand:
    def test_generated_workload(self, capsys):
        rc = main(["solve", "--generate", "lap3d:6", "--tolerance", "1e-8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "backward error" in out
        assert "factor size" in out

    def test_matrix_market_input(self, tmp_path, capsys):
        path = tmp_path / "m.mtx"
        write_matrix_market(laplacian_2d(5), path)
        rc = main(["solve", str(path)])
        assert rc == 0
        assert "backward error" in capsys.readouterr().out

    def test_refine_flag(self, capsys):
        rc = main(["solve", "--generate", "lap3d:5",
                   "--strategy", "minimal-memory",
                   "--tolerance", "1e-4", "--refine"])
        assert rc == 0
        assert "refined" in capsys.readouterr().out

    def test_cholesky_option(self, capsys):
        rc = main(["solve", "--generate", "lap3d:5",
                   "--factotype", "cholesky"])
        assert rc == 0

    def test_missing_input_errors(self):
        with pytest.raises(SystemExit):
            main(["solve"])

    def test_unknown_generator_errors(self):
        with pytest.raises(SystemExit):
            main(["solve", "--generate", "hss:10"])

    @pytest.mark.parametrize("argv", [
        ["resume", "run.ckpt", "--generate", "lap3d:5"],
        ["solve", "--generate", "lap3d:5", "--checkpoint", "run.ckpt"]],
        ids=["resume", "solve-checkpoint"])
    def test_retired_restart_verbs_are_usage_errors(self, argv, capsys):
        """Mid-factorization restart is gone: its verb and flag are
        argparse usage errors (exit status 2)."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_stats_printed(self, capsys):
        rc = main(["analyze", "--generate", "lap3d:6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "column blocks" in out

    def test_svg_output(self, tmp_path, capsys):
        svg = tmp_path / "s.svg"
        rc = main(["analyze", "--generate", "lap3d:5", "--svg", str(svg)])
        assert rc == 0
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    def test_ascii_output(self, capsys):
        rc = main(["analyze", "--generate", "lap3d:5", "--ascii", "24"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "#" in out


class TestBenchCommand:
    def test_three_strategies_reported(self, capsys):
        rc = main(["bench", "--generate", "lap3d:5"])
        assert rc == 0
        out = capsys.readouterr().out
        for strategy in ("dense", "just-in-time", "minimal-memory"):
            assert strategy in out


class TestLintCommand:
    def test_src_tree_is_clean_by_default(self, capsys):
        rc = main(["lint"])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_json_report(self, capsys):
        import json
        from pathlib import Path
        target = (Path(__file__).resolve().parent.parent
                  / "src" / "repro" / "core" / "variants.py")
        rc = main(["lint", "--json", str(target)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == 0

    def test_trigger_fixture_fails(self, capsys):
        from pathlib import Path
        trigger = (Path(__file__).resolve().parent
                   / "lint_fixtures" / "lockset_trigger.py")
        rc = main(["lint", "--no-scope", "--rules", "shared-mutation-lockset",
                   str(trigger)])
        assert rc == 1


class TestProfileCommands:
    def _profiled_run(self, tmp_path, capsys, name="spans.json"):
        spans = tmp_path / name
        rc = main(["solve", "--generate", "lap2d:10",
                   "--profile", str(spans),
                   "--gantt", str(tmp_path / "gantt.svg")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tasks: " in out and "critical path" in out
        assert (tmp_path / "gantt.svg").read_text().startswith("<svg")
        return spans

    @pytest.mark.parametrize("flag", ["--trace", "--scheduler"])
    def test_retired_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--generate", "lap2d:6", flag, "x"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_solve_profile_writes_span_document(self, tmp_path, capsys):
        import json

        spans = self._profiled_run(tmp_path, capsys)
        doc = json.loads(spans.read_text())
        assert doc["version"] == 1
        names = {s["name"] for s in doc["spans"]}
        assert {"run", "analyze", "factorize", "solve"} <= names

    def test_flame_exports_speedscope_and_chrome(self, tmp_path, capsys):
        import json

        spans = self._profiled_run(tmp_path, capsys)
        chrome = tmp_path / "chrome.json"
        rc = main(["flame", str(spans), "--chrome", str(chrome)])
        out = capsys.readouterr().out
        assert rc == 0
        ss = tmp_path / "spans.speedscope.json"
        assert ss.exists(), "default speedscope path derives from input"
        assert json.loads(ss.read_text())["profiles"]
        assert json.loads(chrome.read_text())["traceEvents"]
        assert "factorize" in out

    def test_diff_report_json_output(self, tmp_path, capsys):
        import json
        from pathlib import Path

        reports = (Path(__file__).resolve().parent.parent
                   / "benchmarks" / "reports")
        att_path = tmp_path / "attribution.json"
        rc = main(["diff-report",
                   str(reports / "RUN_tier0_baseline.json"),
                   str(reports / "RUN_tier0_current.json"),
                   "--json", str(att_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Regression attribution" in out
        att = json.loads(att_path.read_text())
        assert att["phases"]
        deltas = [abs(r["delta"]) for r in att["phases"]
                  if r["delta"] is not None]
        assert deltas == sorted(deltas, reverse=True)

    def test_bench_variants_phase_attribution(self, tmp_path, capsys):
        import json

        out_json = tmp_path / "variants.json"
        rc = main(["bench-variants", "--generate", "lap2d:10",
                   "--json", str(out_json)])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(out_json.read_text())
        runs = {r["variant"]: r for r in payload["runs"]}
        assert "ucf/local" in runs and "dense" in runs
        for rec in payload["runs"]:
            assert rec["phases"].get("factorize", 0) > 0
            assert "analyze" in rec["phases"]
            assert rec["kernels"].get("task", 0) > 0
