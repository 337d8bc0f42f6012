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

    def test_non_integer_generator_size_errors(self):
        with pytest.raises(SystemExit, match="integer"):
            main(["solve", "--generate", "lap3d:x"])

    @pytest.mark.parametrize("flag,value,message", [
        ("--tolerance", "2", "tolerance must be in"),
        ("--pivot-u", "0.9", "pivot_u must be in")])
    def test_invalid_config_value_errors(self, flag, value, message):
        with pytest.raises(SystemExit, match=message):
            main(["solve", "--generate", "lap3d:6", flag, value])

    def test_gantt_requires_report(self, tmp_path):
        with pytest.raises(SystemExit, match="--report"):
            main(["solve", "--generate", "lap3d:5",
                  "--gantt", str(tmp_path / "g.svg")])

    @pytest.mark.parametrize("argv", [
        ["resume", "run.ckpt", "--generate", "lap3d:5"],
        ["solve", "--generate", "lap3d:5", "--checkpoint", "run.ckpt"],
        ["flame", "spans.json"],
        ["diff-report", "a.json", "b.json"],
        ["bench", "--generate", "lap3d:5"],
        ["bench-variants", "--generate", "lap3d:5"],
        ["solve", "--generate", "lap3d:5", "--threads", "2"],
        ["solve", "--generate", "lap3d:5", "--watchdog", "5"]],
        ids=["resume", "solve-checkpoint", "flame", "diff-report", "bench",
             "bench-variants", "solve-threads", "solve-watchdog"])
    def test_retired_restart_verbs_are_usage_errors(self, argv, capsys):
        """Retired verbs and flags — mid-factorization restart, the span
        exporters, the two-report diff, the bench harnesses and the worker
        pool's ``--threads`` / ``--watchdog`` — are
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
                   / "lint_fixtures" / "dtype_trigger.py")
        rc = main(["lint", "--no-scope", "--rules", "dtype-literal-promotion",
                   str(trigger)])
        assert rc == 1


class TestProfileCommands:
    @pytest.mark.parametrize("flag", ["--trace", "--scheduler", "--profile"])
    def test_retired_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--generate", "lap2d:6", flag, "x"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_solve_report_carries_span_profile(self, tmp_path, capsys):
        """`solve --report` attaches the span profiler: the report's
        profile section is filled and --gantt draws its task spans."""
        import json

        run = tmp_path / "run.json"
        rc = main(["solve", "--generate", "lap2d:10", "--report", str(run),
                   "--gantt", str(tmp_path / "gantt.svg")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tasks: " in out and "critical path" in out
        assert (tmp_path / "gantt.svg").read_text().startswith("<svg")
        profile = json.loads(run.read_text())["profile"]
        assert {"analyze", "factorize", "solve"} <= set(profile["phases"])
        assert profile["meta"]["engine"] == "sequential"
        assert profile["tasks"]["n_tasks"] > 0
