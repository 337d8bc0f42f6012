"""Tests for the solverlint static-analysis framework.

Golden-file fixtures under ``tests/lint_fixtures/`` pin each rule's
behaviour: every ``*_trigger.py`` must produce at least one finding of its
rule, every ``*_clean.py`` none.  The suite also locks down the pragma
machinery (placement, justification, unused/unknown warnings), the CLI exit
codes, and — the actual gate — that ``src/repro`` is clean under every rule.
"""

from pathlib import Path

import pytest

from tools.solverlint import all_rules, lint_file, lint_paths
from tools.solverlint.cli import run

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

#: rule name -> (trigger fixture, clean fixture, minimum trigger findings)
GOLDEN = {
    "dtype-literal-promotion": ("dtype_trigger.py", "dtype_clean.py", 5),
    "conjugation-at-adjoint": ("conj_trigger.py", "conj_clean.py", 3),
    "python-hot-loop": ("hot_loop_trigger.py", "hot_loop_clean.py", 2),
    "missing-annotations": ("annotations_trigger.py", "annotations_clean.py", 4),
    "backend-bypass": ("backend_trigger.py", "backend_clean.py", 4),
    "variant-literal": ("variant_trigger.py", "variant_clean.py", 4),
    "telemetry-guard": ("teleguard_trigger.py", "teleguard_clean.py", 7),
}


def run_rule(rule_name, path, **kwargs):
    rule = all_rules()[rule_name]
    return lint_file(str(path), rules=[rule], enforce_scope=False, **kwargs)


class TestGoldenFixtures:
    @pytest.mark.parametrize("rule_name", sorted(GOLDEN))
    def test_trigger_fires(self, rule_name):
        trigger, _, min_count = GOLDEN[rule_name]
        findings = run_rule(rule_name, FIXTURES / trigger)
        active = [f for f in findings if not f.suppressed]
        assert len(active) >= min_count, (
            f"{trigger} should produce >= {min_count} {rule_name} findings, "
            f"got {[(f.line, f.message) for f in active]}")
        assert all(f.rule == rule_name for f in active)

    @pytest.mark.parametrize("rule_name", sorted(GOLDEN))
    def test_clean_is_silent(self, rule_name):
        _, clean, _ = GOLDEN[rule_name]
        findings = run_rule(rule_name, FIXTURES / clean)
        active = [f for f in findings if not f.suppressed]
        assert active == [], [(f.line, f.message) for f in active]

    def test_every_rule_has_a_golden_pair(self):
        assert sorted(GOLDEN) == sorted(all_rules())


class TestPragmas:
    @pytest.fixture(scope="class")
    def findings(self):
        rule = all_rules()["dtype-literal-promotion"]
        return lint_file(str(FIXTURES / "pragmas.py"), rules=[rule],
                         enforce_scope=False, warn_unused_ignores=True,
                         require_justification=True)

    def _suppressed_lines(self, findings):
        return {f.line for f in findings
                if f.rule == "dtype-literal-promotion" and f.suppressed}

    def test_same_line_pragma(self, findings):
        src = (FIXTURES / "pragmas.py").read_text().splitlines()
        line = next(i for i, l in enumerate(src, 1)
                    if "same-line pragma" in l)
        assert line in self._suppressed_lines(findings)

    def test_previous_line_pragma(self, findings):
        src = (FIXTURES / "pragmas.py").read_text().splitlines()
        line = next(i for i, l in enumerate(src, 1)
                    if "previous-line pragma" in l)
        assert (line + 1) in self._suppressed_lines(findings)

    def test_statement_opener_pragma(self, findings):
        src = (FIXTURES / "pragmas.py").read_text().splitlines()
        line = next(i for i, l in enumerate(src, 1)
                    if "multi-line statement opener" in l)
        assert line in self._suppressed_lines(findings)

    def test_suppressed_findings_carry_reason(self, findings):
        reasons = [f.reason for f in findings
                   if f.suppressed and f.rule == "dtype-literal-promotion"]
        # three placement pragmas carry a "fixture: ..." reason; the
        # deliberately unjustified one suppresses with an empty reason
        assert sorted(bool(r) for r in reasons) == [False, True, True, True]
        assert all("fixture" in r for r in reasons if r)

    def test_unjustified_pragma_flagged(self, findings):
        unjust = [f for f in findings if f.rule == "unjustified-suppression"]
        assert len(unjust) == 1

    def test_unused_pragma_flagged(self, findings):
        unused = [f for f in findings if f.rule == "unused-suppression"]
        assert len(unused) == 1

    def test_unknown_rule_flagged(self, findings):
        unknown = [f for f in findings if f.rule == "unknown-rule"]
        assert len(unknown) == 1
        assert "no-such-rule" in unknown[0].message

    def test_rule_subset_does_not_warn_foreign_pragmas(self):
        # running only missing-annotations must not call the hot-loop
        # pragma "unused" — that rule simply did not run
        rule = all_rules()["missing-annotations"]
        findings = lint_file(str(FIXTURES / "pragmas.py"), rules=[rule],
                             enforce_scope=False, warn_unused_ignores=True)
        assert not [f for f in findings if f.rule == "unused-suppression"]


class TestScoping:
    def test_out_of_scope_file_is_skipped(self, tmp_path):
        # python-hot-loop scopes to core/lowrank; a file elsewhere is exempt
        bad = tmp_path / "free_code.py"
        bad.write_text(FIXTURES.joinpath("hot_loop_trigger.py").read_text())
        rule = all_rules()["python-hot-loop"]
        assert lint_file(str(bad), rules=[rule], enforce_scope=True) == []
        assert lint_file(str(bad), rules=[rule], enforce_scope=False)

    def test_scope_exclude_wins_over_scope_dir(self, tmp_path):
        d = tmp_path / "core"
        d.mkdir()
        sched = d / "scheduler.py"
        sched.write_text(FIXTURES.joinpath("hot_loop_trigger.py").read_text())
        rule = all_rules()["python-hot-loop"]
        assert lint_file(str(sched), rules=[rule], enforce_scope=True) == []


class TestRunner:
    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = lint_file(str(bad))
        assert [f.rule for f in findings] == ["syntax-error"]

    def test_lint_paths_walks_directories(self):
        findings = lint_paths([str(FIXTURES)], enforce_scope=False)
        assert {Path(f.path).name for f in findings} >= {
            "dtype_trigger.py", "conj_trigger.py", "variant_trigger.py",
            "hot_loop_trigger.py", "annotations_trigger.py"}

    def test_finding_json_roundtrip(self):
        findings = run_rule("dtype-literal-promotion",
                            FIXTURES / "dtype_trigger.py")
        d = findings[0].to_json()
        assert d["rule"] == "dtype-literal-promotion"
        assert isinstance(d["line"], int) and d["line"] > 0


class TestCli:
    def test_exit_zero_on_clean_file(self, capsys):
        rc = run([str(FIXTURES / "dtype_clean.py"), "--no-scope",
                  "--rules", "dtype-literal-promotion"])
        assert rc == 0

    def test_exit_one_on_findings(self, capsys):
        rc = run([str(FIXTURES / "dtype_trigger.py"), "--no-scope",
                  "--rules", "dtype-literal-promotion"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "dtype-literal-promotion" in out

    def test_exit_two_on_unknown_rule(self, capsys):
        rc = run([str(FIXTURES / "dtype_clean.py"), "--rules", "nope"])
        assert rc == 2

    def test_json_format(self, capsys):
        import json
        rc = run([str(FIXTURES / "dtype_trigger.py"), "--no-scope",
                  "--rules", "dtype-literal-promotion", "--format", "json"])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["total"] >= 5
        assert all("rule" in f for f in report["findings"])

    def test_list_rules(self, capsys):
        assert run(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in all_rules():
            assert name in out


class TestSuppressionsReport:
    def _tree(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "x = 1  # solverlint: ignore[python-hot-loop] -- fixture reason\n")
        return mod

    def test_collect_inventories_pragmas(self, tmp_path):
        from tools.solverlint import suppressions as sup
        self._tree(tmp_path)
        entries = sup.collect([str(tmp_path)])
        assert len(entries) == 1
        e = entries[0]
        assert e["rule"] == "python-hot-loop"
        assert e["reason"] == "fixture reason"
        assert e["line"] == 1

    def test_budget_passes_when_report_is_current(self, tmp_path):
        from tools.solverlint import suppressions as sup
        self._tree(tmp_path)
        report = tmp_path / "rep.json"
        sup.write_report([str(tmp_path)], str(report))
        ok, msg = sup.check_budget([str(tmp_path)], str(report))
        assert ok, msg

    def test_budget_fails_on_new_pragma(self, tmp_path):
        from tools.solverlint import suppressions as sup
        mod = self._tree(tmp_path)
        report = tmp_path / "rep.json"
        sup.write_report([str(tmp_path)], str(report))
        mod.write_text(mod.read_text() +
                       "y = 2  # solverlint: ignore[backend-bypass] -- new\n")
        ok, msg = sup.check_budget([str(tmp_path)], str(report))
        assert not ok
        assert "backend-bypass" in msg and "--suppressions" in msg

    def test_budget_warns_stale_on_shrinkage(self, tmp_path):
        from tools.solverlint import suppressions as sup
        mod = self._tree(tmp_path)
        report = tmp_path / "rep.json"
        sup.write_report([str(tmp_path)], str(report))
        mod.write_text("x = 1\n")
        ok, msg = sup.check_budget([str(tmp_path)], str(report))
        assert ok
        assert "stale" in msg

    def test_cli_roundtrip(self, tmp_path, capsys):
        self._tree(tmp_path)
        report = tmp_path / "rep.json"
        assert run(["--suppressions", str(report), str(tmp_path)]) == 0
        assert run(["--check-suppressions", str(report),
                    str(tmp_path)]) == 0
        capsys.readouterr()

    def test_committed_report_matches_tree(self):
        from tools.solverlint import suppressions as sup
        ok, msg = sup.check_budget([str(SRC)],
                                   str(REPO_ROOT / "lint-suppressions.json"))
        assert ok, msg


class TestRepoIsClean:
    """The acceptance gate: the package passes its own linter."""

    def test_src_repro_zero_unsuppressed_findings(self):
        findings = lint_paths([str(SRC)], warn_unused_ignores=True,
                              require_justification=True)
        active = [f for f in findings if not f.suppressed]
        assert active == [], "\n".join(f.format() for f in active)

    def test_all_suppressions_are_justified(self):
        findings = lint_paths([str(SRC)], require_justification=True)
        suppressed = [f for f in findings if f.suppressed]
        assert suppressed, "expected the documented pragmas to be exercised"
        assert all(f.reason for f in suppressed)

    def test_cli_gate_exits_zero(self, capsys):
        assert run([str(SRC)]) == 0
