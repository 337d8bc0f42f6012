"""Smoke tests of the benchmark itself, on ``laplacian_3d(8)``-sized grids.

Run with ``pytest benchmarks/layerbench`` (not collected by tier-1).  Every
run is a fresh process, because the entry point has to pin the BLAS
environment before numpy loads.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from typing import Any, Dict, List

import pytest

from . import env
from .compare import verdict
from .spans import tree_problems
from .workloads import WORKLOADS

SPEC = env.load_spec()
#: every workload the tool runs; ``BENCHMARK.json`` lists those the driver gates
NAMES = sorted(WORKLOADS)
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: metrics that must not differ between two runs of one seed
EXACT = ("total_flops", "factor_bytes", "peak_bytes", "backward_error")
#: the workload that is run twice to see them repeat
REPEATED = "lap24-jit"


def _launch(args: List[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "benchmarks.layerbench", *args], cwd=env.ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory: pytest.TempPathFactory) -> Dict[str, Any]:
    """An untraced (A) and a traced (T) run of every workload, and a second
    untraced run (B, same seed) of one, all started together."""
    tmp = tmp_path_factory.mktemp("layerbench")
    small = ["--grid", "8", "--seed", "3", "--seconds", "0"]
    procs = {}
    for name in NAMES:
        for kind, args in (("A", ["bench", "--trace", "0"]), ("B", ["run"]),
                           ("T", ["bench", "--trace", "1"])):
            if kind == "B" and name != REPEATED:
                continue
            out = tmp / kind / f"{name}.json"
            procs[kind, name] = (out, _launch(
                [*args, "--workload", name, "--out", str(out), *small]))
    results: Dict[str, Any] = {"dirs": {k: tmp / k for k in "ABT"}}
    for key, (out, proc) in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        results[key] = {"last": json.loads(stdout.splitlines()[-1]),
                        "doc": json.loads(out.read_text())}
    return results


def test_the_spec_names_known_workloads() -> None:
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("kind,section", [("A", "end_to_end"),
                                          ("T", "per_layer")])
def test_every_declared_metric_and_nothing_else(
        outputs: Dict[str, Any], kind: str, section: str) -> None:
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for name in NAMES:
        last = outputs[kind, name]["last"]
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert {k: m["unit"] for k, m in last["metrics"].items()} == declared
        for metric, m in last["metrics"].items():
            assert NAME_RE.fullmatch(metric), metric
            assert set(m) == {"value", "unit"}
            assert isinstance(m["value"], (int, float))


def test_result_files_carry_the_environment_stamp(
        outputs: Dict[str, Any]) -> None:
    stamp = outputs["A", NAMES[0]]["doc"]["env"]
    assert {"python", "numpy", "scipy", "blas", "nproc", "git_head"} <= set(
        stamp)
    assert stamp["env"] == {"OPENBLAS_NUM_THREADS": "1",
                            "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                            "REPRO_BACKEND": "numpy"}


def test_timings_are_corrected_cpu_seconds(outputs: Dict[str, Any]) -> None:
    for name in NAMES:
        doc = outputs["A", name]["doc"]
        assert set(doc["stages"]) == {"analyze_s", "factorize_s", "solve_s",
                                      "solve_panel16_s", "refine_s"}
        timed = [doc["metrics"]["time_to_solution_s"],
                 *doc["stages"].values()]
        for m in timed:
            assert len(m["samples"]) == len(m["cpu_s"]) == m["n"] >= 2
            # hardly a probe runs faster than the run's floor, so a correction
            # only ever takes time off
            for corrected, cpu in zip(m["samples"], m["cpu_s"]):
                assert 0 < corrected <= cpu * 1.05
        assert doc["probe"]["probes"] >= sum(
            m["n"] for m in doc["stages"].values())


def test_span_trees_are_well_formed(outputs: Dict[str, Any]) -> None:
    for name in NAMES:
        doc = outputs["T", name]["doc"]
        assert tree_problems(doc["spans"]) == []
        assert all(s["self"] >= -1e-9 for s in doc["spans"]["spans"])
        assert doc["span_coverage"] >= 0.95


def test_exact_metrics_repeat(outputs: Dict[str, Any]) -> None:
    a, b = outputs["A", REPEATED]["doc"], outputs["B", REPEATED]["doc"]
    for metric in EXACT:
        assert a["metrics"][metric]["value"] == \
            b["metrics"][metric]["value"], metric
    assert a["refine_iters"] == b["refine_iters"]


def test_bypass_workloads_bypass(outputs: Dict[str, Any]) -> None:
    dense = outputs["T", "lap24-dense"]["last"]["metrics"]
    for metric, m in dense.items():
        if re.fullmatch(r"lowrank\.(compress|lr_product|lr_addition)_.*",
                        metric):
            assert m["value"] == 0, metric
    for name in NAMES:
        pivots = outputs["T", name]["last"]["metrics"][
            "core.backend_calls.ldlt_pivot"]["value"]
        assert (pivots > 0) == (name == "helm24-ldlt")


def test_verdicts() -> None:
    def tight(x: float) -> Any:
        return (x, x * 0.999, x * 1.001)

    assert verdict(tight(1.0), tight(1.05), 0.10, "lower") == "same"
    assert verdict(tight(1.0), tight(1.2), 0.10, "lower") == "worse"
    assert verdict(tight(1.0), tight(0.8), 0.10, "lower") == "better"
    assert verdict(tight(1.0), tight(0.8), 0.10, "higher") == "worse"
    # overlapping quartiles wider than the bound cannot tell
    assert verdict((1.0, 0.8, 1.3), (1.2, 0.9, 1.4), 0.10,
                   "lower") == "unresolved"
    # wide but disjoint: every run of B is slower than every run of A
    assert verdict((1.0, 0.9, 1.1), (1.5, 1.3, 1.7), 0.10, "lower") == "worse"


def test_compare_a_set_with_itself(outputs: Dict[str, Any]) -> None:
    a = str(outputs["dirs"]["A"])
    proc = _launch(["compare", a, a])
    stdout, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0, stdout
    rows = re.findall(r"\b(better|same|worse|unresolved)  \(", stdout)
    assert len(rows) == len(NAMES) * len(SPEC["end_to_end"])
    assert "worse" not in rows and "better" not in rows


def test_refuses_a_numpy_imported_unpinned() -> None:
    code = ("import numpy, runpy, sys; sys.argv = ['layerbench', 'run', "
            "'--workload', 'lap24-dense', '--grid', '8']; "
            "runpy.run_module('benchmarks.layerbench', run_name='__main__')")
    clean = {k: v for k, v in os.environ.items() if k not in env.THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", code], cwd=env.ROOT,
                          env=clean, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "numpy was imported before" in proc.stderr
