"""Tests for the Eraser-style dynamic race sanitizer.

Two layers: unit tests drive :class:`RaceSanitizer`'s lockset state
machine directly from real threads (virgin → exclusive → shared,
intersection, epoch, tracked lock proxies), and integration tests run the
full threaded factorization under ``sanitize=True`` — clean runs must stay
silent AND bit-identical to the sequential factors under both BLR
strategies, while the injector's seeded race must
be caught loudly with both access sites named.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.config import SolverConfig
from repro.core.solver import Solver
from repro.runtime.faults import FaultInjector
from repro.runtime.sanitizer import RaceReport, RaceSanitizer, TrackedLock
from repro.sparse.generators import laplacian_2d
from tests.conftest import tiny_blr_config
from tests.test_recovery import factor_digest


def in_thread(fn, name):
    t = threading.Thread(target=fn, name=name)
    t.start()
    t.join()


# ----------------------------------------------------------------------
# unit: the lockset state machine
# ----------------------------------------------------------------------

class TestLocksetStateMachine:
    def test_single_thread_never_races(self):
        san = RaceSanitizer()
        for _ in range(10):
            san.note("v", "write", site="here")
        assert san.races() == []
        san.check()  # no raise

    def test_unguarded_cross_thread_write_is_a_race(self):
        san = RaceSanitizer()
        in_thread(lambda: san.note("v", "write", site="a"), "t1")
        in_thread(lambda: san.note("v", "write", site="b"), "t2")
        races = san.races()
        assert len(races) == 1
        assert races[0]["var"] == "v"
        assert {races[0]["site"], races[0]["prior_site"]} == {"a", "b"}

    def test_common_lock_is_silent(self):
        san = RaceSanitizer()
        lk = san.wrap_lock(threading.Lock(), "L")

        def guarded(site):
            with lk:
                san.note("v", "write", site=site)

        in_thread(lambda: guarded("a"), "t1")
        in_thread(lambda: guarded("b"), "t2")
        assert san.races() == []

    def test_lockset_is_intersected(self):
        # thread 1 holds {A, B}; thread 2 holds only B: C(v) = {B} → fine.
        # thread 3 holds only A: intersection empties → race.
        san = RaceSanitizer()
        a = san.wrap_lock(threading.Lock(), "A")
        b = san.wrap_lock(threading.Lock(), "B")

        def with_ab():
            with a, b:
                san.note("v", "write", site="ab")

        def with_b():
            with b:
                san.note("v", "write", site="b")

        def with_a():
            with a:
                san.note("v", "write", site="a")

        in_thread(with_ab, "t1")
        in_thread(with_b, "t2")
        assert san.races() == []
        in_thread(with_a, "t3")
        assert [r["var"] for r in san.races()] == ["v"]

    def test_shared_reads_do_not_race(self):
        # writes stay exclusive to the owner; other threads only read:
        # Shared (not Shared-Modified) state never reports
        san = RaceSanitizer()
        in_thread(lambda: san.note("v", "write", site="init"), "t1")
        in_thread(lambda: san.note("v", "read", site="peek"), "t2")
        in_thread(lambda: san.note("v", "read", site="peek"), "t3")
        assert san.races() == []

    def test_one_report_per_variable(self):
        san = RaceSanitizer()
        for i, name in enumerate(("t1", "t2", "t3", "t4")):
            in_thread(lambda i=i: san.note("v", "write", site=f"s{i}"), name)
        assert len(san.races()) == 1

    def test_epoch_resets_states_but_keeps_races(self):
        san = RaceSanitizer()
        in_thread(lambda: san.note("v", "write", site="a"), "t1")
        in_thread(lambda: san.note("v", "write", site="b"), "t2")
        assert len(san.races()) == 1
        san.epoch()
        # after the epoch the variable restarts Virgin: a fresh owner is
        # exclusive again and no second report appears
        in_thread(lambda: san.note("w", "write", site="c"), "t3")
        assert len(san.races()) == 1

    def test_check_raises_race_report_with_sites(self):
        san = RaceSanitizer()
        in_thread(lambda: san.note("v", "write", site="scheduler.py:1"), "t1")
        in_thread(lambda: san.note("v", "write", site="scheduler.py:2"), "t2")
        with pytest.raises(RaceReport) as exc:
            san.check()
        msg = str(exc.value)
        assert "scheduler.py:1" in msg and "scheduler.py:2" in msg
        assert exc.value.races[0]["var"] == "v"

    def test_tracked_lock_proxies_the_real_lock(self):
        san = RaceSanitizer()
        raw = threading.Lock()
        lk = san.wrap_lock(raw, "L")
        assert isinstance(lk, TrackedLock)
        with lk:
            assert raw.locked()
        assert not raw.locked()

    def test_event_log_is_bounded(self):
        san = RaceSanitizer(max_events=16)
        for i in range(100):
            san.note("v", "write", site=f"s{i}")
        assert len(san.events) == 16
        assert san.total_events == 100

    def test_dump_writes_summary_and_events(self, tmp_path):
        san = RaceSanitizer()
        in_thread(lambda: san.note("v", "write", site="a"), "t1")
        out = tmp_path / "tsan.jsonl"
        san.dump(out)
        lines = out.read_text().splitlines()
        head = json.loads(lines[0])["summary"]
        assert head["total_events"] == 1 and head["races"] == []
        assert json.loads(lines[1])["var"] == "v"


# ----------------------------------------------------------------------
# integration: the instrumented factorization
# ----------------------------------------------------------------------

A = laplacian_2d(20)


def _digest(**overrides):
    s = Solver(A, tiny_blr_config(tolerance=1e-8, **overrides))
    s.factorize()
    return factor_digest(s.factor), s


class TestInstrumentedFactorization:
    @pytest.mark.parametrize("strategy", ("minimal-memory", "just-in-time"))
    def test_clean_threaded_run_is_silent_and_bit_identical(self, strategy):
        ref, _ = _digest(strategy=strategy, threads=1)
        got, s = _digest(strategy=strategy, threads=4, sanitize=True)
        assert s.sanitizer is not None, "sanitizer should be armed"
        assert s.sanitizer.races() == []
        assert s.sanitizer.total_events > 0, "instrumentation never fired"
        assert got == ref, "sanitized factors must stay bit-identical"

    def test_seeded_race_is_caught_and_names_the_sites(self):
        fi = FaultInjector()
        fi.enable_race_counter()
        s = Solver(A, tiny_blr_config(strategy="just-in-time",
                                      tolerance=1e-8, threads=4,
                                      sanitize=True))
        with pytest.raises(RaceReport) as exc:
            s.factorize(faults=fi)
        msg = str(exc.value)
        assert "faults.racy_count" in msg
        assert "faults.py:on_factor" in msg
        assert "no common lock" in msg
        assert fi.racy_count > 0, "the racy counter should have been hit"

    def test_same_injector_without_race_counter_is_silent(self):
        s = Solver(A, tiny_blr_config(strategy="just-in-time",
                                      tolerance=1e-8, threads=4,
                                      sanitize=True))
        s.factorize(faults=FaultInjector())
        assert s.sanitizer is not None and s.sanitizer.races() == []

    def test_sequential_runs_are_never_instrumented(self):
        _, s = _digest(strategy="just-in-time", threads=1, sanitize=True)
        assert s.sanitizer is None

    def test_env_var_arms_the_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_TSAN", "1")
        assert SolverConfig().sanitize_enabled()
        _, s = _digest(strategy="just-in-time", threads=4)
        assert s.sanitizer is not None

    def test_env_var_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_TSAN", "0")
        assert not SolverConfig().sanitize_enabled()

    def test_tsan_log_dump(self, monkeypatch, tmp_path):
        log = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_TSAN_LOG", str(log))
        _, s = _digest(strategy="just-in-time", threads=4, sanitize=True)
        head = json.loads(log.read_text().splitlines()[0])["summary"]
        assert head["races"] == []
        assert head["total_events"] == s.sanitizer.total_events
