"""Tests for the unified telemetry store (repro.runtime.telemetry).

Covers the metric primitives (counters, gauges, histograms), the bounded
event log, the bounded series decimation, thread-safety of
shared counters under real threaded factorizations, and the two
disabled-path guarantees: zero telemetry calls and a bounded overhead
when ``SolverConfig.telemetry`` is ``None``.
"""

import threading
import time

import numpy as np
import pytest

from repro.config import SolverConfig
from repro.core.solver import Solver
from repro.runtime.telemetry import (
    Counter,
    Gauge,
    Histogram,
    SeriesBuffer,
    Telemetry,
)
from repro.sparse.generators import laplacian_2d, laplacian_3d
from tests.conftest import tiny_blr_config


# ----------------------------------------------------------------------
# metric primitives
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1.0)

    def test_gauge_tracks_max(self):
        g = Gauge()
        g.set_value(5.0)
        g.set_value(2.0)
        g.inc(1.0)
        assert g.value == 3.0
        assert g.max_value == 5.0

    def test_histogram_buckets_and_mean(self):
        h = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]  # <=1, <=10, +Inf
        assert h.count == 3
        assert h.mean() == pytest.approx(55.5 / 3)

    def test_registry_labels_and_kind_mismatch(self):
        tele = Telemetry()
        a = tele.counter("blocks", kernel="rrqr")
        b = tele.counter("blocks", kernel="svd")
        assert a is not b
        assert tele.counter("blocks", kernel="rrqr") is a
        with pytest.raises(TypeError):
            tele.gauge("blocks")

    def test_counter_thread_safety(self):
        """N threads x M increments must land exactly N*M (no lost updates)."""
        tele = Telemetry()
        c = tele.counter("shared")
        nthreads, reps = 8, 5000

        def hammer():
            for _ in range(reps):
                c.inc()

        threads = [threading.Thread(target=hammer)
                   for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == nthreads * reps


# ----------------------------------------------------------------------
# event log
# ----------------------------------------------------------------------

class TestEventLog:
    def test_keeps_last_and_counts_every_event(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.telemetry.EVENT_LOG_CAPACITY", 4)
        tele = Telemetry()
        for i in range(10):
            tele.emit("tick", i=i)
        events = tele.events()
        assert [e["i"] for e in events] == [6, 7, 8, 9]
        assert all(e["kind"] == "tick" and isinstance(e["t"], float)
                   for e in events)
        assert tele.events_emitted == 10


# ----------------------------------------------------------------------
# bounded series
# ----------------------------------------------------------------------

class TestSeriesBuffer:
    def test_bounded_with_decimation(self):
        s = SeriesBuffer("mem", maxlen=16)
        for i in range(1000):
            s.append(float(i), v=i)
        assert len(s) <= 16
        assert s.seen == 1000
        pts = s.points()
        # decimated but still ordered and spanning the record
        assert pts == sorted(pts, key=lambda p: p["t"])
        assert pts[0]["t"] == 0.0
        assert pts[-1]["t"] >= 500.0

    def test_short_series_lossless(self):
        s = SeriesBuffer("r", maxlen=16)
        for i in range(10):
            s.append(float(i), rank=i)
        assert [p["rank"] for p in s.points()] == list(range(10))


# ----------------------------------------------------------------------
# solver integration
# ----------------------------------------------------------------------

class TestSolverIntegration:
    def test_compression_metrics_recorded(self):
        tele = Telemetry()
        s = Solver(laplacian_2d(24), tiny_blr_config(
            strategy="just-in-time", telemetry=tele))
        s.factorize()
        snap = tele.snapshot()
        assert s.stats.nblocks_compressed > 0
        total = sum(c["value"]
                    for c in snap["counters"]["compress_blocks"])
        lowrank = sum(
            c["value"] for c in snap["counters"]["compress_blocks"]
            if c["labels"]["outcome"] == "lowrank")
        # stats counts L blocks only; LU compresses U panels too
        assert lowrank >= s.stats.nblocks_compressed
        assert total >= lowrank
        assert len(snap["series"]["rank_evolution"]) > 0
        assert len(snap["series"]["memory_highwater"]) > 0

    def test_recompression_metrics_minimal_memory(self):
        tele = Telemetry()
        s = Solver(laplacian_2d(24), tiny_blr_config(
            strategy="minimal-memory", telemetry=tele))
        s.factorize()
        snap = tele.snapshot()
        assert "recompress_blocks" in snap["counters"]
        sites = {p["site"] for p in snap["series"]["rank_evolution"]}
        assert "recompress" in sites

    def test_threaded_scheduler_counters_exact(self):
        tele = Telemetry()
        s = Solver(laplacian_3d(8), tiny_blr_config(
            strategy="just-in-time", threads=4, telemetry=tele))
        s.factorize()
        snap = tele.snapshot()
        tasks = sum(c["value"] for c in snap["counters"]["scheduler_tasks"])
        assert tasks == s.symbolic.ncblk
        assert snap["gauges"]["scheduler_threads"][0]["value"] == 4
        assert len(snap["series"]["scheduler_queue_depth"]) > 0
        labels = {c["labels"]["engine"]
                  for c in snap["counters"]["scheduler_tasks"]}
        assert labels == {"dynamic"}

    def test_refinement_history_on_bus(self):
        tele = Telemetry()
        a = laplacian_2d(16)
        s = Solver(a, tiny_blr_config(telemetry=tele))
        res = s.refine(np.ones(a.n))
        assert res.residual_history == res.history
        pts = tele.snapshot()["series"]["refinement_residual"]
        assert [p["residual"] for p in pts] == res.residual_history
        events = [e for e in tele.events()
                  if e["kind"] == "refinement"]
        assert len(events) == 1
        assert events[0]["residual_history"] == res.residual_history


# ----------------------------------------------------------------------
# disabled path
# ----------------------------------------------------------------------

class TestDisabledPath:
    def test_no_telemetry_calls_when_disabled(self, monkeypatch):
        """With telemetry=None (the default) not a single bus method may
        run: every record helper, emit, and series append is patched to
        raise, and a full factorize+solve+refine must still pass.
        """
        def boom(*args, **kwargs):
            raise AssertionError("telemetry touched on the disabled path")

        for name in ("emit", "record_compress", "record_recompress",
                     "record_memory", "record_refinement", "counter",
                     "gauge", "histogram", "series"):
            monkeypatch.setattr(Telemetry, name, boom)
        monkeypatch.setattr(SeriesBuffer, "append", boom)

        a = laplacian_2d(16)
        for overrides in (dict(strategy="just-in-time"),
                          dict(strategy="minimal-memory"),
                          dict(strategy="just-in-time", threads=2)):
            s = Solver(a, tiny_blr_config(**overrides))
            assert s.config.telemetry is None
            s.factorize()
            b = np.ones(a.n)
            s.solve(b)
            s.refine(b)

    def test_disabled_overhead_bounded(self):
        """Attaching a bus bounds the disabled path from above: with
        telemetry=None the per-site cost is one attribute load + None
        test, so the telemetry-off run must not be slower than the
        telemetry-on run by more than scheduler noise.
        """
        a = laplacian_3d(8)

        def best_of(telemetry_on, reps=3):
            times = []
            for _ in range(reps):
                cfg = SolverConfig.laptop_scale(
                    strategy="just-in-time", kernel="rrqr",
                    telemetry=Telemetry() if telemetry_on else None)
                s = Solver(a, cfg)
                s.analyze()
                t0 = time.perf_counter()
                s.factorize()
                times.append(time.perf_counter() - t0)
            return min(times)

        best_of(False, reps=1)  # warm the caches
        t_off = best_of(False)
        t_on = best_of(True)
        assert t_off <= 1.05 * t_on + 0.02, (
            f"disabled path slower than enabled: "
            f"off={t_off:.4f}s on={t_on:.4f}s")

    def test_config_serialization_excludes_bus(self, tmp_path):
        """telemetry is compare/repr-excluded and strips to null in saved
        factor archives."""
        tele = Telemetry()
        cfg = tiny_blr_config(telemetry=tele)
        assert cfg == tiny_blr_config()
        assert "telemetry" not in repr(cfg)
        a = laplacian_2d(12)
        s = Solver(a, cfg)
        s.factorize()
        path = tmp_path / "factor.npz"
        s.save_factor(path)
        s2 = Solver.load_factor(a, path)
        assert s2.config.telemetry is None
        b = np.ones(a.n)
        np.testing.assert_allclose(s2.solve(b), s.solve(b), rtol=1e-10)
