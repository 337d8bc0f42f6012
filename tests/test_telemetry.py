"""Tests for the telemetry store (repro.runtime.telemetry).

Covers the bounded event log, the bounded series decimation, the
timeline a real (threaded) factorization leaves in the store while every
count stays in the run's own state, and the two disabled-path
guarantees: zero telemetry calls and a bounded overhead when
``SolverConfig.telemetry`` is ``None``.
"""

import time

import numpy as np

from repro.config import SolverConfig
from repro.core.solver import Solver
from repro.runtime.telemetry import SeriesBuffer, Telemetry
from repro.sparse.generators import laplacian_2d, laplacian_3d
from tests.conftest import tiny_blr_config


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
        assert set(snap) == {"series", "events_emitted"}
        assert s.stats.nblocks_compressed > 0
        # one compress event per attempt: exactly the run's own tally
        events = [e for e in tele.events() if e["kind"] == "compress"]
        assert len(events) == s.stats.kernels.call_count("compress")
        lowrank = [e for e in events if e["rank"] >= 0]
        # stats counts L blocks only; LU compresses U panels too
        assert len(lowrank) >= s.stats.nblocks_compressed
        assert len(snap["series"]["rank_evolution"]) == len(lowrank)
        mem = snap["series"]["memory_highwater"]
        assert mem and mem[-1]["peak"] <= s.stats.peak_nbytes

    def test_recompression_metrics_minimal_memory(self):
        tele = Telemetry()
        s = Solver(laplacian_2d(24), tiny_blr_config(
            strategy="minimal-memory", telemetry=tele))
        s.factorize()
        snap = tele.snapshot()
        assert any(e["kind"] == "recompress" for e in tele.events())
        sites = {p["site"] for p in snap["series"]["rank_evolution"]}
        assert "recompress" in sites

    def test_threaded_scheduler_counters_exact(self):
        """One queue-depth point per finished task, from every worker."""
        tele = Telemetry()
        s = Solver(laplacian_3d(8), tiny_blr_config(
            strategy="just-in-time", threads=4, telemetry=tele))
        s.factorize()
        pts = tele.snapshot()["series"]["scheduler_queue_depth"]
        assert len(pts) == s.symbolic.ncblk
        assert {p["worker"] for p in pts} <= set(range(4))
        assert all(p["depth"] >= 0 and p["busy_s"] >= 0.0 for p in pts)

    def test_refinement_history_on_the_run(self):
        """The residual history is the run's record (``last_refinement``
        and the RunReport), not a telemetry series."""
        tele = Telemetry()
        a = laplacian_2d(16)
        s = Solver(a, tiny_blr_config(telemetry=tele))
        res = s.refine(np.ones(a.n))
        assert res.residual_history == res.history
        assert s.last_refinement is res
        report = s.run_report()
        assert report["refinement"]["residual_history"] == \
            res.residual_history
        assert "refinement_residual" not in tele.snapshot()["series"]


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
                     "record_memory", "series"):
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
