"""Tests for the telemetry store (repro.runtime.telemetry).

Covers the bounded series decimation, the timeline a real factorization
leaves in the store while every count stays in the run's own state, and
the two disabled-path
guarantees: zero telemetry calls and a bounded overhead when
``SolverConfig.telemetry`` is ``None``.
"""

import time

import numpy as np

from repro.config import SolverConfig
from repro.core.solver import Solver
from repro.runtime.spans import SpanProfiler
from repro.runtime.telemetry import SeriesBuffer, Telemetry
from repro.sparse.generators import laplacian_2d, laplacian_3d
from tests.conftest import tiny_blr_config


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
        time.sleep(0.2)  # a profiler made later still takes tele's clock
        prof = SpanProfiler(telemetry=tele)
        s = Solver(laplacian_2d(24), tiny_blr_config(
            strategy="just-in-time", telemetry=tele, profiler=prof))
        s.factorize()
        snap = tele.snapshot()
        assert set(snap) == {"series"}
        assert s.stats.nblocks_compressed > 0
        # one point per accepted compression: JIT never recompresses, so
        # that is every low-rank block of L and U in the factor
        lowrank = sum(len(nc.llowrank) + len(nc.ulowrank)
                      for nc in s.factor.cblks)
        points = snap["series"]["rank_evolution"]
        assert len(points) == lowrank == 2 * s.stats.nblocks_compressed
        assert all(p["site"] == "compress" and p["rank_after"] >= 0
                   for p in points)
        mem = snap["series"]["memory_highwater"]
        assert mem and mem[-1]["peak"] <= s.stats.peak_nbytes
        # one time axis: every high-water point lies inside factorize
        (fact,) = [sp for sp in prof.events() if sp.name == "factorize"]
        assert all(fact.t0 <= p["t"] <= fact.t1 for p in mem)

    def test_recompression_metrics_minimal_memory(self):
        tele = Telemetry()
        s = Solver(laplacian_2d(24), tiny_blr_config(
            strategy="minimal-memory", telemetry=tele))
        s.factorize()
        snap = tele.snapshot()
        sites = {p["site"] for p in snap["series"]["rank_evolution"]}
        assert "recompress" in sites

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
        run: every record helper and series append is patched to
        raise, and a full factorize+solve+refine must still pass.
        """
        def boom(*args, **kwargs):
            raise AssertionError("telemetry touched on the disabled path")

        for name in ("record_compress", "record_recompress",
                     "record_memory", "series"):
            monkeypatch.setattr(Telemetry, name, boom)
        monkeypatch.setattr(SeriesBuffer, "append", boom)

        a = laplacian_2d(16)
        for overrides in (dict(strategy="just-in-time"),
                          dict(strategy="minimal-memory")):
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
