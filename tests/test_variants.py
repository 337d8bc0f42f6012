"""Tests for the BLR variant decisions of ``repro.config``.

A BLR run is named by its strategy and its threshold mode; ``config.py``
decides once where each strategy compresses, which thresholds each mode
truncates at, and which strategy the escalation ladder downgrades to.
Covers those decisions, the nothing-compressed identity, the one
escalation ladder, and the names this solver no longer answers to.
"""

from __future__ import annotations

from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from repro.config import STRATEGY_DOWNGRADES, THRESHOLD_MODES, SolverConfig
from repro.core.solver import Solver
from repro.lowrank.rrqr import rrqr_compress
from repro.lowrank.svd import svd_compress
from repro.runtime.faults import FaultInjector
from repro.runtime import recovery
from repro.runtime.recovery import RecoveryPolicy, escalate_config
from repro.sparse.generators import convection_diffusion_3d, laplacian_3d
from tests.conftest import tiny_blr_config
from tests.pins import factor_digest

#: the two BLR strategies; the test ids are the literature's names for
#: their loop orders (Compress-Update-Factor, Update-Compress-Factor)
BLR_STRATEGIES = [pytest.param("minimal-memory", id="cuf"),
                  pytest.param("just-in-time", id="ucf")]


def solve_err(a, cfg):
    s = Solver(a, cfg)
    s.factorize()
    b = np.ones(a.n)
    return s, s.backward_error(s.solve(b), b)


# ----------------------------------------------------------------------
# the decisions config.py makes for a BLR run
# ----------------------------------------------------------------------

class TestBlrVariant:
    def test_defaults_are_jit_shaped(self):
        cfg = SolverConfig()
        assert (cfg.strategy, cfg.threshold_mode) == ("just-in-time",
                                                      "local")
        assert cfg.compress_before_solve and not cfg.compress_at_fill

    @pytest.mark.parametrize("strategy", BLR_STRATEGIES)
    def test_exactly_one_compression_point(self, strategy):
        cfg = tiny_blr_config(strategy=strategy)
        assert cfg.compress_at_fill + cfg.compress_before_solve == 1

    def test_invalid_axes_raise(self):
        with pytest.raises(ValueError, match="strategy"):
            SolverConfig(strategy="fcu")
        with pytest.raises(ValueError, match="threshold_mode"):
            SolverConfig(threshold_mode="relative")

    def test_compress_scale_hand_computed(self):
        """``compress_thresholds`` for all four modes, by hand."""
        def thresholds(mode, p):
            return SolverConfig(tolerance=1e-8, threshold_mode=mode
                                ).compress_thresholds(p, 300.0)

        assert thresholds("local", 25) == (1e-8, None)
        assert thresholds("local-scaled", 25) == (1e-8 / 25, None)
        assert thresholds("global", 25) == (1e-8, 300.0)
        assert thresholds("global-scaled", 25) == (1e-8 / 25, 300.0)
        # degenerate block counts never divide by zero
        assert thresholds("local-scaled", 0) == (1e-8, None)


class TestResolveVariant:
    """Where each strategy compresses: the one place it is decided."""

    def test_dense_has_no_variant(self):
        cfg = tiny_blr_config(strategy="dense",
                              threshold_mode="global-scaled")
        assert not (cfg.is_blr or cfg.compress_at_fill
                    or cfg.compress_before_solve)
        s = Solver(laplacian_3d(5), cfg)
        s.factorize()
        assert (s.factor.comp_tol, s.factor.comp_norm_ref) == (
            cfg.tolerance, None)

    @pytest.mark.parametrize("strategy,order", [
        ("just-in-time", "ucf"), ("minimal-memory", "cuf")])
    def test_alias_orders(self, strategy, order):
        """The strategy compresses where the literature's loop order
        puts the C: before the updates (``cuf``, as its task fills the
        column block) or after them (``ucf``, before the panel solve)."""
        cfg = tiny_blr_config(strategy=strategy)
        assert (cfg.compress_at_fill, cfg.compress_before_solve) == (
            order == "cuf", order == "ucf")

    def test_threshold_axes_forwarded(self):
        cfg = tiny_blr_config(threshold_mode="global-scaled")
        s = Solver(laplacian_3d(5), cfg)
        s.factorize()
        fac = s.factor
        assert (fac.comp_tol, fac.comp_norm_ref) == cfg.compress_thresholds(
            fac.symb.ncblk, fac.global_norm)


class TestConfigValidation:
    def test_unknown_axes_rejected(self):
        with pytest.raises(ValueError):
            tiny_blr_config(strategy="xyz")
        with pytest.raises(ValueError):
            tiny_blr_config(threshold_mode="xyz")

    def test_config_roundtrips_through_asdict(self):
        cfg = tiny_blr_config(strategy="minimal-memory",
                              threshold_mode="global-scaled")
        clone = SolverConfig(**asdict(replace(cfg, telemetry=None)))
        assert clone == cfg


class TestNothingCompressedIsTheDenseFactorization:
    """A column block is a panel until a block in it compresses, so a BLR
    run that ends without a low-rank block took the dense solver's path
    through every kernel: its factors are the dense run's, bit for bit."""

    #: the strategies whose compression point comes after the fill
    LATE_STRATEGIES = [pytest.param("just-in-time", id="ucf")]

    def _factor(self, faults=None, **overrides):
        s = Solver(laplacian_3d(6), tiny_blr_config(
            tolerance=1e-8, **overrides))
        s.factorize(faults=faults)
        return s.factor

    @pytest.mark.parametrize("factotype", ["lu", "cholesky"])
    @pytest.mark.parametrize("strategy", LATE_STRATEGIES)
    def test_every_candidate_over_its_rank_cap(self, strategy, factotype):
        fac = self._factor(strategy=strategy, factotype=factotype)
        assert fac.stats.nblocks_compressed == 0
        assert all(nc.panel_mode for nc in fac.cblks)
        assert factor_digest(fac) == factor_digest(
            self._factor(strategy="dense", factotype=factotype))

    @pytest.mark.parametrize("factotype", ["lu", "cholesky"])
    @pytest.mark.parametrize("strategy", BLR_STRATEGIES)
    def test_every_compression_site_declines(self, strategy, factotype):
        """Every compression site failed into the recovery ladder's dense
        fallback, which leaves the column block in panel mode — Minimal
        Memory's too, which its task reaches as it fills the column
        block."""

        inj = FaultInjector()
        for k in range(65):
            inj.fail_compress(k)
        fac = self._factor(faults=inj, strategy=strategy,
                           factotype=factotype, recovery=RecoveryPolicy())
        assert len(inj.fired) == len(fac.cblks) == 65
        assert factor_digest(fac) == factor_digest(
            self._factor(strategy="dense", factotype=factotype))

    @pytest.mark.parametrize("factotype", ["lu", "cholesky"])
    def test_compress_at_assembly_without_candidates(self, factotype):
        """Minimal Memory always accepts something as its task fills a
        column block with candidates (a block that is all fill-in has
        rank 0), so it is run with none: every assembled scratch is kept
        as the panels."""
        none = dict(compress_min_width=10 ** 6, factotype=factotype)
        fac = self._factor(strategy="minimal-memory", **none)
        assert all(nc.panel_mode for nc in fac.cblks)
        assert factor_digest(fac) == factor_digest(
            self._factor(strategy="dense", **none))


# ----------------------------------------------------------------------
# correctness matrix: every strategy x threshold mode (and
# dtypes/factotypes)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("strategy", BLR_STRATEGIES)
class TestVariantMatrix:
    @pytest.mark.parametrize("mode", THRESHOLD_MODES)
    def test_order_x_threshold_mode(self, strategy, mode):
        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy=strategy, threshold_mode=mode,
                              tolerance=1e-8)
        _, err = solve_err(a, cfg)
        # scaled modes only tighten; 100x headroom as in the strategy suite
        assert err <= 1e-6

    @pytest.mark.parametrize("dtype,bound", [("float64", 1e-6),
                                             ("float32", 5e-3)])
    def test_order_x_dtype(self, strategy, dtype, bound):
        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy=strategy, tolerance=1e-8,
                              dtype=dtype)
        _, err = solve_err(a, cfg)
        assert err <= bound

    def test_order_cholesky(self, strategy):
        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy=strategy, factotype="cholesky",
                              tolerance=1e-8)
        _, err = solve_err(a, cfg)
        assert err <= 1e-6

    def test_order_nonsymmetric(self, strategy):
        a = convection_diffusion_3d(5, peclet=0.6)
        cfg = tiny_blr_config(strategy=strategy, tolerance=1e-8)
        _, err = solve_err(a, cfg)
        assert err <= 1e-5


# ----------------------------------------------------------------------
# threshold modes: hand-computed kernel-level behaviour
# ----------------------------------------------------------------------

class TestThresholdModes:
    def test_svd_norm_ref_raises_truncation_threshold(self):
        # singular values 1, 1e-2, 1e-9: at tol=1e-4 the local rule keeps
        # rank 2 (tail 1e-9), a norm_ref of 1e3 raises the threshold to
        # 1e-4 * 1e3 = 0.1 and truncates the 1e-2 mode too
        a = np.diag([1.0, 1e-2, 1e-9, 0.0, 0.0, 0.0])
        assert svd_compress(a, 1e-4).rank == 2
        assert svd_compress(a, 1e-4, norm_ref=1e3).rank == 1

    def test_rrqr_norm_ref_raises_truncation_threshold(self):
        rng = np.random.default_rng(5)
        q1 = np.linalg.qr(rng.standard_normal((12, 3)))[0]
        q2 = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        a = (q1 * np.array([1.0, 1e-2, 1e-9])) @ q2.T
        assert rrqr_compress(a, 1e-4).rank == 2
        assert rrqr_compress(a, 1e-4, norm_ref=1e3).rank == 1

    def test_global_mode_truncates_at_least_as_hard_as_local(self):
        """norm_ref = ||A||_F >= every block norm, so per-block ranks can
        only shrink — Just-In-Time's compress-once point makes that a
        deterministic factor-size ordering."""
        a = laplacian_3d(8)
        sizes = {}
        for mode in ("local", "global"):
            s, err = solve_err(a, tiny_blr_config(strategy="just-in-time",
                                                  threshold_mode=mode,
                                                  tolerance=1e-5))
            sizes[mode] = s.stats.factor_nbytes
            # the global reference truncates relative to ||A||_F, so the
            # per-block backward error is allowed to grow accordingly
            assert err <= 1e-1
        assert sizes["global"] <= sizes["local"]

    def test_scaled_mode_keeps_at_least_local_accuracy(self):
        a = laplacian_3d(8)
        sizes = {}
        for mode in ("local", "local-scaled"):
            s, err = solve_err(a, tiny_blr_config(strategy="just-in-time",
                                                  threshold_mode=mode,
                                                  tolerance=1e-4))
            sizes[mode] = s.stats.factor_nbytes
            assert err <= 1e-2
        # tau/p only lowers the threshold: ranks (and bytes) cannot shrink
        assert sizes["local-scaled"] >= sizes["local"]

    def test_effective_threshold_recorded_on_factor(self):
        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy="just-in-time", threshold_mode="global-scaled",
                              tolerance=1e-8)
        s = Solver(a, cfg)
        s.factorize()
        fac = s.factor
        p = fac.symb.ncblk
        assert fac.comp_tol == pytest.approx(1e-8 / p)
        assert fac.comp_norm_ref == pytest.approx(fac.global_norm)
        assert fac.global_norm > 0.0


# ----------------------------------------------------------------------
# the escalation ladder
# ----------------------------------------------------------------------

class TestEscalation:
    @staticmethod
    def walk(cfg):
        """Every rung below ``cfg`` as (tolerance, strategy)."""
        rungs = []
        while (cfg := escalate_config(cfg)) is not None:
            rungs.append((cfg.tolerance, cfg.strategy))
        return rungs

    def test_one_ladder_from_the_resolved_order(self, monkeypatch):
        """A config tightens τ down to the floor first and then compresses
        later rung by rung, ending at dense."""
        monkeypatch.setattr(recovery, "TAU_FLOOR", 1e-10)
        jit = [(pytest.approx(1e-9), "just-in-time"),
               (pytest.approx(1e-10), "just-in-time")]
        tail = [(pytest.approx(1e-10), "dense")]
        cfg = tiny_blr_config(tolerance=1e-8, strategy="just-in-time")
        assert self.walk(cfg) == jit + tail
        mm = [(pytest.approx(1e-9), "minimal-memory"),
              (pytest.approx(1e-10), "minimal-memory"),
              (pytest.approx(1e-10), "just-in-time")]
        cfg = tiny_blr_config(tolerance=1e-8, strategy="minimal-memory")
        assert self.walk(cfg) == mm + tail
        assert self.walk(tiny_blr_config(strategy="dense")) == []

    def test_order_ladder_is_compress_later(self):
        """MM → JIT → dense: each step moves the compression point later
        (at the fill, before the solve, never)."""
        ladder = ["minimal-memory"]
        while ladder[-1] in STRATEGY_DOWNGRADES:
            ladder.append(STRATEGY_DOWNGRADES[ladder[-1]])
        assert ladder == ["minimal-memory", "just-in-time", "dense"]
        cfgs = [SolverConfig(strategy=st) for st in ladder]
        points = [(c.compress_at_fill, c.compress_before_solve)
                  for c in cfgs]
        assert points == [(True, False), (False, True), (False, False)]

    def test_tau_tightening_preserves_variant(self):
        cfg = tiny_blr_config(strategy="minimal-memory", tolerance=1e-6)
        rung = escalate_config(cfg)
        assert rung.strategy == "minimal-memory"
        assert rung.tolerance == pytest.approx(1e-7)

    def test_recovery_completes_under_variant(self):
        """A poisoned run under a BLR strategy self-heals through the
        ladder."""

        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy="minimal-memory", tolerance=1e-8,
                              recovery=RecoveryPolicy())
        s = Solver(a, cfg)
        inj = FaultInjector(seed=0)
        inj.fail_factor(2, transient=True)
        s.factorize(faults=inj)
        b = np.ones(a.n)
        assert s.backward_error(s.solve(b), b) <= 1e-6

    def test_every_rung_is_logged_by_its_resolved_order(self, monkeypatch):
        """Every rung is logged by its strategy, the one name of a BLR
        run."""
        from repro.runtime.recovery import NumericalBreakdown

        # τ is already under the floor, so every rung is a strategy rung
        monkeypatch.setattr(recovery, "TAU_FLOOR", 1.0)
        s = Solver(laplacian_3d(5), tiny_blr_config(
            strategy="minimal-memory",
            recovery=RecoveryPolicy(max_retries=4)))
        inj = FaultInjector()
        inj.nan_in_panel(0)  # persistent: no rung heals it
        with pytest.raises(NumericalBreakdown):
            s.factorize(faults=inj)
        rungs = [a for a in s.last_recovery["actions"]
                 if a["action"] == "refactorize"]
        assert [a["strategy"] for a in rungs] == ["just-in-time", "dense"]
        assert not any("order" in a for a in rungs)
        # the last rung tried is dense, but no rung built a factor
        assert rungs[-1]["strategy"] == "dense"
        assert s.last_recovery["final_strategy"] is None
        assert "final_order" not in s.last_recovery


# ----------------------------------------------------------------------
# the names that were retired (each measured and dominated; CHANGELOG)
# ----------------------------------------------------------------------

def _import_from(module, name):
    exec(f"from {module} import {name}", {})


def _cli(*argv):
    from repro.cli import main

    main(list(argv))


def _telemetry_with_sinks():
    from repro.runtime.telemetry import Telemetry

    Telemetry(sinks=())


@pytest.mark.parametrize("probe,error", [
    pytest.param(lambda: tiny_blr_config(strategy="adaptive"), ValueError,
                 id="strategy-adaptive"),
    pytest.param(lambda: tiny_blr_config(kernel="rsvd"), ValueError,
                 id="kernel-rsvd"),
    pytest.param(lambda: tiny_blr_config(kernel="aca"), ValueError,
                 id="kernel-aca"),
    pytest.param(lambda: tiny_blr_config(adaptive=None), TypeError,
                 id="field-adaptive"),
    pytest.param(lambda: _import_from("repro", "AdaptivePolicy"),
                 ImportError, id="import-AdaptivePolicy"),
    pytest.param(lambda: _import_from("repro.ordering",
                                      "reverse_cuthill_mckee"),
                 ImportError, id="import-rcm"),
    pytest.param(lambda: _cli("solve", "--generate", "lap3d:4",
                              "--strategy", "adaptive"),
                 SystemExit, id="cli-strategy-adaptive"),
    pytest.param(lambda: SolverConfig(backend="numpy"), TypeError,
                 id="field-backend"),
    *[pytest.param(lambda name=name: _import_from("repro", name),
                   ImportError, id=f"import-{name}")
      for name in ("KernelBackend", "register_backend",
                   "available_backends")],
    pytest.param(lambda: _cli("backends"), SystemExit, id="cli-backends"),
    pytest.param(lambda: _cli("solve", "--generate", "lap3d:4",
                              "--backend", "numpy"),
                 SystemExit, id="cli-solve-backend"),
    *[pytest.param(lambda name=name: _import_from("repro.runtime", name),
                   ImportError, id=f"import-{name}")
      for name in ("JSONLSink", "RingBufferSink", "SummarySink",
                   "parse_prometheus_text")],
    pytest.param(_telemetry_with_sinks, TypeError, id="telemetry-sinks"),
    *[pytest.param(lambda name=name: _import_from("repro.core.backend", name),
                   ImportError, id=f"import-{name}")
      for name in ("_sweep_lower", "_sweep_upper")],
    pytest.param(lambda: _cli("solve", "--generate", "lap3d:4",
                              "--storage-dtype", "float32"),
                 SystemExit, id="cli-solve-storage-dtype"),
    pytest.param(lambda: _cli("solve", "--generate", "lap3d:4",
                              "--variant", "ucf"),
                 SystemExit, id="cli-solve-variant"),
    pytest.param(lambda: _cli("solve", "--generate", "lap3d:4",
                              "--no-recompress"),
                 SystemExit, id="cli-solve-no-recompress"),
    pytest.param(lambda: SolverConfig(variant="fuc"), TypeError,
                 id="order-fuc"),
    pytest.param(lambda: _import_from("repro.core", "variants"),
                 ImportError, id="import-repro.core.variants"),
    pytest.param(lambda: _import_from("repro", "BlrVariant"),
                 ImportError, id="import-BlrVariant"),
    pytest.param(lambda: FaultInjector().add_latency("factor", 0.01),
                 AttributeError, id="faults-add_latency"),
    *[pytest.param(lambda name=name: _import_from("repro.core.scheduler",
                                                  name),
                   ImportError, id=f"import-{name}")
      for name in ("run_threaded", "SchedulerError", "DeadlockError")],
    pytest.param(lambda: _import_from("repro.runtime", "sanitizer"),
                 ImportError, id="import-sanitizer"),
    pytest.param(lambda: _import_from("repro.analysis", "metrics"),
                 ImportError, id="import-repro.analysis.metrics"),
    pytest.param(lambda: SolverConfig(pivot_threshold=1e-8), TypeError,
                 id="pivot_threshold"),
])
def test_retired_names_are_gone(probe, error):
    with pytest.raises(error) as exc:
        probe()
    if error is SystemExit:
        assert exc.value.code == 2
    assert len(fields(SolverConfig)) == 22


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestCli:
    def test_solve_with_variant_flags(self, capsys):
        from repro.cli import main

        rc = main(["solve", "--generate", "lap3d:5",
                   "--strategy", "minimal-memory",
                   "--threshold-mode", "global"])
        assert rc == 0
        assert "backward error" in capsys.readouterr().out
