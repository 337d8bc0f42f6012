"""Tests for :mod:`repro.config`."""

import pytest

from repro.config import SolverConfig, STRATEGIES, KERNELS


class TestValidation:
    def test_default_is_valid(self):
        cfg = SolverConfig()
        assert cfg.strategy in STRATEGIES
        assert cfg.kernel in KERNELS

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            SolverConfig(strategy="magic")

    def test_bad_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            SolverConfig(kernel="hss")

    def test_bad_factotype_rejected(self):
        with pytest.raises(ValueError, match="factotype"):
            SolverConfig(factotype="qr")

    def test_bad_ordering_rejected(self):
        with pytest.raises(ValueError, match="ordering"):
            SolverConfig(ordering="random")

    @pytest.mark.parametrize("tol", [0.0, 1.0, -1e-8, 2.0, float("nan")])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(tolerance=tol)

    def test_bad_cmin_rejected(self):
        with pytest.raises(ValueError, match="cmin"):
            SolverConfig(cmin=0)

    def test_negative_frat_rejected(self):
        with pytest.raises(ValueError, match="frat"):
            SolverConfig(frat=-0.1)

    @pytest.mark.parametrize("field,value", [
        ("frat", float("nan")),
    ])
    def test_nan_or_negative_safeguard_rejected(self, field, value):
        """Each of these would silently switch a safeguard off: every
        comparison against NaN is false."""
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_split_min_above_split_size_rejected(self):
        with pytest.raises(ValueError, match="split_min"):
            SolverConfig(split_min=300, split_size=256)

    @pytest.mark.parametrize("size,min_", [(0, 0), (-4, -8)])
    def test_split_size_below_one_rejected(self, size, min_):
        """A non-positive tile width would divide by zero in analysis."""
        with pytest.raises(ValueError, match="split_size must be >= 1"):
            SolverConfig(split_size=size, split_min=min_)

    def test_bad_threads_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            SolverConfig(threads=0)

    def test_threads_accepts_only_one(self):
        """The worker pool is retired: ``threads`` stays a field (shared
        settings still pass ``threads=1``) with one legal value."""
        assert SolverConfig(threads=1).threads == 1
        with pytest.raises(ValueError, match="worker pool is retired"):
            SolverConfig(threads=2)

    @pytest.mark.parametrize("ratio", [0.0, 1.5, -0.25, float("nan")])
    def test_bad_rank_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="rank_ratio"):
            SolverConfig(rank_ratio=ratio)

    @pytest.mark.parametrize("retired", [dict(scheduler="dynamic"),
                                         dict(scheduler="static"),
                                         dict(trace=True),
                                         dict(backend="numpy"),
                                         dict(seed=0),
                                         dict(storage_dtype="float32"),
                                         dict(variant="ucf"),
                                         dict(recompress_updates=False),
                                         dict(left_looking=True),
                                         dict(watchdog_timeout=5.0),
                                         dict(sanitize=True),
                                         dict(pivot_growth_limit=1e8),
                                         dict(pivot_threshold=1e-14)],
                             ids=lambda d: "-".join(map(str, *d.items())))
    def test_retired_knobs_are_gone(self, retired):
        """One engine, one recorder, one kernel module, storage
        precision that follows the discarded error, one name for a BLR
        strategy, and one allocation (in the task): nothing left to
        select."""
        import dataclasses

        with pytest.raises(TypeError, match="unexpected keyword"):
            SolverConfig(**retired)
        assert len(dataclasses.fields(SolverConfig)) == 22

    @pytest.mark.parametrize("retired", [
        dict(checkpoint_every=1), dict(checkpoint_on_fault=False),
        dict(retry_backoff=0.01), dict(seed=9), dict(tau_shrink=0.1),
        dict(tau_floor=1e-14), dict(strategy_downgrade=True),
        dict(dense_fallback=False), dict(pivot_relax=0.25),
        dict(pivot_u_floor=1e-4), dict(refine_window=4),
        dict(refine_drop=10.0)], ids=lambda d: "-".join(map(str, *d.items())))
    def test_retired_policy_knobs_are_gone(self, retired):
        """A factorization runs once, start to finish: no mid-run restart
        archive to pace or to write on a fault, no competing worker for a
        retry to back off from, and the ladder's shape is fixed (module
        constants of ``repro.runtime.recovery``)."""
        import dataclasses

        from repro.runtime.recovery import RecoveryPolicy

        with pytest.raises(TypeError, match="unexpected keyword"):
            RecoveryPolicy(**retired)
        assert len(dataclasses.fields(RecoveryPolicy)) == 3


class TestPresets:
    def test_paper_scale_matches_section4(self):
        cfg = SolverConfig.paper_scale()
        assert cfg.cmin == 15
        assert cfg.frat == pytest.approx(0.08)
        assert cfg.split_size == 256
        assert cfg.split_min == 128
        assert cfg.compress_min_width == 128
        assert cfg.compress_min_height == 20

    def test_laptop_scale_is_smaller(self):
        paper = SolverConfig.paper_scale()
        laptop = SolverConfig.laptop_scale()
        assert laptop.split_size < paper.split_size
        assert laptop.compress_min_width < paper.compress_min_width

    def test_presets_accept_overrides(self):
        cfg = SolverConfig.paper_scale(strategy="minimal-memory",
                                       tolerance=1e-4)
        assert cfg.strategy == "minimal-memory"
        assert cfg.tolerance == 1e-4

    def test_with_options_returns_modified_copy(self):
        cfg = SolverConfig()
        other = cfg.with_options(kernel="svd")
        assert other.kernel == "svd"
        assert cfg.kernel == "rrqr"

    def test_config_is_frozen(self):
        cfg = SolverConfig()
        with pytest.raises(Exception):
            cfg.kernel = "svd"


class TestDerivedProperties:
    def test_is_blr(self):
        assert not SolverConfig(strategy="dense").is_blr
        assert SolverConfig(strategy="just-in-time").is_blr
        assert SolverConfig(strategy="minimal-memory").is_blr

    def test_is_symmetric_facto(self):
        assert not SolverConfig(factotype="lu").is_symmetric_facto
        assert SolverConfig(factotype="cholesky").is_symmetric_facto
        assert SolverConfig(factotype="ldlt").is_symmetric_facto
