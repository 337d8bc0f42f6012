"""Tests for deterministic fault injection (repro.runtime.faults).

The point of the module is making task failure paths testable: these
tests assert that injected errors surface from a factorization as the
injected exception, and that NaN injection behaves as documented.
"""

import numpy as np
import pytest

from repro.core.solver import Solver
from repro.runtime.faults import FaultError, FaultInjector
from repro.sparse.generators import laplacian_2d, laplacian_3d
from tests.conftest import tiny_blr_config


class TestInjectorUnit:
    def test_pick_block_is_seed_deterministic(self):
        a = FaultInjector(seed=7)
        b = FaultInjector(seed=7)
        picks = [a.pick_block(50) for _ in range(10)]
        assert picks == [b.pick_block(50) for _ in range(10)]
        assert all(0 <= k < 50 for k in picks)
        with pytest.raises(ValueError):
            a.pick_block(0)

    def test_fail_factor_raises_and_records(self):
        inj = FaultInjector()
        inj.fail_factor(3)
        with pytest.raises(FaultError, match="column block 3"):
            inj.on_factor(None, 3)
        inj.on_factor(None, 4)  # other blocks unaffected
        assert inj.fired == [("factor", 3, None, "raise")]

    def test_fail_update_target_filter(self):
        inj = FaultInjector()
        inj.fail_update(2, target=5)
        inj.on_update(None, 2, 4)  # different target: no fault
        with pytest.raises(FaultError, match="from column block 2 to 5"):
            inj.on_update(None, 2, 5)

    def test_fail_update_any_target(self):
        inj = FaultInjector()
        inj.fail_update(2)
        with pytest.raises(FaultError):
            inj.on_update(None, 2, None)

    def test_custom_exception(self):
        inj = FaultInjector()
        inj.fail_factor(0, exc=ZeroDivisionError("boom"))
        with pytest.raises(ZeroDivisionError, match="boom"):
            inj.on_factor(None, 0)


class TestNewFaultSites:
    """Satellite: compression / trisolve / serialization fault sites and
    the transient (fire-once) mode the recovery layer retries against."""

    def test_transient_fault_fires_exactly_once(self):
        inj = FaultInjector()
        inj.fail_factor(0, transient=True)
        with pytest.raises(FaultError):
            inj.on_factor(None, 0)
        inj.on_factor(None, 0)  # healed: second pass is clean
        assert inj.fired.count(("factor", 0, None, "raise")) == 1

    def test_fail_compress_surfaces_in_jit_run(self):
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      tolerance=1e-8))
        s.analyze()
        inj = FaultInjector()
        for k in range(s.symbolic.ncblk):
            inj.fail_compress(k)
        with pytest.raises(FaultError, match="compression"):
            s.factorize(faults=inj)
        assert any(f[0] == "compress" for f in inj.fired)

    def test_fail_trisolve_surfaces_in_solve(self):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="dense"))
        s.factorize()
        inj = FaultInjector()
        inj.fail_trisolve()
        s.factor.faults = inj
        with pytest.raises(FaultError, match="triangular"):
            s.solve(np.ones(a.n))
        assert ("trisolve", -1, None, "raise") in inj.fired

    def test_fail_serialize_surfaces_in_save_factor(self, tmp_path):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="dense"))
        s.analyze()
        inj = FaultInjector()
        s.factorize(faults=inj)
        inj.fail_serialize()
        with pytest.raises(FaultError, match="archive"):
            s.save_factor(tmp_path / "f.blr")
        assert ("serialize", -1, None, "raise") in inj.fired


class TestErrorPropagation:
    """Satellite: injected errors surface as themselves."""

    @pytest.mark.parametrize("seed", [2, 4])
    def test_factor_fault_surfaces(self, seed):
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config())
        s.analyze()
        inj = FaultInjector(seed=seed)  # fixed seed: reproducible k
        k = inj.pick_block(s.symbolic.ncblk)
        inj.fail_factor(k)
        with pytest.raises(FaultError):
            s.factorize(faults=inj)
        assert ("factor", k, None, "raise") in inj.fired

    def test_update_fault_surfaces(self):
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config())
        s.analyze()
        # pick a block that actually contributes to someone
        symb = s.symbolic
        src = next(c for t in range(symb.ncblk)
                   for c in symb.contributors(t))
        inj = FaultInjector()
        inj.fail_update(src)
        with pytest.raises(FaultError):
            s.factorize(faults=inj)

    def test_sequential_engines_also_fault(self):
        s = Solver(laplacian_2d(6), tiny_blr_config())
        s.analyze()
        inj = FaultInjector()
        inj.fail_factor(0)
        with pytest.raises(FaultError):
            s.factorize(faults=inj)

    def test_fault_runs_are_deterministic(self):
        """Same seed, same matrix, same config → the same block fails with
        the same exception type on every repetition."""
        a = laplacian_3d(5)
        seen = set()
        for _ in range(3):
            s = Solver(a, tiny_blr_config())
            s.analyze()
            inj = FaultInjector(seed=123)
            k = inj.pick_block(s.symbolic.ncblk)
            inj.fail_factor(k)
            with pytest.raises(Exception) as info:
                s.factorize(faults=inj)
            seen.add((k, type(info.value).__name__))
        assert len(seen) == 1


class TestNanInjection:
    @pytest.mark.parametrize("strategy", ["dense", "just-in-time"])
    def test_nan_poisons_factors_silently(self, strategy):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy=strategy))
        s.analyze()
        inj = FaultInjector()
        inj.nan_in_panel(0)
        s.factorize(faults=inj)
        assert ("factor", 0, None, "nan") in inj.fired
        poisoned = any(
            (nc.diag is not None and not np.all(np.isfinite(nc.diag)))
            or (nc.lpanel is not None
                and not np.all(np.isfinite(nc.lpanel)))
            for nc in s.factor.cblks)
        assert poisoned, "NaN was injected but vanished from the factors"

    def test_nan_reaches_the_solution(self):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="dense"))
        s.analyze()
        inj = FaultInjector()
        inj.nan_in_panel(0)
        s.factorize(faults=inj)
        x = s.solve(np.ones(a.n))
        assert not np.all(np.isfinite(x))
