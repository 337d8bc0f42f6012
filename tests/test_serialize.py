"""Tests for factorization save/load."""

import io
import json
import zipfile

import numpy as np
import pytest

from repro.core.serialize import (
    RETIRED_CONFIG_FIELDS,
    RETIRED_POLICY_FIELDS,
    load_factor,
    save_factor,
)
from repro.core.solver import Solver
from repro.runtime.recovery import RecoveryPolicy
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import (
    convection_diffusion_3d,
    laplacian_3d,
)
from tests.conftest import tiny_blr_config
from tests.pins import array_digest, factor_digest


def edit_header(path, member, edit):
    """Rewrite the JSON header of an archive in place."""
    with zipfile.ZipFile(path) as zf:
        header = json.loads(zf.read(member))
        arrays = zf.read("arrays.npz")
    edit(header)
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr(member, json.dumps(header))
        zf.writestr("arrays.npz", arrays)


def roundtrip(a, cfg, tmp_path, rng):
    s = Solver(a, cfg)
    s.factorize()
    b = rng.standard_normal(a.n)
    x1 = s.solve(b)
    path = tmp_path / "factor.rpz"
    s.save_factor(path)
    s2 = Solver.load_factor(a, path)
    x2 = s2.solve(b)
    return s, s2, x1, x2, path


def assert_loads_as(s, path, rng):
    """The archive at ``path`` loads as ``s``: its config, its factor bits
    and its solves."""
    s2 = Solver.load_factor(s.a, path)
    assert s2.config == s.config
    assert factor_digest(s2.factor) == factor_digest(s.factor)
    b = rng.standard_normal(s.a.n)
    assert np.array_equal(s2.solve(b), s.solve(b))


class TestRoundtrip:
    @pytest.mark.parametrize("strategy", ["dense", "just-in-time",
                                          "minimal-memory"])
    def test_solutions_bitwise_identical(self, strategy, tmp_path, rng):
        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy=strategy, tolerance=1e-6)
        _, _, x1, x2, _ = roundtrip(a, cfg, tmp_path, rng)
        np.testing.assert_array_equal(x1, x2)

    def test_nonsymmetric_lu(self, tmp_path, rng):
        a = convection_diffusion_3d(5)
        cfg = tiny_blr_config(strategy="minimal-memory", tolerance=1e-8)
        _, _, x1, x2, _ = roundtrip(a, cfg, tmp_path, rng)
        np.testing.assert_array_equal(x1, x2)

    def test_cholesky(self, tmp_path, rng):
        a = laplacian_3d(5)
        cfg = tiny_blr_config(strategy="dense", factotype="cholesky")
        _, _, x1, x2, _ = roundtrip(a, cfg, tmp_path, rng)
        np.testing.assert_array_equal(x1, x2)

    def test_config_and_analysis_restored(self, tmp_path, rng):
        a = laplacian_3d(5)
        cfg = tiny_blr_config(strategy="minimal-memory", tolerance=1e-4)
        s, s2, _, _, _ = roundtrip(a, cfg, tmp_path, rng)
        assert s2.config == s.config
        assert s2.symbolic.ncblk == s.symbolic.ncblk
        np.testing.assert_array_equal(s2.perm, s.perm)

    def test_loaded_solver_refines(self, tmp_path, rng):
        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy="minimal-memory", tolerance=1e-4)
        _, s2, _, _, _ = roundtrip(a, cfg, tmp_path, rng)
        b = rng.standard_normal(a.n)
        res = s2.refine(b, tol=1e-12, maxiter=20)
        assert res.backward_error <= 1e-10


#: factors holding low-rank blocks beside non-empty panels
LAYOUT_CASES = {
    "jit-lu": dict(strategy="just-in-time", factotype="lu"),
    "mm-ldlt": dict(strategy="minimal-memory", factotype="ldlt"),
}


def write_per_block_archive(s, path):
    """What a version-1 archive held for ``s``'s factor: a side that holds
    a low-rank block stored block by block (its dense blocks as
    ``"dense"`` kinds), every other side as its panel."""
    fac = s.factor
    save_factor(fac, s.perm, path)
    with zipfile.ZipFile(path) as zf:
        header = json.loads(zf.read("header.json"))
        with zf.open("arrays.npz") as fh:
            arrays = dict(np.load(io.BytesIO(fh.read())))
    kinds = []
    for k, side, i, kind in header["kinds"]:
        nc = fac.cblks[k]
        if kind == "panel" and nc.lowrank(side):
            del arrays[f"{side}p{k}"]
            for j in range(nc.sym.noff):
                if j not in nc.lowrank(side):
                    arrays[f"{side}{k}_{j}d"] = nc.block(side, j)
                    kinds.append([k, side, j, "dense"])
        else:
            kinds.append([k, side, i, kind])
    header.update(format_version=1, kinds=kinds)
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("header.json", json.dumps(header))
        zf.writestr("arrays.npz", buf.getvalue())
    return kinds


class TestOneLayout:
    """An archive stores per column block and side the panel of its dense
    rows beside its low-rank blocks, and still reads the per-block sides
    of a version-1 archive by stacking their dense blocks."""

    def factored(self, case):
        s = Solver(laplacian_3d(8), tiny_blr_config(tolerance=1e-4,
                                                    **LAYOUT_CASES[case]))
        s.factorize()
        assert any(nc.llowrank and len(nc.lpanel) for nc in s.factor.cblks)
        return s

    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_round_trip_keeps_the_layout(self, case, tmp_path, rng):
        s = self.factored(case)
        path = s.save_factor(tmp_path / "f.rpz")
        with zipfile.ZipFile(path) as zf:
            header = json.loads(zf.read("header.json"))
        assert {kind for *_, kind in header["kinds"]} == {"panel", "lr"}
        fac, _ = load_factor(path)
        for nc, mine in zip(fac.cblks, s.factor.cblks):
            for side in "lu"[:fac.sides]:
                assert list(nc.lowrank(side)) == list(mine.lowrank(side))
                assert nc.panel(side).flags.c_contiguous
        assert_loads_as(s, path, rng)

    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_per_block_archive_loads_into_panels(self, case, tmp_path, rng):
        s = self.factored(case)
        path = tmp_path / "v1.rpz"
        kinds = write_per_block_archive(s, path)
        assert "dense" in {kind for *_, kind in kinds}
        fac, _ = load_factor(path)
        for nc, mine in zip(fac.cblks, s.factor.cblks):
            for side in "lu"[:fac.sides]:
                assert np.array_equal(nc.panel(side), mine.panel(side))
                assert sorted(nc.lowrank(side)) == sorted(mine.lowrank(side))
        assert_loads_as(s, path, rng)

    def test_missing_block_rejected(self, tmp_path):
        s = self.factored("jit-lu")
        path = tmp_path / "v1.rpz"
        write_per_block_archive(s, path)

        def drop_a_dense_block(header):
            kinds = header["kinds"]
            kinds.remove(next(kind for kind in kinds if kind[3] == "dense"))

        edit_header(path, "header.json", drop_a_dense_block)
        with pytest.raises(ValueError, match="missing blocks"):
            load_factor(path)


class TestArchiveProperties:
    def test_blr_stores_fewer_factor_bytes(self, tmp_path, rng):
        """The archived *payload* follows the compressed factor size.

        (The on-disk file also gets deflate on top, which happens to
        squeeze smooth dense factors well — so the honest comparison is
        the logical payload, not the zip size.)"""
        a = laplacian_3d(8)
        payloads = {}
        for strategy in ("dense", "minimal-memory"):
            cfg = tiny_blr_config(strategy=strategy, tolerance=1e-2)
            s = Solver(a, cfg)
            stats = s.factorize()
            path = tmp_path / f"{strategy}.rpz"
            s.save_factor(path)
            assert path.exists()
            payloads[strategy] = stats.factor_nbytes
        assert payloads["minimal-memory"] < payloads["dense"]

    def test_unfactored_save_rejected(self, tmp_path):
        a = laplacian_3d(4)
        s = Solver(a, tiny_blr_config())
        s.analyze()
        from repro.core.factor import NumericFactor
        fac = NumericFactor(s.symbolic, s.config)
        with pytest.raises(ValueError, match="unfactored"):
            save_factor(fac, s.perm, tmp_path / "x.rpz")

    def test_dimension_mismatch_rejected(self, tmp_path, rng):
        a = laplacian_3d(5)
        cfg = tiny_blr_config(strategy="dense")
        s = Solver(a, cfg)
        s.factorize()
        path = tmp_path / "f.rpz"
        s.save_factor(path)
        with pytest.raises(ValueError, match="dimension"):
            Solver.load_factor(laplacian_3d(4), path)

    def test_dtype_mismatch_rejected(self, tmp_path):
        """An archive only loads against a matrix the solver would factor
        in the archive's dtype: a complex128 factor applied to a real
        matrix solves a different system."""
        a = laplacian_3d(5)
        a_c = CSCMatrix(a.n, a.colptr, a.rowind,
                        a.values.astype(np.complex128))
        cfg = tiny_blr_config(strategy="dense")
        for saved, loaded in ((a_c, a), (a, a_c)):
            s = Solver(saved, cfg)
            s.factorize()
            path = s.save_factor(tmp_path / "f.rpz")
            with pytest.raises(ValueError, match="float64.*complex128|"
                               "complex128.*float64"):
                Solver.load_factor(loaded, path)

    def test_bad_version_rejected(self, tmp_path, rng):
        a = laplacian_3d(4)
        s = Solver(a, tiny_blr_config(strategy="dense"))
        s.factorize()
        path = tmp_path / "f.rpz"
        s.save_factor(path)
        edit_header(path, "header.json",
                    lambda h: h.update(format_version=999))
        with pytest.raises(ValueError, match="version"):
            load_factor(path)


class TestArchivesOutliveConfigFields:
    """A stored config may carry fields that have since been retired;
    anything else unknown is still rejected, by name."""

    RETIRED = dict(accumulate_updates=True, trace=False,
                   scheduler="static", adaptive=None, backend=None, seed=0,
                   storage_dtype="float32", variant="ucf",
                   recompress_updates=False, left_looking=True,
                   watchdog_timeout=5.0, sanitize=True,
                   pivot_growth_limit=1e8, pivot_threshold=1e-14)
    RETIRED_POLICY = dict(
        checkpoint_every=0, checkpoint_on_fault=True, retry_backoff=0.01,
        seed=9, tau_shrink=0.1, tau_floor=1e-14, strategy_downgrade=True,
        dense_fallback=True, pivot_relax=0.25, pivot_u_floor=1e-4,
        refine_window=4, refine_drop=10.0)

    def cfg(self):
        return tiny_blr_config(strategy="just-in-time", tolerance=1e-6)

    def test_factor_archive_with_retired_fields_loads(self, tmp_path, rng):
        assert set(self.RETIRED) == set(RETIRED_CONFIG_FIELDS)
        a = laplacian_3d(6)
        s, _, x1, _, path = roundtrip(a, self.cfg(), tmp_path, rng)
        edit_header(path, "header.json",
                    lambda h: h["config"].update(self.RETIRED))
        assert_loads_as(s, path, rng)

    def test_threaded_archive_loads_sequential(self, tmp_path, rng):
        """An archive saved on the retired worker pool stored its thread
        count and watchdog; the factor bits never depended on them, so
        it loads at ``threads=1`` and solves bit-identically."""
        a = laplacian_3d(6)
        s, _, x1, _, path = roundtrip(a, self.cfg(), tmp_path, rng)
        edit_header(path, "header.json", lambda h: h["config"].update(
            threads=4, watchdog_timeout=5.0, sanitize=True))
        s2 = Solver.load_factor(a, path)
        assert s2.config == s.config and s2.config.threads == 1
        b = rng.standard_normal(a.n)
        assert array_digest(s2.solve(b)) == array_digest(s.solve(b))

    def test_narrowed_archive_loads_and_solves(self, tmp_path, rng):
        """What ``storage_dtype="float32"`` wrote: every panel and
        low-rank block in float32.  It loads in the dtypes it was saved in
        and solves bit-identically to the factor that was saved."""
        a = laplacian_3d(6)
        s = Solver(a, self.cfg())
        s.factorize()
        fac = s.factor
        for nc in fac.cblks:
            for side in "lu"[:fac.sides]:
                nc.set_side(side, nc.panel(side).astype(np.float32), {
                    i: blk.astype(np.float32)
                    for i, blk in nc.lowrank(side).items()})
        path = s.save_factor(tmp_path / "narrowed.rpz")
        edit_header(path, "header.json",
                    lambda h: h["config"].update(storage_dtype="float32"))
        s2 = Solver.load_factor(a, path)
        assert s2.config == s.config
        assert factor_digest(s2.factor) == factor_digest(fac)
        assert s2.factor.cblks[0].lpanel.dtype == np.float32
        b = rng.standard_normal(a.n)
        assert np.array_equal(s2.solve(b), s.solve(b))

    def test_factor_archive_with_retired_policy_fields_loads(self, tmp_path,
                                                              rng):
        """A stored recovery policy may carry the knobs of the retired
        mid-factorization restart, retry backoff and ladder shape; they
        are dropped on load."""
        assert set(self.RETIRED_POLICY) == set(RETIRED_POLICY_FIELDS)
        a = laplacian_3d(6)
        cfg = self.cfg().with_options(recovery=RecoveryPolicy())
        s, _, _, _, path = roundtrip(a, cfg, tmp_path, rng)
        edit_header(path, "header.json",
                    lambda h: h["config"]["recovery"].update(
                        self.RETIRED_POLICY))
        assert_loads_as(s, path, rng)

    #: what an archive stored while ``variant`` pinned a loop order, and
    #: the options it loads under: ``cuf`` names minimal-memory, every
    #: later order just-in-time, whatever strategy was stored beside it
    STORED_ORDERS = [
        pytest.param(dict(strategy="just-in-time", variant="cuf"),
                     dict(strategy="minimal-memory"), id="cuf"),
        *[pytest.param(dict(strategy="minimal-memory", variant=order),
                       dict(strategy="just-in-time"), id=order)
          for order in ("ucf", "ufc", "fuc")],
        pytest.param(dict(strategy="minimal-memory", variant="ucf",
                          left_looking=True),
                     dict(strategy="just-in-time"), id="ucf-left-looking"),
        pytest.param(dict(strategy="minimal-memory",
                          recompress_updates=False),
                     dict(strategy="minimal-memory"), id="no-recompress"),
    ]

    @pytest.mark.parametrize("stored,loads_as", STORED_ORDERS)
    def test_archive_with_a_loop_order_loads_under_its_strategy(
            self, tmp_path, rng, stored, loads_as):
        a = laplacian_3d(6)
        s, *_, path = roundtrip(a, self.cfg().with_options(**loads_as),
                                tmp_path, rng)
        edit_header(path, "header.json", lambda h: h["config"].update(
            {"variant": None, "recompress_updates": True, **stored}))
        assert_loads_as(s, path, rng)

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_stored_backend_loads(self, tmp_path, rng, backend):
        """Archives written while ``backend`` was a knob store it as null
        or as the name of the one kernel implementation left."""
        a = laplacian_3d(6)
        s, *_, path = roundtrip(a, self.cfg(), tmp_path, rng)
        edit_header(path, "header.json",
                    lambda h: h["config"].update(backend=backend))
        assert factor_digest(Solver.load_factor(a, path).factor) == \
            factor_digest(s.factor)

    def test_unknown_field_rejected_by_name(self, tmp_path, rng):
        a = laplacian_3d(4)
        *_, path = roundtrip(a, self.cfg(), tmp_path, rng)
        edit_header(path, "header.json",
                    lambda h: h["config"].update(bogus_knob=1))
        with pytest.raises(ValueError, match="bogus_knob"):
            load_factor(path)

    @pytest.mark.parametrize("field,value", [
        ("strategy", "adaptive"), ("kernel", "rsvd"), ("kernel", "aca")])
    def test_retired_value_rejected_with_the_choices(self, tmp_path, rng,
                                                     field, value):
        a = laplacian_3d(4)
        *_, path = roundtrip(a, self.cfg(), tmp_path, rng)
        edit_header(path, "header.json",
                    lambda h: h["config"].update({field: value}))
        with pytest.raises(ValueError, match=value) as exc:
            load_factor(path)
        assert getattr(self.cfg(), field) in str(exc.value)
