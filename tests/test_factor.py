"""Tests for numerical block storage and assembly."""

import numpy as np
import pytest

from repro.core.factor import assemble
from repro.core.solver import Solver
from repro.lowrank.block import LowRankBlock
from repro.sparse.generators import laplacian_2d, laplacian_3d, zoo
from repro.sparse.permute import permute_symmetric
from repro.symbolic.factorization import SymbolicOptions, symbolic_factorization
from tests.conftest import assemble_filled, tiny_blr_config


def setup(a, config):
    opts = SymbolicOptions.from_config(config)
    symb, perm = symbolic_factorization(a, opts)
    ap = permute_symmetric(a.symmetrize_pattern() if not
                           a.is_pattern_symmetric() else a, perm)
    return symb, ap


def reconstruct(fac, n, side="l"):
    """Rebuild the dense matrix currently held in the block storage."""
    out = np.zeros((n, n))
    for nc in fac.cblks:
        sym = nc.sym
        lo, hi = sym.first_col, sym.end_col
        out[lo:hi, lo:hi] = nc.diag
        for i, b in enumerate(sym.off_blocks()):
            blk = nc.lblock(i) if side == "l" else nc.ublock(i)
            dense = blk.to_dense() if isinstance(blk, LowRankBlock) else blk
            if side == "l":
                out[b.first_row:b.end_row, lo:hi] = dense
            else:
                out[lo:hi, b.first_row:b.end_row] = dense.T
    return out


class TestDenseAssembly:
    @pytest.mark.parametrize("strategy", ["dense", "just-in-time"])
    def test_panel_assembly_reproduces_matrix(self, strategy):
        cfg = tiny_blr_config(strategy=strategy)
        a = laplacian_2d(6)
        symb, ap = setup(a, cfg)
        fac = assemble_filled(ap, symb, cfg)
        d = ap.to_dense()
        np.testing.assert_allclose(reconstruct(fac, a.n, "l"),
                                   np.tril(d) + np.triu(d, 1) * 0
                                   + np.triu(reconstruct(fac, a.n, "l"), 1))
        # lower part == A lower; upper part of the panels mirrors Uᵗ
        np.testing.assert_allclose(np.tril(reconstruct(fac, a.n, "l")),
                                   np.tril(d))
        np.testing.assert_allclose(np.triu(reconstruct(fac, a.n, "u"), 1),
                                   np.triu(d, 1))

    @pytest.mark.parametrize("strategy", ["dense", "just-in-time",
                                          "minimal-memory"])
    def test_assemble_allocates_nothing(self, strategy):
        """Every column block is allocated by its own task: before the
        engine runs, nothing is stored and nothing is charged."""
        cfg = tiny_blr_config(strategy=strategy, tolerance=1e-4)
        symb, ap = setup(laplacian_3d(6), cfg)
        fac = assemble(ap, symb, cfg)
        assert fac.tracker.peak == 0
        assert all(nc.diag is None and nc.lpanel is None
                   and nc.lblocks is None for nc in fac.cblks)

    def test_memory_tracker_counts_allocations(self):
        cfg = tiny_blr_config(strategy="dense")
        a = laplacian_2d(5)
        symb, ap = setup(a, cfg)
        fac = assemble_filled(ap, symb, cfg)
        assert fac.tracker.current > 0
        assert fac.tracker.peak == fac.tracker.current
        assert fac.factor_nbytes() == fac.tracker.current


class TestMinimalMemoryAssembly:
    def test_values_reproduced_within_tolerance(self):
        cfg = tiny_blr_config(strategy="minimal-memory", tolerance=1e-10)
        a = laplacian_3d(5)
        symb, ap = setup(a, cfg)
        fac = assemble_filled(ap, symb, cfg)
        d = ap.to_dense()
        low = reconstruct(fac, a.n, "l")
        err = np.linalg.norm(np.tril(low) - np.tril(d))
        assert err <= 1e-8 * np.linalg.norm(d)

    def test_some_blocks_compressed(self):
        cfg = tiny_blr_config(strategy="minimal-memory", tolerance=1e-4)
        a = laplacian_3d(6)
        symb, ap = setup(a, cfg)
        fac = assemble_filled(ap, symb, cfg)
        ncomp = sum(isinstance(b, LowRankBlock)
                    for nc in fac.cblks for b in (nc.lblocks or []))
        assert ncomp > 0

    def test_never_allocates_dense_panels(self):
        """What Minimal Memory promises at assembly: only what is stored is
        charged (the dense scratch a block is compressed from never is), a
        column block holding a low-rank block holds no panel, and one that
        kept its panel — nothing in it compressed — holds nothing else."""
        cfg = tiny_blr_config(strategy="minimal-memory", tolerance=1e-4)
        a = laplacian_3d(8)
        symb, ap = setup(a, cfg)
        fac = assemble_filled(ap, symb, cfg)
        assert fac.tracker.current == fac.factor_nbytes()
        assert fac.tracker.peak == fac.tracker.current
        modes = set()
        for nc in fac.cblks:
            assert (nc.lpanel is None) != (nc.lblocks is None)
            assert (nc.upanel is None) == (nc.lpanel is None)
            if nc.lblocks is not None:
                assert any(isinstance(b, LowRankBlock)
                           for b in nc.lblocks + nc.ublocks)
            modes.add(nc.panel_mode)
        assert modes == {True, False}
        # the run's peak, to the byte, is pinned as the peak_bytes fact of
        # factotype/lu/minimal-memory/float64 in tests/golden/pins.json

    def test_initial_compression_cheaper_than_dense(self):
        """MM assembly peak must not exceed the dense factor size."""
        cfg = tiny_blr_config(strategy="minimal-memory", tolerance=1e-4)
        a = laplacian_3d(6)
        symb, ap = setup(a, cfg)
        fac = assemble_filled(ap, symb, cfg)
        assert fac.tracker.peak <= fac.dense_factor_nbytes()


class TestBlockAccessors:
    def test_set_block_updates_tracking(self):
        cfg = tiny_blr_config(strategy="minimal-memory", tolerance=1e-4)
        a = laplacian_3d(6)
        symb, ap = setup(a, cfg)
        fac = assemble_filled(ap, symb, cfg)
        # blocks mode = the column block holds a low-rank block
        nc = next(c for c in fac.cblks if c.lblocks)
        old_total = fac.tracker.current
        big = np.zeros((nc.sym.blocks[1].nrows, nc.width))
        fac.set_block(nc, "l", 0, big)
        assert fac.tracker.current != old_total or \
            big.nbytes == old_total - (fac.tracker.current - big.nbytes)

    def test_assemble_rejects_nonsymmetric_pattern(self):
        from repro.sparse.csc import CSCMatrix
        cfg = tiny_blr_config()
        a = laplacian_2d(5)
        symb, ap = setup(a, cfg)
        bad = CSCMatrix.from_coo(a.n, [1], [0], [1.0])
        with pytest.raises(ValueError, match="symmetric"):
            assemble(bad, symb, cfg)

    def test_lu_sides_land_their_own_values(self):
        """A matrix whose values are not symmetric: L's panels hold A's
        lower part and Uᵗ's hold its upper part, from one landing index."""
        from repro.sparse.generators import convection_diffusion_3d

        cfg = tiny_blr_config(strategy="dense", factotype="lu")
        a = convection_diffusion_3d(4, peclet=0.6)
        symb, ap = setup(a, cfg)
        fac = assemble_filled(ap, symb, cfg)
        d = ap.to_dense()
        assert not np.array_equal(d, d.T)
        np.testing.assert_array_equal(np.tril(reconstruct(fac, a.n, "l")),
                                      np.tril(d))
        np.testing.assert_array_equal(
            np.triu(reconstruct(fac, a.n, "u"), 1), np.triu(d, 1))

    def test_assemble_rejects_entries_outside_the_structure(self):
        from repro.sparse.csc import CSCMatrix
        cfg = tiny_blr_config()
        a = laplacian_2d(6)
        symb, ap = setup(a, cfg)
        # a (row, column) pair below a column block that none of its
        # blocks covers, added symmetrically so the pattern stays symmetric
        k, r = next((c.id, r) for c in symb.cblks
                    for r in range(c.end_col, a.n)
                    if r not in set(symb.off_rows[c.id].tolist()))
        c = symb.cblks[k].first_col
        dense = ap.to_dense()
        dense[r, c] = dense[c, r] = 1.0
        with pytest.raises(AssertionError, match="outside the symbolic"):
            assemble(CSCMatrix.from_dense(dense), symb, cfg)

    def test_dense_factor_nbytes_counts_both_sides_for_lu(self):
        cfg = tiny_blr_config(strategy="dense", factotype="lu")
        a = laplacian_2d(5)
        symb, ap = setup(a, cfg)
        fac = assemble_filled(ap, symb, cfg)
        total_off = sum(b.nrows * c.ncols
                        for c in symb.cblks for b in c.off_blocks())
        total_diag = sum(c.ncols ** 2 for c in symb.cblks)
        assert fac.dense_factor_nbytes() == (total_diag + 2 * total_off) * 8

    @pytest.mark.parametrize("strategy", ["dense", "just-in-time",
                                          "minimal-memory"])
    @pytest.mark.parametrize("factotype", ["lu", "cholesky", "ldlt"])
    def test_dense_factor_nbytes_is_the_symbolic_sum(self, factotype,
                                                     strategy):
        """Read off the stored row counts, as a walk over every symbolic
        block gives it (the zoo's stretched lap3d)."""
        cfg = tiny_blr_config(strategy=strategy, factotype=factotype)
        symb, ap = setup({c.name: c for c in zoo()}["stretched"].build(), cfg)
        sides = 2 if factotype == "lu" else 1
        want = sum(c.ncols * (c.ncols + sides * sum(
            b.nrows for b in c.off_blocks())) for c in symb.cblks) * 8
        assert assemble(ap, symb, cfg).dense_factor_nbytes() == want


def _root(arr):
    """The array whose buffer ``arr`` views (``arr`` itself if it owns it)."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


class TestFinishedFactorHoldsOnlyItsFactor:
    """Once the engine has run, the factor pins nothing but its blocks: no
    view keeps a larger parent buffer alive, and the permuted matrix the
    tasks scattered from is released."""

    @pytest.mark.parametrize("strategy", ["just-in-time", "minimal-memory"])
    def test_held_base_bytes_equal_factor_bytes(self, strategy):
        s = Solver(laplacian_3d(8),
                   tiny_blr_config(strategy=strategy, tolerance=1e-4))
        s.factorize()
        fac = s.factor
        arrays = []
        for nc in fac.cblks:
            arrays += [p for p in (nc.diag, nc.lpanel, nc.upanel)
                       if p is not None]
            for blocks in (nc.lblocks, nc.ublocks):
                for b in blocks or ():
                    arrays += ([b.u, b.v] if isinstance(b, LowRankBlock)
                               else [b])
        assert any(isinstance(b, LowRankBlock)
                   for nc in fac.cblks for b in nc.lblocks or ())
        roots = {id(r): r for r in map(_root, arrays)}
        assert sum(r.nbytes for r in roots.values()) == fac.factor_nbytes()

    @pytest.mark.parametrize("strategy", ["just-in-time", "minimal-memory"])
    def test_no_csc_reachable(self, strategy):
        import gc
        import types

        from repro.sparse.csc import CSCMatrix

        s = Solver(laplacian_3d(8),
                   tiny_blr_config(strategy=strategy, tolerance=1e-4))
        s.factorize()
        assert s.factor.entries is None
        seen, stack = set(), [s.factor]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(
                    obj, (type, types.ModuleType, types.FunctionType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, CSCMatrix)
            stack.extend(gc.get_referents(obj))


class TestStoredPiecesAndCensus:
    """``NumericColumnBlock.stored()`` is the one walk over a column
    block's stored pieces, and ``NumericFactor.census()`` counts the
    factor through it."""

    @pytest.mark.parametrize("factotype", ["lu", "cholesky"])
    def test_stored_yields_each_piece_once_l_then_u(self, factotype):
        s = Solver(laplacian_3d(8), tiny_blr_config(
            strategy="just-in-time", tolerance=1e-4, factotype=factotype))
        s.factorize()
        modes = set()
        for nc in s.factor.cblks:
            if nc.panel_mode:
                want = [("l", -1, nc.lpanel)] + (
                    [] if nc.upanel is None else [("u", -1, nc.upanel)])
            else:
                want = [("l", i, b) for i, b in enumerate(nc.lblocks)] + [
                    ("u", i, b) for i, b in enumerate(nc.ublocks or ())]
            got = list(nc.stored())
            assert [p[:2] for p in got] == [p[:2] for p in want]
            assert all(g[2] is w[2] for g, w in zip(got, want))
            modes.add(nc.panel_mode)
        assert modes == {True, False}

    @pytest.mark.parametrize("strategy",
                             ["dense", "just-in-time", "minimal-memory"])
    def test_census_total_is_the_tracked_factor(self, strategy):
        s = Solver(laplacian_3d(8),
                   tiny_blr_config(strategy=strategy, tolerance=1e-4))
        s.factorize()
        fac = s.factor
        comp = fac.census()["compression"]
        assert comp["total_nbytes"] == fac.tracker.current
        assert comp["total_nbytes"] == fac.factor_nbytes()
        assert comp["dense_factor_nbytes"] == fac.dense_factor_nbytes()
        assert (comp["n_lowrank_blocks"] > 0) == (strategy != "dense")
