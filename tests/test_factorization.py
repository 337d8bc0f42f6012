"""End-to-end numerical factorization tests across all strategies."""

import numpy as np
import pytest

from repro.core import factorization as F
from repro.core import scheduler as scheduler_module
from repro.core.dense_kernels import flop_scale
from repro.core.scheduler import run_sequential
from repro.core.solver import Solver
from repro.lowrank.block import LowRankBlock
from repro.lowrank.kernels import lr2ge_update, lr_product
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import (
    convection_diffusion_3d,
    elasticity_3d,
    helmholtz_3d,
    heterogeneous_poisson_3d,
    laplacian_2d,
    laplacian_3d,
    random_spd,
)
from repro.sparse.permute import permute_symmetric
from tests import pins
from tests.conftest import (
    assemble_filled,
    hermitian_congruence,
    tiny_blr_config,
)
from tests.pins import factor_digest
from tests.test_symbolic import find_blocks

STRATEGIES = ["dense", "just-in-time", "minimal-memory"]
KERNELS = ["rrqr", "svd"]


def solve_and_check(a, cfg, rtol, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    b = rng.standard_normal(a.n)
    s = Solver(a, cfg)
    stats = s.factorize()
    x = s.solve(b)
    err = s.backward_error(x, b)
    assert err <= rtol, f"backward error {err:.2e} above {rtol:.0e}"
    return s, stats


class TestDenseStrategy:
    @pytest.mark.parametrize("ordering", ["nested-dissection", "amd",
                                          "natural"])
    def test_machine_precision(self, ordering):
        a = laplacian_3d(5)
        cfg = tiny_blr_config(strategy="dense", ordering=ordering)
        solve_and_check(a, cfg, 1e-12)

    def test_all_small_matrices(self, small_matrix):
        cfg = tiny_blr_config(strategy="dense")
        solve_and_check(small_matrix, cfg, 1e-10)

    def test_stats_have_no_lr_categories(self):
        a = laplacian_2d(6)
        cfg = tiny_blr_config(strategy="dense")
        _, stats = solve_and_check(a, cfg, 1e-12)
        assert stats.kernels.flop("lr_addition") == 0
        assert stats.kernels.flop("compress") == 0
        assert stats.kernels.flop("dense_update") > 0


@pytest.mark.parametrize("strategy", ["just-in-time", "minimal-memory"])
@pytest.mark.parametrize("kernel", KERNELS)
class TestBlrStrategies:
    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    def test_backward_error_tracks_tolerance(self, strategy, kernel, tol):
        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy=strategy, kernel=kernel, tolerance=tol)
        # BLR accumulates compression error over updates: allow 100x headroom
        solve_and_check(a, cfg, tol * 100)

    def test_compression_happens(self, strategy, kernel):
        a = laplacian_3d(8)
        cfg = tiny_blr_config(strategy=strategy, kernel=kernel,
                              tolerance=1e-4)
        _, stats = solve_and_check(a, cfg, 1e-2)
        assert stats.nblocks_compressed > 0
        assert stats.kernels.flop("compress") > 0

    def test_memory_ratio_below_one(self, strategy, kernel):
        a = laplacian_3d(8)
        cfg = tiny_blr_config(strategy=strategy, kernel=kernel,
                              tolerance=1e-4)
        _, stats = solve_and_check(a, cfg, 1e-2)
        assert stats.memory_ratio < 1.0

    def test_nonsymmetric_matrix(self, strategy, kernel):
        a = convection_diffusion_3d(5, peclet=0.6)
        cfg = tiny_blr_config(strategy=strategy, kernel=kernel,
                              tolerance=1e-8)
        solve_and_check(a, cfg, 1e-5)


def max_column_block_nbytes(fac):
    """Bytes of the largest column block stored dense (diagonal block plus
    every side's off-diagonal rows)."""
    return max((c.ncols ** 2 + fac.sides * c.ncols
                * sum(b.nrows for b in c.off_blocks())) * fac.dtype.itemsize
               for c in fac.symb.cblks)


class TestStrategySpecificBehaviour:
    def test_jit_peak_is_its_factor_plus_one_column_block(self):
        """§4.3's proposal, which every task now follows: a column block is
        allocated dense only when its task starts, so JIT's tracked peak
        is its compressed factor plus one dense column block in flight —
        not the dense structure, which exceeds that bound here (539 840 B
        against 505 704 + 24 416)."""
        s, stats = solve_and_check(laplacian_3d(10), tiny_blr_config(
            strategy="just-in-time", tolerance=1e-4), 1e-2)
        assert stats.factor_nbytes < stats.dense_factor_nbytes
        assert stats.peak_nbytes <= (stats.factor_nbytes
                                     + max_column_block_nbytes(s.factor))

    def test_mm_peak_is_its_factor(self):
        """Figure 7's claim: Minimal Memory never charges a dense block it
        does not keep, so its tracked peak is its factor bytes."""
        _, stats = solve_and_check(laplacian_3d(8), tiny_blr_config(
            strategy="minimal-memory", tolerance=1e-4), 1e-2)
        assert stats.peak_nbytes == stats.factor_nbytes

    def test_jit_peak_equals_dense_peak(self):
        """Where nothing compresses (5³ at τ = 1e-8) JIT stores the dense
        factor, so its peak is the dense solver's."""
        a = laplacian_3d(5)
        peaks = {}
        for strategy in ("dense", "just-in-time"):
            cfg = tiny_blr_config(strategy=strategy, tolerance=1e-8)
            _, stats = solve_and_check(a, cfg, 1e-4)
            peaks[strategy] = stats.peak_nbytes
        assert peaks["just-in-time"] == pytest.approx(peaks["dense"],
                                                      rel=0.01)

    def test_mm_lr_addition_flops_dominate(self):
        """Table 2: LR addition is the dominant cost of Minimal Memory and
        absent from Just-In-Time.  (8³: on 6³ every extend-add overflows
        the rank cap at its scratch compression, before any LR addition.)"""
        a = laplacian_3d(8)
        cfg_mm = tiny_blr_config(strategy="minimal-memory", tolerance=1e-8)
        _, st_mm = solve_and_check(a, cfg_mm, 1e-4)
        cfg_jit = tiny_blr_config(strategy="just-in-time", tolerance=1e-8)
        _, st_jit = solve_and_check(a, cfg_jit, 1e-4)
        assert st_mm.kernels.flop("lr_addition") > 0
        assert st_jit.kernels.flop("lr_addition") == 0

    def test_tolerance_monotone_memory(self):
        """Figure 6: smaller tolerance => larger ranks => more memory."""
        a = laplacian_3d(8)
        ratios = []
        for tol in (1e-2, 1e-6, 1e-10):
            cfg = tiny_blr_config(strategy="minimal-memory", tolerance=tol)
            _, stats = solve_and_check(a, cfg, max(tol * 100, 1e-8))
            ratios.append(stats.memory_ratio)
        assert ratios[0] <= ratios[1] <= ratios[2] + 0.02


class TestCholesky:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_spd_matrices(self, strategy):
        a = laplacian_3d(5)
        cfg = tiny_blr_config(strategy=strategy, factotype="cholesky",
                              tolerance=1e-8)
        solve_and_check(a, cfg, 1e-4)

    def test_elasticity(self):
        a = elasticity_3d(3)
        cfg = tiny_blr_config(strategy="dense", factotype="cholesky")
        solve_and_check(a, cfg, 1e-10)

    def test_heterogeneous(self):
        a = heterogeneous_poisson_3d(5, contrast=1e4)
        cfg = tiny_blr_config(strategy="minimal-memory",
                              factotype="cholesky", tolerance=1e-10)
        solve_and_check(a, cfg, 1e-5)

    def test_rejects_nonsymmetric(self):
        a = convection_diffusion_3d(4, peclet=0.5)
        cfg = tiny_blr_config(factotype="cholesky")
        with pytest.raises(ValueError, match="symmetric"):
            Solver(a, cfg)

    def test_cholesky_stores_single_side(self):
        a = laplacian_2d(6)
        lu_stats = solve_and_check(
            a, tiny_blr_config(strategy="dense", factotype="lu"), 1e-10)[1]
        ch_stats = solve_and_check(
            a, tiny_blr_config(strategy="dense", factotype="cholesky"),
            1e-10)[1]
        assert ch_stats.factor_nbytes < lu_stats.factor_nbytes


class TestStaticPivoting:
    def test_near_singular_diagonal_is_perturbed(self):
        """A zero diagonal entry inside a supernode triggers static
        pivoting rather than a crash."""
        a = random_spd(40, density=0.15, seed=6)
        # zero out one diagonal entry to force a small pivot
        d = a.to_dense()
        d[17, 17] = 0.0
        from repro.sparse.csc import CSCMatrix
        bad = CSCMatrix.from_dense(d)
        cfg = tiny_blr_config(strategy="dense")
        s = Solver(bad, cfg)
        s.factorize()
        assert np.isfinite(s.factor.cblks[0].diag).all()


class TestMultipleRHS:
    def test_block_solve(self):
        a = laplacian_3d(4)
        cfg = tiny_blr_config(strategy="dense")
        s = Solver(a, cfg)
        s.factorize()
        rng = np.random.default_rng(3)
        b = rng.standard_normal((a.n, 4))
        x = s.solve(b)
        assert x.shape == (a.n, 4)
        res = np.linalg.norm(a.matvec(x) - b) / np.linalg.norm(b)
        assert res <= 1e-10


# ----------------------------------------------------------------------
# the engine ≡ the per-pair update loop it replaced
# ----------------------------------------------------------------------
#
# The reference below is the update loop as it stood before the landing
# map, written against the block accessors alone (``lblock(i)`` /
# ``ublock(i)``), so it does not depend on how a column block lays its
# blocks out: per facing block and side, one product of the dense rows
# below it, and ``lr_product`` for every pair that holds a low-rank block;
# every product lands by one ``_scatter`` call per (source block, facing
# block, side) that locates the target blocks through ``find_blocks``.  A
# Dense run makes the same products from the same operands when every
# visit has one facing block and must then match bit for bit; otherwise a
# run batches what the reference multiplies per facing block and must
# match to rounding, block for block, with the same ranks.  Both must
# charge the same flops and call ``lr_product`` for the same pairs.

def _slice_rows(contrib, lo, hi):
    if isinstance(contrib, LowRankBlock):
        if lo == 0 and hi == contrib.m:
            return contrib
        return LowRankBlock(contrib.u[lo:hi], contrib.v)
    return contrib[lo:hi]


def _scatter(fac, t, rlo, rhi, clo, chi, contrib, side, acc):
    if contrib is None:
        return
    tnc = fac.cblks[t]
    tsym = tnc.sym
    stats = fac.stats.kernels
    coff = clo - tsym.first_col
    if rlo < tsym.end_col:
        rloc = rlo - tsym.first_col
        if side == "l":
            lr2ge_update(tnc.diag, contrib, rloc, coff, stats)
        elif isinstance(contrib, LowRankBlock):
            lr2ge_update(tnc.diag, LowRankBlock(contrib.v, contrib.u), coff,
                         rloc, stats)
        else:
            lr2ge_update(tnc.diag, contrib.T, coff, rloc, stats)
        return
    for bidx, olo, ohi in find_blocks(fac.symb, t, rlo, rhi):
        assert bidx > 0
        i = bidx - 1
        piece = _slice_rows(contrib, olo - rlo, ohi - rlo)
        block = tsym.blocks[bidx]
        row_off_in_block = olo - block.first_row
        tgt = tnc.block(side, i)
        if not isinstance(tgt, LowRankBlock):  # a view of the panel
            lr2ge_update(tgt, piece, row_off_in_block, coff, stats)
        elif isinstance(piece, LowRankBlock):
            if piece.rank:
                acc.setdefault((side, i), []).append(
                    (piece, row_off_in_block, coff))
        else:
            pend = acc.setdefault((side, i), [])
            if not (pend and isinstance(pend[0][0], np.ndarray)):
                pend.insert(0, (np.zeros((block.nrows, tsym.ncols),
                                         dtype=fac.dtype), 0, 0))
            lr2ge_update(pend[0][0], piece, row_off_in_block, coff, stats)


def reference_visit(fac, k, t, acc):
    """The per-pair update of ``t`` by ``k``: returns ``(seconds, flops,
    gemms)`` of its dense products for the task to charge, as the
    engine's visit (``apply_updates_from``) does."""
    cfg = fac.config
    nc = fac.cblks[k]
    stats = fac.stats.kernels
    sym = nc.sym
    is_lu = fac.sides == 2
    lb = [F._as_dtype(nc.lblock(i), fac.dtype) for i in range(sym.noff)]
    ub = ([F._as_dtype(nc.ublock(i), fac.dtype) for i in range(sym.noff)]
          if is_lu else None)

    def lowrank(b):
        return isinstance(b, LowRankBlock)

    def dense_rows(blocks, start, op):
        """One product of the dense blocks ``start:`` against ``op``, cut
        back into blocks: ``{i: rows}``."""
        dense = [i for i in range(start, sym.noff) if not lowrank(blocks[i])]
        if not dense or lowrank(op):
            return {}, 0.0
        w = np.vstack([blocks[i] for i in dense]) @ op.T
        cut = np.cumsum([0] + [blocks[i].shape[0] for i in dense])
        return ({i: w[cut[n]:cut[n + 1]] for n, i in enumerate(dense)},
                2.0 * w.shape[0] * op.shape[0] * nc.width)

    first, end = fac.symb.facing_ranges(sym.id)[t]
    flops, gemms = 0.0, 0
    for j in range(first, end):
        bj = sym.blocks[1 + j]
        ub_j = F._update_operand(fac, nc, lb[j], ub[j] if is_lu else None)
        w_l, fl = dense_rows(lb, j, ub_j)
        w_u, fl_u = dense_rows(ub, j + 1, lb[j]) if is_lu else ({}, 0.0)
        flops += (fl + fl_u) * flop_scale(fac.dtype)
        gemms += bool(w_l) + bool(w_u)
        for i in range(j, sym.noff):
            bi = sym.blocks[1 + i]
            contrib = w_l[i] if i in w_l else lr_product(
                lb[i], ub_j, fac.comp_tol, cfg.kernel, stats,
                norm_ref=fac.comp_norm_ref)
            _scatter(fac, t, bi.first_row, bi.end_row, bj.first_row,
                     bj.end_row, contrib, "l", acc)
            if is_lu and i > j:
                contrib_u = w_u[i] if i in w_u else lr_product(
                    ub[i], lb[j], fac.comp_tol, cfg.kernel, stats,
                    norm_ref=fac.comp_norm_ref)
                _scatter(fac, t, bi.first_row, bi.end_row, bj.first_row,
                         bj.end_row, contrib_u, "u", acc)
    # the scatters charge their subtractions themselves
    return 0.0, flops, gemms


#: what "to rounding" means per compute dtype (tests/test_backend_conformance)
RTOL = {"float32": 5e-5, "float64": 1e-12, "complex128": 1e-12}


def assert_same_factor(fac, ref, exact, growth=1.0):
    """Block for block: bit-identical when ``exact``, else equal ranks and
    values within ``RTOL`` of the factor's largest entry (low-rank blocks
    compared through ``to_dense``), times the element ``growth`` of a
    pivoted elimination, which amplifies rounding differences alike."""
    scale = max(np.abs(nc.diag).max() for nc in ref.cblks)
    tol = RTOL[fac.dtype.name] * scale * growth
    for nc, rc in zip(fac.cblks, ref.cblks):
        pairs = [(nc.diag, rc.diag)]
        for i in range(nc.sym.noff):
            pairs.append((nc.lblock(i), rc.lblock(i)))
            if fac.sides == 2:
                pairs.append((nc.ublock(i), rc.ublock(i)))
        for g, w in pairs:
            assert type(g) is type(w) and g.dtype == w.dtype
            if isinstance(g, LowRankBlock):
                assert g.rank == w.rank
                g, w = g.to_dense(), w.to_dense()
            if exact:
                assert np.array_equal(g, w)
            else:
                np.testing.assert_allclose(g, w, rtol=0, atol=tol)


def update_flops(kernels):
    """The flops dict with the two update categories folded into one: a
    dense×dense product is charged to ``dense_update`` on a panel and to
    ``lr_product`` pair by pair."""
    flops = dict(kernels.flops)
    flops["update"] = flops.pop("lr_product", 0) + flops.pop("dense_update", 0)
    return flops


LANDING_CASES = {
    "lu": (lambda: convection_diffusion_3d(6), dict(factotype="lu")),
    "lu-float32": (lambda: laplacian_3d(6),
                   dict(factotype="lu", dtype="float32")),
    # at τ = 1e-2 most column blocks that compress are stored in float32,
    # and a visit promotes the rows it multiplies; kept panels stay wide
    "lu-float32-storage": (lambda: laplacian_3d(8),
                           dict(factotype="lu", tolerance=1e-2)),
    "cholesky": (lambda: laplacian_3d(6), dict(factotype="cholesky")),
    "ldlt-threshold": (lambda: helmholtz_3d(9, wavenumber=3.0),
                       dict(factotype="ldlt", pivoting="threshold")),
    "cholesky-hermitian": (lambda: hermitian_congruence(laplacian_3d(6)),
                           dict(factotype="cholesky")),
    "ldlh-hermitian": (lambda: hermitian_congruence(laplacian_3d(6)),
                       dict(factotype="ldlt", pivoting="threshold")),
}


def landing_shapes(symb):
    """What the visits of a structure exercise: how many have several
    facing blocks, a non-contiguous ``drow`` (indexed landing in the
    diagonal block), and a contiguous / non-contiguous ``pos`` (slice /
    indexed landing below it)."""
    shapes = dict(multi=0, drow_gap=0, pos_run=0, pos_gap=0)
    for k in range(symb.ncblk):
        for t, (first, end) in symb.facing_ranges(k).items():
            drow, pos = symb.landing_map(k, t, first, end)
            shapes["multi"] += end - first > 1
            shapes["drow_gap"] += drow[-1] - drow[0] != len(drow) - 1
            if len(pos):
                gap = pos[-1] - pos[0] != len(pos) - 1
                shapes["pos_gap" if gap else "pos_run"] += 1
    return shapes


#: every column block with an off-diagonal block holds a low-rank
#: candidate, so no bottom subtree passes its updates up as contribution
#: blocks (``SymbolicFactor.subtree_plan``, held against this path in
#: tests/test_subtrees.py): the engine visits every (source, target) pair
FAN_IN = dict(compress_min_width=1, compress_min_height=1)


def assert_fan_in_throughout(symb):
    plan = symb.subtree_plan()
    assert not any(symb.cblks[k].noff for k in np.flatnonzero(plan.root >= 0))


class TestBatchedLandingMatchesPerPairScatter:
    def both(self, monkeypatch, a, **cfg):
        """Flops equal to the per-pair reference *exactly*, always.  Factors
        bit-identical for Dense when every visited pair has one facing
        block (the engine then issues the reference's very GEMMs); with
        several, one product spans them all — another column count, and
        swapped operand roles for the upper triangle — so Dense agrees to
        rounding there, as BLR (whose dense products the reference makes
        pair by pair) always did."""
        cfg = {**FAN_IN, **cfg}
        s = Solver(a, tiny_blr_config(**cfg))
        s.factorize()
        assert_fan_in_throughout(s.symbolic)
        with monkeypatch.context() as m:
            m.setattr(scheduler_module, "apply_updates_from",
                      reference_visit)
            ref = Solver(a, tiny_blr_config(**cfg))
            ref.factorize()
        assert_same_factor(
            s.factor, ref.factor,
            exact=(cfg["strategy"] == "dense"
                   and not landing_shapes(s.symbolic)["multi"]))
        k, kr = s.factor.stats.kernels, ref.factor.stats.kernels
        flops, want = update_flops(k), update_flops(kr)
        if s.factor.dtype.kind == "c" and cfg["strategy"] != "dense":
            # repro.lowrank charges real-arithmetic flops whatever the
            # dtype; the panel path scales by 4 for complex like every
            # dense kernel, so the update charge legitimately differs
            del flops["update"], want["update"]
        assert flops == want
        assert k.call_count("lr_product") == kr.call_count("lr_product")
        return s, ref

    @pytest.mark.parametrize("case", sorted(LANDING_CASES))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_bit_identical_factors_and_flops(self, monkeypatch, case,
                                             strategy):
        """Flops bit-identical; factors to rounding (see :meth:`both`),
        because every case visits pairs with several facing blocks — which
        leave a gap, so the diagonal block is landed through an index array
        — and lands below it both through a slice and an index array."""
        build, cfg = LANDING_CASES[case]
        s, ref = self.both(monkeypatch, build(), strategy=strategy,
                           **{"tolerance": 1e-6, **cfg})
        assert all(landing_shapes(s.symbolic).values())
        if cfg.get("pivoting") == "threshold" and "hermitian" not in case:
            assert s.factor.pivots_2x2 > 0
        k, kr = s.factor.stats.kernels, ref.factor.stats.kernels
        if strategy == "dense":
            # one charge per visit where the reference charged every
            # (i, j, side) scatter
            assert k.call_count("dense_update") == sum(
                len(s.symbolic.facing_ranges(c))
                for c in range(s.symbolic.ncblk))
            assert (k.call_count("dense_update")
                    < kr.call_count("dense_update"))
        else:
            assert k.call_count("lr_product") > 0

    @pytest.mark.parametrize("cfg", [
        dict(factotype="lu"), dict(factotype="cholesky"),
        dict(factotype="ldlt"), dict(factotype="lu", dtype="float32")],
        ids=lambda c: "-".join(map(str, c.values())))
    def test_one_facing_block_per_pair_is_bit_identical(self, monkeypatch,
                                                        cfg):
        """A 2-D grid's separators are paths: no pair of column blocks has
        more than one facing block, and the rows below still land through
        both the slice and the index array."""
        s, _ = self.both(monkeypatch, laplacian_2d(8), strategy="dense",
                         **cfg)
        shapes = landing_shapes(s.symbolic)
        assert not shapes["multi"] and not shapes["drow_gap"]
        assert shapes["pos_run"] and shapes["pos_gap"]

    @pytest.mark.parametrize("factotype", ["lu", "cholesky", "ldlt"])
    def test_solution_matches_splu(self, factotype):
        """The independent oracle for the visits no reference shares bits
        with: a structure full of multi-facing-block visits, solved."""
        import scipy.sparse.linalg as spla

        a = laplacian_3d(7)
        s = Solver(a, tiny_blr_config(strategy="dense", factotype=factotype))
        s.factorize()
        assert landing_shapes(s.symbolic)["multi"]
        b = np.random.default_rng(3).standard_normal(a.n)
        x, want = s.solve(b), spla.splu(a.to_scipy().tocsc()).solve(b)
        assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("strategy", ["just-in-time", "minimal-memory"])
    @pytest.mark.parametrize("factotype", ["lu", "cholesky"])
    def test_mixed_precision_storage(self, monkeypatch, strategy, factotype):
        """The per-pair reference narrows the same column blocks: a
        column block where nothing compressed stays float64, one that
        compressed is stored in one dtype, float32 for most at τ = 1e-2."""
        s, ref = self.both(monkeypatch, laplacian_3d(8), strategy=strategy,
                           factotype=factotype, tolerance=1e-2)
        assert s.factor.storage_dtype == np.float32
        kept = {nc.lpanel.dtype for nc in s.factor.cblks
                if not nc.llowrank and nc.offrows}
        split = [{nc.lblock(i).dtype for i in range(nc.sym.noff)}
                 for nc in s.factor.cblks if nc.llowrank]
        assert kept == {np.dtype(np.float64)}
        assert all(len(dts) == 1 for dts in split)
        assert {np.dtype(np.float32)} in split
        assert s.factor.stats.factor_nbytes == ref.factor.stats.factor_nbytes

    def test_hermitian_2x2_pivots(self, monkeypatch):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        d = m + m.conj().T
        d[np.diag_indices(40)] = 0.0  # forces 2x2 hermitian pivots
        s, _ = self.both(monkeypatch, CSCMatrix.from_dense(d),
                         strategy="dense", factotype="ldlt",
                         pivoting="threshold", split_size=8, split_min=4)
        assert s.factor.pivots_2x2 > 0 and s.symbolic.ncblk > 1

    def test_kept_panels_and_split_column_blocks_face_each_other(
            self, monkeypatch):
        """Minimal Memory compresses as each task fills its column block:
        a column block holding a low-rank block must update one where
        nothing compressed, and the other way round."""
        s, _ = self.both(monkeypatch, laplacian_3d(8),
                         strategy="minimal-memory", tolerance=1e-4,
                         factotype="lu")
        cblks, symb = s.factor.cblks, s.symbolic
        pairs = {(bool(cblks[k].llowrank), bool(cblks[t].llowrank))
                 for k in range(symb.ncblk) for t in symb.facing_ranges(k)}
        assert {(True, False), (False, True)} <= pairs


def lowrank_pairs(fac):
    """The facing pairs whose product holds a low-rank block, read from the
    structure and from which blocks the factor holds low-rank: per visit of
    a target through blocks ``first:end``, the L side's pairs ``(i, j)``,
    ``i ≥ j``, with ``L(i)`` or ``op(L(j))`` low-rank, and for LU the Uᵗ
    side's ``i > j`` with ``Uᵗ(i)`` or ``L(j)`` low-rank."""
    symb, n = fac.symb, 0
    for nc in fac.cblks:
        lr_l = set(nc.llowrank)
        lr_u = set(nc.ulowrank) if fac.sides == 2 else lr_l
        for first, end in symb.facing_ranges(nc.sym.id).values():
            for j in range(first, end):
                for i in range(j, nc.sym.noff):
                    n += i in lr_l or j in lr_u
                    n += fac.sides == 2 and i > j and (i in lr_u or j in lr_l)
    return n


class TestOnlyLowRankPairsMultiplyPairByPair:
    """A source's dense rows update through its panel, whatever it holds
    beside it: ``lr_product`` runs once per facing pair that holds a
    low-rank block and never for a dense × dense pair."""

    @pytest.mark.parametrize("strategy", ["just-in-time", "minimal-memory"])
    @pytest.mark.parametrize("factotype", ["lu", "cholesky"])
    def test_lr_product_calls_are_the_lowrank_pairs(self, strategy,
                                                    factotype):
        s = Solver(laplacian_3d(8), tiny_blr_config(
            strategy=strategy, factotype=factotype, tolerance=1e-4))
        stats = s.factorize()
        fac = s.factor
        census = fac.census()
        # lr_product charges nothing for a rank-0 operand: none is held
        assert census["compression"]["n_lowrank_blocks"] > 0
        assert "0" not in census["rank_histogram"]
        assert census["lowrank_blocks"]["l"] == sum(
            len(nc.llowrank) for nc in fac.cblks)
        pairs = lowrank_pairs(fac)
        assert 0 < pairs == stats.kernels.call_count("lr_product")
        # and some source multiplies dense rows beside its low-rank blocks
        assert any(nc.llowrank and len(nc.lpanel) for nc in fac.cblks)


class TestEnginesLandIdentically:
    CONFIGS = {"dense": dict(strategy="dense"),
               "jit": dict(strategy="just-in-time"),
               "mm": dict(strategy="minimal-memory")}

    def factor(self, name):
        s = Solver(laplacian_3d(8), tiny_blr_config(
            tolerance=1e-4, **FAN_IN, **self.CONFIGS[name]))
        s.factorize()
        assert_fan_in_throughout(s.symbolic)
        return s.factor

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_left_looking_matches_sequential(self, name):
        """A task allocates (and, under MM, compresses) its target when it
        starts, right before the landings into it.  Every column block
        filled up front instead — an eager assembly — gives the same
        bits: nothing lands in a column block before its own task."""
        s = Solver(laplacian_3d(8), tiny_blr_config(
            tolerance=1e-4, **FAN_IN, **self.CONFIGS[name]))
        symb = s.analyze()
        eager = assemble_filled(permute_symmetric(s._a_sym, s.perm), symb,
                                s.config)
        run_sequential(eager)
        assert factor_digest(eager) == factor_digest(self.factor(name))

    @pytest.mark.parametrize("name", ["jit", "mm"])
    def test_peak_bound(self, name):
        """A task allocates its column block when it starts, so at most one
        column block is in flight beside the factored prefix: the tracked
        peak is at most the factor plus the largest dense column block."""
        fac = self.factor(name)
        assert fac.tracker.peak <= (fac.factor_nbytes()
                                    + max_column_block_nbytes(fac))


class TestChargesPinned:
    """Per-category calls and flops and the backend's op counts of one
    factorization (``charges/…`` in ``tests/golden/pins.json``), exactly:
    a fan-in task charges its visits' dense products in one sum, and each
    pair that holds a low-rank block charges its own kernels."""

    @pytest.mark.parametrize("key", pins.cases("charges"))
    def test_calls_flops_and_backend_counts(self, key):
        pins.check(key)
