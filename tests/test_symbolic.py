"""Tests for the symbolic block factorization."""

import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sparse.generators import (
    convection_diffusion_3d,
    laplacian_2d,
    laplacian_3d,
)
from repro.sparse.permute import is_permutation, permute_symmetric
from repro.symbolic.factorization import SymbolicOptions, symbolic_factorization
from repro.symbolic.structure import (
    SymbolicBlock,
    SymbolicColumnBlock,
    SymbolicFactor,
)

from tests.pins import MATRICES, SETTINGS

OPTS = SymbolicOptions(cmin=8, split_size=32, split_min=16,
                       compress_min_width=12, compress_min_height=4)


def coverage_mask(symb, n):
    cov = np.zeros((n, n), dtype=bool)
    for cb in symb.cblks:
        for b in cb.blocks:
            cov[b.first_row:b.end_row, cb.first_col:cb.end_col] = True
    return cov


def fill_pattern(ap):
    d = (ap.to_dense() != 0)
    for k in range(ap.n):
        nz = np.flatnonzero(d[k + 1:, k]) + k + 1
        for i in nz:
            d[i, nz] = True
            d[nz, i] = True
    return d


class TestPipeline:
    @pytest.mark.parametrize("ordering", ["nested-dissection", "amd", "natural"])
    def test_covers_fill_for_all_orderings(self, ordering):
        a = laplacian_2d(6)
        opts = SymbolicOptions(cmin=6, split_size=16, split_min=8,
                               ordering=ordering)
        symb, perm = symbolic_factorization(a, opts)
        assert is_permutation(perm, a.n)
        ap = permute_symmetric(a, perm)
        fill = fill_pattern(ap)
        cov = coverage_mask(symb, a.n)
        # L coverage: every below-diagonal fill entry inside a block
        lower = np.tril(fill, -1)
        assert np.all(cov[lower]), "symbolic structure misses fill"

    def test_covers_fill_nonsymmetric(self):
        a = convection_diffusion_3d(4)
        symb, perm = symbolic_factorization(a, OPTS)
        ap = permute_symmetric(a.symmetrize_pattern(), perm)
        fill = fill_pattern(ap)
        cov = coverage_mask(symb, a.n)
        assert np.all(cov[np.tril(fill, -1)])

    def test_blocks_face_correct_cblk(self):
        a = laplacian_3d(4)
        symb, _ = symbolic_factorization(a, OPTS)
        for cb in symb.cblks:
            for b in cb.off_blocks():
                f = symb.cblks[b.facing]
                assert f.first_col <= b.first_row
                assert b.end_row <= f.end_col

    def test_lr_candidates_respect_thresholds(self):
        a = laplacian_3d(6)
        symb, _ = symbolic_factorization(a, OPTS)
        for cb in symb.cblks:
            for b in cb.off_blocks():
                if b.lr_candidate:
                    assert cb.ncols >= OPTS.compress_min_width
                    assert b.nrows >= OPTS.compress_min_height

    def test_split_size_respected(self):
        a = laplacian_3d(6)
        symb, _ = symbolic_factorization(a, OPTS)
        assert max(c.ncols for c in symb.cblks) <= OPTS.split_size

    def test_tiles_of_same_snode_share_offdiag_rows(self):
        a = laplacian_3d(6)
        symb, _ = symbolic_factorization(a, OPTS)
        by_snode = {}
        for cb in symb.cblks:
            by_snode.setdefault(cb.snode, []).append(cb)
        for snode, cbs in by_snode.items():
            if len(cbs) < 2:
                continue
            last_end = cbs[-1].end_col
            ext = [tuple((b.first_row, b.nrows) for b in cb.off_blocks()
                         if b.first_row >= last_end) for cb in cbs]
            assert all(e == ext[0] for e in ext)

    def test_reordering_does_not_change_coverage(self):
        a = laplacian_2d(7)
        s1, p1 = symbolic_factorization(
            a, SymbolicOptions(cmin=6, reorder_supernodes=False))
        s2, p2 = symbolic_factorization(
            a, SymbolicOptions(cmin=6, reorder_supernodes=True))
        for symb, perm in ((s1, p1), (s2, p2)):
            ap = permute_symmetric(a, perm)
            fill = fill_pattern(ap)
            assert np.all(coverage_mask(symb, a.n)[np.tril(fill, -1)])

    def test_reordering_not_worse_on_block_count(self):
        a = laplacian_3d(6)
        s_off = symbolic_factorization(
            a, SymbolicOptions(cmin=15, reorder_supernodes=False))[0]
        s_on = symbolic_factorization(
            a, SymbolicOptions(cmin=15, reorder_supernodes=True))[0]
        assert s_on.total_off_blocks() <= 1.2 * s_off.total_off_blocks()


class TestStructureValidation:
    def _diag(self, fc, w):
        return SymbolicBlock(fc, w, facing=0)

    def test_rejects_gap_in_columns(self):
        cb0 = SymbolicColumnBlock(0, 0, 2, 0, [self._diag(0, 2)])
        cb1 = SymbolicColumnBlock(1, 3, 1, 1,
                                  [SymbolicBlock(3, 1, facing=1)])
        with pytest.raises(ValueError, match="tile"):
            SymbolicFactor(4, [cb0, cb1])

    def test_rejects_bad_diag(self):
        cb = SymbolicColumnBlock(0, 0, 2, 0, [SymbolicBlock(1, 2, facing=0)])
        with pytest.raises(ValueError, match="diagonal"):
            SymbolicFactor(2, [cb])

    def test_rejects_overlapping_blocks(self):
        cb = SymbolicColumnBlock(0, 0, 1, 0, [
            SymbolicBlock(0, 1, facing=0),
            SymbolicBlock(1, 2, facing=1),
            SymbolicBlock(2, 2, facing=1),
        ])
        cb1 = SymbolicColumnBlock(1, 1, 3, 1, [SymbolicBlock(1, 3, facing=1)])
        with pytest.raises(ValueError, match="overlap"):
            SymbolicFactor(4, [cb, cb1])

    def test_rejects_wrong_ids(self):
        cb = SymbolicColumnBlock(3, 0, 2, 0, [self._diag(0, 2)])
        with pytest.raises(ValueError, match="ids"):
            SymbolicFactor(2, [cb])

    def test_rejects_a_block_outside_the_column_block_it_faces(self):
        # rows 1..2 lie in column block 1, not in column block 2 (column
        # 3): its landing in 2's diagonal block would be row -2
        cb0 = SymbolicColumnBlock(0, 0, 1, 0, [
            SymbolicBlock(0, 1, 0), SymbolicBlock(1, 1, 2)])
        cb1 = SymbolicColumnBlock(1, 1, 2, 1, [SymbolicBlock(1, 2, 1)])
        cb2 = SymbolicColumnBlock(2, 3, 1, 2, [SymbolicBlock(3, 1, 2)])
        with pytest.raises(ValueError, match="outside column block 2"):
            SymbolicFactor(4, [cb0, cb1, cb2])

    def test_rejects_a_block_facing_no_column_block(self):
        cb0 = SymbolicColumnBlock(0, 0, 1, 0, [
            SymbolicBlock(0, 1, 0), SymbolicBlock(1, 1, 2)])
        cb1 = SymbolicColumnBlock(1, 1, 1, 1, [SymbolicBlock(1, 1, 1)])
        with pytest.raises(ValueError, match="outside column block 2"):
            SymbolicFactor(2, [cb0, cb1])


class TestLookups:
    @pytest.fixture
    def symb(self):
        a = laplacian_3d(5)
        return symbolic_factorization(a, OPTS)[0]

    def test_cblk_of_col(self, symb):
        for cb in symb.cblks:
            assert symb.cblk_of_col(cb.first_col) == cb.id
            assert symb.cblk_of_col(cb.end_col - 1) == cb.id

    def test_rows_below_the_parent_are_rows_of_the_parent(self, symb):
        """What construction checks, recomputed from the blocks; the
        landing map tests below hold it for every target, not just the
        parent."""
        parent = symb.block_etree()
        for cb in symb.cblks:
            if parent[cb.id] < 0:
                continue
            p = symb.cblks[parent[cb.id]]
            held = {r for b in p.off_blocks() for r in b.rows().tolist()}
            below = [r for b in cb.off_blocks() for r in b.rows().tolist()
                     if r >= p.end_col]
            assert set(below) <= held

    def test_rejects_a_row_the_parent_lacks(self, symb):
        """Drop from a parent one row that a child holds below the
        parent's columns: construction raises, naming the parent."""
        parent = symb.block_etree()
        k = next(k for k, cb in enumerate(symb.cblks) if parent[k] >= 0
                 and cb.blocks[-1].first_row >= symb.cblks[parent[k]].end_col)
        p = int(parent[k])
        row = symb.cblks[k].blocks[-1].first_row
        cblks = copy.deepcopy(symb.cblks)
        blocks = cblks[p].blocks
        i = next(i for i, b in enumerate(blocks)
                 if b.first_row <= row < b.end_row)
        b = blocks[i]
        blocks[i:i + 1] = [
            SymbolicBlock(lo, hi - lo, b.facing)
            for lo, hi in ((b.first_row, row), (row + 1, b.end_row))
            if hi > lo]
        with pytest.raises(AssertionError,
                           match=f"outside the symbolic structure of "
                                 f"column block {p}$"):
            SymbolicFactor(symb.n, cblks)
        SymbolicFactor(symb.n, copy.deepcopy(symb.cblks))

    def test_contributors_consistent_with_facing(self, symb):
        for cb in symb.cblks:
            for b in cb.off_blocks():
                assert cb.id in symb.contributors(b.facing)

    def test_block_etree_parents_are_later(self, symb):
        parent = symb.block_etree()
        for k, p in enumerate(parent):
            assert p == -1 or p > k

    def test_summary_keys(self, symb):
        s = symb.summary()
        for key in ("n", "ncblk", "nnz_blocks", "off_blocks",
                    "lr_candidates", "max_width", "mean_width"):
            assert key in s


# ----------------------------------------------------------------------
# landing map ≡ the per-block lookup it replaced
# ----------------------------------------------------------------------

def find_blocks(symb, t, lo, hi):
    """``SymbolicFactor.find_blocks`` as it stood before the landing map
    replaced it (kept as the reference oracle): yield ``(block_index, olo,
    ohi)`` for the blocks of column block ``t`` overlapping global rows
    ``[lo, hi)``, with the overlap ``[olo, ohi)``."""
    blocks = symb.cblks[t].blocks
    starts = np.array([b.first_row for b in blocks], dtype=np.int64)
    i = int(np.searchsorted(starts, lo, side="right")) - 1
    if i < 0:
        i = 0
    while i < len(blocks):
        b = blocks[i]
        if b.first_row >= hi:
            break
        olo = max(lo, b.first_row)
        ohi = min(hi, b.end_row)
        if olo < ohi:
            yield i, olo, ohi
        i += 1


def reference_landing(symb, k, t):
    """Where the old per-pair scatter put each row of source ``k`` at or
    below its blocks facing ``t``: the local row of ``t``'s diagonal block,
    or the row of ``t``'s stacked panel found through ``find_blocks``."""
    tc = symb.cblks[t]
    offs = np.concatenate(([0], np.cumsum([b.nrows for b in tc.off_blocks()])))
    first, _ = symb.facing_ranges(k)[t]
    drow, pos = [], []
    for b in symb.cblks[k].off_blocks()[first:]:
        if b.first_row < tc.end_col:
            drow.extend(range(b.first_row - tc.first_col,
                              b.end_row - tc.first_col))
            continue
        for bidx, olo, ohi in find_blocks(symb, t, b.first_row, b.end_row):
            assert bidx > 0
            start = offs[bidx - 1] + olo - tc.blocks[bidx].first_row
            pos.extend(range(start, start + ohi - olo))
    return drow, pos


def assert_landing_matches_reference(symb):
    npairs = 0
    for k in range(symb.ncblk):
        for t, (first, end) in symb.facing_ranges(k).items():
            drow, pos = symb.landing_map(k, t, first, end)
            ref_drow, ref_pos = reference_landing(symb, k, t)
            assert drow.tolist() == ref_drow, (k, t)
            assert pos.tolist() == ref_pos, (k, t)
            npairs += 1
    return npairs


def assert_update_entries_match_per_block_loop(symb):
    """The closed-form visit charge against the loop it replaced: one GEMM
    of all rows at or below facing block ``j`` (strictly below for the Uᵗ
    side) per facing block and side, every product entry landed once."""
    npairs = 0
    for k in range(symb.ncblk):
        offs, w = symb.row_offsets[k], symb.cblks[k].ncols
        for t, (first, end) in symb.facing_ranges(k).items():
            for lu in (True, False):
                flops, landed = 0.0, 0
                for j in range(first, end):
                    nj = offs[j + 1] - offs[j]
                    for top in (offs[j], offs[j + 1])[:1 + lu]:
                        flops += 2.0 * (offs[-1] - top) * nj * w
                        landed += (offs[-1] - top) * nj
                facing, below = symb.update_entries(k, first, end, lu)
                computed = facing + (1 + lu) * below
                assert isinstance(computed, int)
                assert (2.0 * w * computed, computed) == (flops, landed), \
                    (k, t, lu)
                assert below == (offs[-1] - offs[end]) * (offs[end]
                                                          - offs[first])
            npairs += 1
    return npairs


ZOO_CASES = [(name, ordering, setting)
             for name in MATRICES if name.startswith("zoo-")
             for ordering in ("nested-dissection", "geometric", "amd")
             for setting in ("tiny-noreorder", "tiny-reorder")]


@st.composite
def source_target_structures(draw):
    """A hand-built three-column-block structure: source 0, target 1 and a
    rest 2 owning every row below.  The target holds a random row set cut
    into blocks at random places (so blocks may touch or leave gaps), the
    source a random subset of it cut independently (so one source block
    may span two target blocks)."""
    w0, w1 = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    tail = draw(st.integers(1, 24))
    base, n = w0 + w1, w0 + w1 + tail

    def chop(rows, facing):
        rows = np.asarray(rows)
        if rows.size == 0:
            return []
        cuts = draw(st.lists(st.booleans(), min_size=rows.size,
                             max_size=rows.size))
        edge = np.flatnonzero((np.diff(rows) > 1) | np.array(cuts[1:], dtype=bool)) + 1
        return [SymbolicBlock(int(r[0]), int(r.size), facing)
                for r in np.split(rows, edge)]

    in_t = np.array(draw(st.lists(st.booleans(), min_size=tail,
                                  max_size=tail)))
    in_s = in_t & np.array(draw(st.lists(st.booleans(), min_size=tail,
                                         max_size=tail)))
    facing_t = np.array(draw(st.lists(st.booleans(), min_size=w1,
                                      max_size=w1)))
    assume(facing_t.any())
    src = SymbolicColumnBlock(0, 0, w0, 0, [
        SymbolicBlock(0, w0, 0),
        *chop(w0 + np.flatnonzero(facing_t), 1),
        *chop(base + np.flatnonzero(in_s), 2)])
    tgt = SymbolicColumnBlock(1, w0, w1, 1, [
        SymbolicBlock(w0, w1, 1), *chop(base + np.flatnonzero(in_t), 2)])
    rest = SymbolicColumnBlock(2, base, tail, 2,
                               [SymbolicBlock(base, tail, 2)])
    return SymbolicFactor(n, [src, tgt, rest])


def zoo_structure(case):
    name, ordering, setting = case
    a, coords = MATRICES[name]()
    assume(ordering != "geometric" or coords is not None)
    opts = SymbolicOptions(**{**SETTINGS[setting].__dict__,
                              "ordering": ordering})
    return symbolic_factorization(a, opts, coords=coords)[0]


class TestLandingMap:
    @settings(max_examples=len(ZOO_CASES), deadline=None)
    @given(st.sampled_from(ZOO_CASES))
    def test_matches_find_blocks_over_the_zoo(self, case):
        symb = zoo_structure(case)
        assert assert_landing_matches_reference(symb) > 0

    @settings(max_examples=300, deadline=None)
    @given(source_target_structures())
    def test_matches_find_blocks_on_built_structures(self, symb):
        assert assert_landing_matches_reference(symb) >= 1

    @settings(max_examples=len(ZOO_CASES), deadline=None)
    @given(st.sampled_from(ZOO_CASES))
    def test_update_entries_match_per_block_loop_over_the_zoo(self, case):
        symb = zoo_structure(case)
        assert assert_update_entries_match_per_block_loop(symb) > 0

    @settings(max_examples=100, deadline=None)
    @given(source_target_structures())
    def test_update_entries_match_per_block_loop_on_built_structures(
            self, symb):
        assert assert_update_entries_match_per_block_loop(symb) >= 1

    def test_source_block_spanning_two_target_blocks_and_a_row_gap(self):
        # target rows 6-8 | 9-10 (touching blocks), gap at 11, then 12-14;
        # source block 8-10 spans the first two, source block 13-14 lands
        # past the gap
        src = SymbolicColumnBlock(0, 0, 2, 0, [
            SymbolicBlock(0, 2, 0), SymbolicBlock(3, 1, 1),
            SymbolicBlock(5, 1, 1), SymbolicBlock(8, 3, 2),
            SymbolicBlock(13, 2, 2)])
        tgt = SymbolicColumnBlock(1, 2, 4, 1, [
            SymbolicBlock(2, 4, 1), SymbolicBlock(6, 3, 2),
            SymbolicBlock(9, 2, 2), SymbolicBlock(12, 3, 2)])
        rest = SymbolicColumnBlock(2, 6, 9, 2, [SymbolicBlock(6, 9, 2)])
        symb = SymbolicFactor(15, [src, tgt, rest])
        drow, pos = symb.landing_map(0, 1, *symb.facing_ranges(0)[1])
        assert drow.tolist() == [1, 3]
        assert pos.tolist() == [2, 3, 4, 6, 7]
        assert assert_landing_matches_reference(symb) == 3

    def test_source_row_missing_from_the_target_raises(self):
        # the target (the source's parent) lacks row 4: caught when the
        # structure is built, before any visit
        src = SymbolicColumnBlock(0, 0, 1, 0, [
            SymbolicBlock(0, 1, 0), SymbolicBlock(1, 1, 1),
            SymbolicBlock(3, 2, 2)])
        tgt = SymbolicColumnBlock(1, 1, 1, 1, [
            SymbolicBlock(1, 1, 1), SymbolicBlock(3, 1, 2)])
        rest = SymbolicColumnBlock(2, 2, 3, 2, [SymbolicBlock(2, 3, 2)])
        with pytest.raises(AssertionError, match="outside the symbolic"):
            SymbolicFactor(5, [src, tgt, rest])
