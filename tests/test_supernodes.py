"""Tests for supernode machinery (quotient symbolic, amalgamation, split)."""

import copy

import numpy as np
import pytest

from repro.ordering.graph import Graph
from repro.ordering.nested_dissection import nested_dissection
from repro.sparse.generators import (
    elasticity_3d,
    laplacian_1d,
    laplacian_2d,
    laplacian_3d,
    random_spd,
)
from repro.sparse.permute import permute_symmetric
from repro.symbolic.supernodes import (
    Supernode,
    amalgamate,
    detect_fundamental_supernodes,
    split_supernodes,
    supernode_row_sets,
)


def dense_fill_pattern(a):
    """Exact no-pivot fill pattern of an already-ordered matrix."""
    d = (a.to_dense() != 0)
    n = a.n
    for k in range(n):
        nz = np.flatnonzero(d[k + 1:, k]) + k + 1
        for i in nz:
            d[i, nz] = True
            d[nz, i] = True
    return d


def nd_snodes(a, cmin=6):
    nd = nested_dissection(Graph.from_matrix(a), cmin=cmin)
    ap = permute_symmetric(a, nd.perm)
    intervals = [(p.start, p.size) for p in nd.partitions]
    return ap, supernode_row_sets(ap, intervals)


class TestRowSets:
    def test_rows_cover_exact_fill(self):
        """The quotient row sets must cover every entry of the true fill
        pattern (dense-diagonal supernodes may add rows, never miss)."""
        a = laplacian_2d(7)
        ap, snodes = nd_snodes(a)
        fill = dense_fill_pattern(ap)
        for s in snodes:
            covered = np.zeros(a.n, dtype=bool)
            covered[s.rows] = True
            for j in range(s.first_col, s.end):
                for i in np.flatnonzero(fill[:, j]):
                    if i >= s.end:
                        assert covered[i], f"row {i} of col {j} missing"

    def test_rows_sorted_and_beyond_supernode(self):
        a = laplacian_3d(4)
        _, snodes = nd_snodes(a)
        for s in snodes:
            assert np.all(np.diff(s.rows) > 0)
            if s.rows.size:
                assert s.rows[0] >= s.end

    def test_parent_owns_first_row(self):
        a = laplacian_2d(6)
        _, snodes = nd_snodes(a)
        for s in snodes:
            if s.rows.size:
                p = snodes[s.parent]
                assert p.first_col <= s.rows[0] < p.end
            else:
                assert s.parent == -1

    def test_rejects_bad_partition(self):
        a = laplacian_1d(5)
        with pytest.raises(ValueError, match="tile"):
            supernode_row_sets(a, [(0, 2), (3, 2)])


class TestAmalgamation:
    def test_zero_frat_is_identity(self):
        a = laplacian_2d(6)
        _, snodes = nd_snodes(a)
        before = [(s.first_col, s.ncols) for s in snodes]
        merged = amalgamate(list(snodes), frat=0.0)
        assert [(s.first_col, s.ncols) for s in merged] == before

    def test_merging_reduces_count(self):
        a = laplacian_3d(5)
        _, snodes = nd_snodes(a, cmin=15)
        merged = amalgamate(snodes, frat=0.08)
        assert len(merged) <= len(snodes)

    def test_merged_partition_still_tiles(self):
        a = laplacian_3d(5)
        _, snodes = nd_snodes(a)
        merged = amalgamate(snodes, frat=0.2)
        pos = 0
        for s in merged:
            assert s.first_col == pos
            pos = s.end
        assert pos == a.n

    def test_merged_rows_still_cover_fill(self):
        a = laplacian_2d(7)
        ap, snodes = nd_snodes(a)
        merged = amalgamate(snodes, frat=0.3)
        fill = dense_fill_pattern(ap)
        for s in merged:
            covered = np.zeros(a.n, dtype=bool)
            covered[s.rows] = True
            for j in range(s.first_col, s.end):
                for i in np.flatnonzero(fill[:, j]):
                    if i >= s.end:
                        assert covered[i]

    def test_max_width_respected(self):
        a = laplacian_3d(5)
        _, snodes = nd_snodes(a)
        widest_before = max(s.ncols for s in snodes)
        merged = amalgamate(snodes, frat=10.0, max_width=widest_before)
        assert max(s.ncols for s in merged) <= widest_before

    def test_huge_frat_merges_chains(self):
        """A 1D Laplacian's ND tree is a chain; huge frat collapses it."""
        a = laplacian_1d(32)
        _, snodes = nd_snodes(a, cmin=4)
        merged = amalgamate(snodes, frat=100.0)
        assert len(merged) < len(snodes)


class TestSplitting:
    def test_narrow_supernodes_untouched(self):
        s = [Supernode(0, 10), Supernode(10, 20)]
        tiles = split_supernodes(s, split_size=32, split_min=16)
        assert tiles == [(0, 10, 0), (10, 20, 1)]

    def test_wide_supernode_split_balanced(self):
        s = [Supernode(0, 300)]
        tiles = split_supernodes(s, split_size=128, split_min=64)
        sizes = [t[1] for t in tiles]
        assert sum(sizes) == 300
        assert all(sz >= 64 for sz in sizes)
        assert max(sizes) - min(sizes) <= 1

    def test_boundary_exactly_split_size(self):
        s = [Supernode(0, 128)]
        tiles = split_supernodes(s, split_size=128, split_min=64)
        assert len(tiles) == 1

    def test_tiles_are_contiguous(self):
        s = [Supernode(0, 97), Supernode(97, 500)]
        tiles = split_supernodes(s, split_size=100, split_min=50)
        pos = 0
        for fc, nc, _ in tiles:
            assert fc == pos
            pos += nc
        assert pos == 597

    def test_chunks_keep_split_min(self):
        # two chunks of 65 would be 33 + 32, under split_min = 40
        assert split_supernodes([Supernode(0, 65)], split_size=64,
                                split_min=40) == [(0, 65, 0)]
        # 130 columns at 64 / 64: two chunks of 65, not 44 / 43 / 43
        assert split_supernodes([Supernode(0, 130)], split_size=64,
                                split_min=64) == [(0, 65, 0), (65, 65, 0)]

    @pytest.mark.parametrize("split_size,split_min", [
        (64, 32), (64, 40), (64, 64), (100, 7), (256, 128)])
    def test_chunk_widths(self, split_size, split_min):
        widths = list(range(1, 700, 7))
        starts = np.cumsum([0] + widths[:-1]).tolist()
        tiles = split_supernodes(
            [Supernode(f, w) for f, w in zip(starts, widths)],
            split_size=split_size, split_min=split_min)
        for si, w in enumerate(widths):
            sizes = [t[1] for t in tiles if t[2] == si]
            assert sum(sizes) == w and max(sizes) - min(sizes) <= 1
            assert min(sizes) >= min(w, split_min)
            want = min(-(-w // split_size), max(1, w // split_min))
            assert len(sizes) == want

    def test_invalid_split_params(self):
        with pytest.raises(ValueError):
            split_supernodes([Supernode(0, 10)], split_size=16, split_min=32)

    @pytest.mark.parametrize("split_min", [0, -5])
    def test_split_min_below_one_rejected(self, split_min):
        with pytest.raises(ValueError, match="split_min must be >= 1"):
            split_supernodes([Supernode(0, 10)], split_size=16,
                             split_min=split_min)


class TestFundamentalSupernodes:
    def test_tridiagonal_is_one_chain_of_supernodes(self):
        a = laplacian_1d(6)
        intervals = detect_fundamental_supernodes(a)
        # tridiagonal: every column has colcount exactly one less than its
        # predecessor only at the end; expect a single big supernode
        assert intervals[-1][0] + intervals[-1][1] == 6

    def test_intervals_tile(self, small_matrix):
        a = small_matrix.symmetrize_pattern()
        intervals = detect_fundamental_supernodes(a)
        pos = 0
        for fc, nc in intervals:
            assert fc == pos
            pos += nc
        assert pos == a.n

    def test_dense_matrix_single_supernode(self):
        from repro.sparse.csc import CSCMatrix
        d = np.ones((5, 5)) + 4 * np.eye(5)
        a = CSCMatrix.from_dense(d)
        intervals = detect_fundamental_supernodes(a)
        assert intervals == [(0, 5)]

    def test_diagonal_matrix_all_singletons(self):
        from repro.sparse.csc import CSCMatrix
        a = CSCMatrix.from_coo(4, range(4), range(4), [1.0] * 4)
        intervals = detect_fundamental_supernodes(a)
        assert intervals == [(0, 1), (1, 1), (2, 1), (3, 1)]


# -- the array pipeline against the loops it replaced ------------------------


def loop_row_sets(a, intervals):
    """Column-by-column initial structure, then in-order elimination."""
    snodes = [Supernode(fc, nc) for fc, nc in intervals]
    owner = np.empty(a.n, dtype=np.int64)
    for i, s in enumerate(snodes):
        owner[s.first_col:s.end] = i
    for s in snodes:
        pieces = [a.column(j)[0] for j in range(s.first_col, s.end)]
        rows = np.unique(np.concatenate(pieces))
        s.rows = rows[rows >= s.end]
    for s in snodes:
        if s.rows.size == 0:
            s.parent = -1
            continue
        s.parent = int(owner[s.rows[0]])
        parent = snodes[s.parent]
        parent.rows = np.union1d(parent.rows, s.rows[s.rows >= parent.end])
    return snodes


def sweep_amalgamate(snodes, frat, max_width=None):
    """Full sweeps over every supernode, parents recomputed after each,
    until a sweep merges nothing (what ``amalgamate`` used to run)."""
    snodes = list(snodes)
    while True:
        alive = [True] * len(snodes)
        for i, s in enumerate(snodes):
            p = s.parent
            if p < 0 or not alive[p]:
                continue
            parent = snodes[p]
            w = s.ncols + parent.ncols
            if s.end != parent.first_col or \
                    (max_width is not None and w > max_width):
                continue
            before = s.nnz() + parent.nnz()
            merged = np.union1d(parent.rows, s.rows[s.rows >= parent.end])
            if w * w + merged.size * w - before > frat * before:
                continue
            parent.first_col, parent.ncols, parent.rows = s.first_col, w, merged
            alive[i] = False
        if all(alive):
            return snodes
        snodes = [s for i, s in enumerate(snodes) if alive[i]]
        owner = np.empty(snodes[-1].end, dtype=np.int64)
        for i, s in enumerate(snodes):
            owner[s.first_col:s.end] = i
        for s in snodes:
            s.parent = int(owner[s.rows[0]]) if s.rows.size else -1


def as_tuples(snodes):
    return [(s.first_col, s.ncols, s.rows.tolist(), s.parent) for s in snodes]


PIPELINE_MATRICES = {
    "lap2d_9": lambda: laplacian_2d(9),
    "lap3d_6": lambda: laplacian_3d(6),
    "lap1d_40": lambda: laplacian_1d(40),
    "elas_3": lambda: elasticity_3d(3),
    "random_spd_80": lambda: random_spd(80, density=0.06, seed=5),
}


@pytest.mark.parametrize("name", sorted(PIPELINE_MATRICES))
@pytest.mark.parametrize("cmin", [3, 8])
class TestMatchesLoops:
    def test_row_sets(self, name, cmin):
        a = PIPELINE_MATRICES[name]()
        nd = nested_dissection(Graph.from_matrix(a), cmin=cmin)
        ap = permute_symmetric(a, nd.perm)
        intervals = [(p.start, p.size) for p in nd.partitions]
        assert as_tuples(supernode_row_sets(ap, intervals)) == \
            as_tuples(loop_row_sets(ap, intervals))

    @pytest.mark.parametrize("frat,max_width", [
        (0.02, None), (0.08, None), (0.3, None), (1.0, 12), (100.0, None)])
    def test_amalgamate(self, name, cmin, frat, max_width):
        _, snodes = nd_snodes(PIPELINE_MATRICES[name](), cmin=cmin)
        want = sweep_amalgamate(copy.deepcopy(snodes), frat, max_width)
        got = amalgamate(copy.deepcopy(snodes), frat, max_width)
        assert as_tuples(got) == as_tuples(want)
