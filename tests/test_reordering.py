"""Tests for the intra-supernode (TSP) reordering of [21]."""

import numpy as np
import pytest

from repro.ordering import reordering
from repro.ordering.graph import Graph
from repro.ordering.nested_dissection import nested_dissection
from repro.ordering.reordering import apply_reordering, reorder_supernodes
from repro.sparse.generators import (
    elasticity_3d,
    laplacian_2d,
    laplacian_3d,
    random_spd,
)
from repro.sparse.permute import permute_symmetric
from repro.symbolic.supernodes import (
    Supernode,
    amalgamate,
    supernode_row_sets,
)


def build_snodes(a, cmin=8):
    nd = nested_dissection(Graph.from_matrix(a), cmin=cmin)
    ap = permute_symmetric(a, nd.perm)
    return supernode_row_sets(ap, [(p.start, p.size) for p in nd.partitions])


class TestRemapValidity:
    def test_remap_is_permutation(self):
        snodes = build_snodes(laplacian_2d(8))
        newpos = reorder_supernodes(snodes)
        n = snodes[-1].end
        assert sorted(newpos.tolist()) == list(range(n))

    def test_remap_stays_within_supernodes(self):
        snodes = build_snodes(laplacian_3d(5))
        newpos = reorder_supernodes(snodes)
        for s in snodes:
            moved = newpos[s.first_col:s.end]
            assert moved.min() >= s.first_col
            assert moved.max() < s.end

    def test_apply_reordering_keeps_rows_sorted(self):
        snodes = build_snodes(laplacian_2d(8))
        newpos = reorder_supernodes(snodes)
        apply_reordering(snodes, newpos)
        for s in snodes:
            assert np.all(np.diff(s.rows) > 0)

    def test_row_sets_remap_consistently(self):
        """The multiset of (owner supernode, count) per contributor must be
        invariant under the remap."""
        snodes = build_snodes(laplacian_2d(8))
        starts = np.array([s.first_col for s in snodes])

        def owner_histogram(snodes):
            out = []
            for s in snodes:
                owners = np.searchsorted(starts, s.rows, side="right") - 1
                out.append(np.bincount(owners, minlength=len(snodes)))
            return np.array(out)

        before = owner_histogram(snodes)
        newpos = reorder_supernodes(snodes)
        apply_reordering(snodes, newpos)
        after = owner_histogram(snodes)
        np.testing.assert_array_equal(before, after)


class TestBlockMerging:
    def test_groups_identical_patterns_contiguously(self):
        """Hand-built case: a 6-wide supernode receiving two contributors
        with interleaved rows must come out grouped."""
        # supernode 2 owns columns 10..16; contributors 0 and 1 hit
        # alternating rows
        s0 = Supernode(0, 5, rows=np.array([10, 12, 14]))
        s1 = Supernode(5, 5, rows=np.array([11, 13, 15]))
        s2 = Supernode(10, 6)
        s0.parent = 2
        s1.parent = 2
        newpos = reorder_supernodes([s0, s1, s2])
        rows0 = np.sort(newpos[s0.rows])
        rows1 = np.sort(newpos[s1.rows])
        # each contributor's rows must now be contiguous
        assert rows0[-1] - rows0[0] == 2
        assert rows1[-1] - rows1[0] == 2

    def test_reduces_offdiag_blocks_on_grid(self):
        """End-to-end: the reordering should not increase (and typically
        reduces) the number of off-diagonal blocks."""
        from repro.symbolic.factorization import (
            SymbolicOptions,
            symbolic_factorization,
        )
        a = laplacian_3d(6)
        off = {}
        for flag in (False, True):
            opts = SymbolicOptions(cmin=15, reorder_supernodes=flag)
            symb, _ = symbolic_factorization(a, opts)
            off[flag] = symb.total_off_blocks()
        assert off[True] <= off[False]


class TestDegenerate:
    def test_no_contributors_identity(self):
        s = [Supernode(0, 4), Supernode(4, 4)]
        newpos = reorder_supernodes(s)
        np.testing.assert_array_equal(newpos, np.arange(8))

    def test_tiny_supernodes_untouched(self):
        s0 = Supernode(0, 2, rows=np.array([4]))
        s1 = Supernode(2, 2, rows=np.array([5]))
        s2 = Supernode(4, 2)
        newpos = reorder_supernodes([s0, s1, s2])
        np.testing.assert_array_equal(newpos, np.arange(6))

    def test_empty_input(self):
        newpos = reorder_supernodes([])
        assert newpos.size == 0


# -- the label-matrix tour against the frozenset tour it replaced ------------


def frozenset_reorder(snodes, width_cap, group_cap=512):
    """One Python set per vertex, groups keyed by frozenset, the tour by
    ``symmetric_difference`` sizes with the ``(distance, group)``
    tie-break."""
    n = snodes[-1].end
    newpos = np.arange(n, dtype=np.int64)
    labels = [[] for _ in range(n)]
    for ci, c in enumerate(snodes):
        for r in c.rows.tolist():
            labels[r].append(ci)
    for s in snodes:
        if s.ncols <= 2:
            continue
        key_of = {}
        for v in range(s.first_col, s.end):
            key_of.setdefault(frozenset(labels[v]), []).append(v)
        if len(key_of) <= 1:
            continue
        groups = list(key_of.items())
        if s.ncols > width_cap or len(groups) > group_cap:
            order = sorted(range(len(groups)),
                           key=lambda g: tuple(sorted(groups[g][0])))
        else:
            unvisited = set(range(len(groups)))
            cur = min(unvisited, key=lambda g: (len(groups[g][0]), g))
            order = [cur]
            unvisited.discard(cur)
            while unvisited:
                cur = min(unvisited, key=lambda g: (
                    len(groups[cur][0].symmetric_difference(groups[g][0])),
                    g))
                order.append(cur)
                unvisited.discard(cur)
        pos = s.first_col
        for gi in order:
            for v in groups[gi][1]:
                newpos[v] = pos
                pos += 1
    return newpos


@pytest.mark.parametrize("build", [
    lambda: laplacian_2d(12), lambda: laplacian_3d(7),
    lambda: elasticity_3d(3), lambda: random_spd(90, density=0.05, seed=2)])
@pytest.mark.parametrize("width_cap", [reordering.TSP_WIDTH_CAP, 5])
def test_matches_frozenset_tour(build, width_cap, monkeypatch):
    # width_cap=5 sends every wider supernode down the lexicographic path
    monkeypatch.setattr(reordering, "TSP_WIDTH_CAP", width_cap)
    snodes = amalgamate(build_snodes(build(), cmin=6), frat=0.08)
    np.testing.assert_array_equal(reorder_supernodes(snodes),
                                  frozenset_reorder(snodes, width_cap))


@pytest.mark.parametrize("build", [
    lambda: laplacian_3d(7), lambda: random_spd(90, density=0.05, seed=2)])
@pytest.mark.parametrize("group_cap,batch", [(3, 1 << 21), (512, 1)])
def test_group_cap_and_tour_batches(build, group_cap, batch, monkeypatch):
    # group_cap=3 sends every supernode with more groups down the
    # lexicographic path; batch=1 runs every greedy tour in a batch alone
    monkeypatch.setattr(reordering, "TSP_GROUP_CAP", group_cap)
    monkeypatch.setattr(reordering, "_TOUR_BATCH", batch)
    snodes = amalgamate(build_snodes(build(), cmin=6), frat=0.08)
    np.testing.assert_array_equal(
        reorder_supernodes(snodes),
        frozenset_reorder(snodes, reordering.TSP_WIDTH_CAP, group_cap))
