"""Bottom subtrees pass their updates up as contribution blocks.

The engine runs the column blocks of a bottom subtree
(``SymbolicFactor.subtree_plan``: a maximal subtree of the block
elimination tree in which no block is a low-rank candidate) as
multifrontal tasks: each extend-adds its children's contribution blocks
(CBs) and adds its own update to its CB with one product, and the column
blocks outside land the part of each subtree root's CB that faces them.
The reference is the same engine with an empty plan — every column block a
fan-in task pulling every contributor pair by pair — and the two must make
the same factor to rounding, with the same ranks and exactly the same flop
charges, under every factotype, strategy and dtype.
"""

import numpy as np
import pytest

from repro.core.solver import Solver
from repro.runtime.faults import FaultInjector
from repro.runtime.recovery import RecoveryPolicy
from repro.runtime.spans import SpanProfiler
from repro.sparse.generators import (
    convection_diffusion_3d,
    helmholtz_3d,
    laplacian_3d,
)
from repro.symbolic.structure import SubtreePlan, SymbolicFactor
from tests.conftest import hermitian_congruence, tiny_blr_config
from tests.pins import factor_digest
from tests.test_factorization import assert_same_factor

STRATEGIES = ["dense", "just-in-time", "minimal-memory"]

#: wider than the narrowest column blocks of the tiny tiles, so that some
#: subtrees hold no candidate and the rest of the tree does
MIN_WIDTH = 12

CASES = {
    "lu": (lambda: convection_diffusion_3d(7), dict(factotype="lu")),
    "lu-float32": (lambda: laplacian_3d(7),
                   dict(factotype="lu", dtype="float32")),
    "lu-complex128": (lambda: convection_diffusion_3d(7),
                      dict(factotype="lu", dtype="complex128")),
    # at τ = 1e-2 the column blocks that compress are stored in float32
    "lu-float32-storage": (lambda: laplacian_3d(8),
                           dict(factotype="lu", tolerance=1e-2)),
    "cholesky": (lambda: laplacian_3d(7), dict(factotype="cholesky")),
    "cholesky-float32": (lambda: laplacian_3d(7),
                         dict(factotype="cholesky", dtype="float32")),
    "cholesky-float32-storage": (lambda: laplacian_3d(8),
                                 dict(factotype="cholesky", tolerance=1e-2)),
    "ldlt-static": (lambda: laplacian_3d(7), dict(factotype="ldlt")),
    "ldlt-threshold": (lambda: helmholtz_3d(9, wavenumber=3.0),
                       dict(factotype="ldlt", pivoting="threshold")),
    "ldlh-static": (lambda: hermitian_congruence(laplacian_3d(7)),
                    dict(factotype="ldlt")),
    "ldlh-threshold": (lambda: hermitian_congruence(laplacian_3d(7)),
                       dict(factotype="ldlt", pivoting="threshold")),
}


def fan_in_plan(self):
    """No bottom subtree: every column block pulls every contributor."""
    return SubtreePlan(np.full(self.ncblk, -1, dtype=np.int64),
                       [[] for _ in range(self.ncblk)],
                       [self.contributors(t) for t in range(self.ncblk)])


def config(**cfg):
    return tiny_blr_config(**{"tolerance": 1e-6,
                              "compress_min_width": MIN_WIDTH, **cfg})


def factorize(monkeypatch, a, cfg, fan_in=False, **solver):
    with monkeypatch.context() as m:
        if fan_in:
            m.setattr(SymbolicFactor, "subtree_plan", fan_in_plan)
        s = Solver(a, cfg, **solver)
        s.factorize()
    return s


def plan_shape(symb):
    """How many column blocks lie in bottom subtrees, how many of those
    have children, and how many roots hand a CB to a target outside."""
    plan = symb.subtree_plan()
    ids = np.arange(symb.ncblk)
    roots = ids[plan.root == ids]
    return dict(inside=int((plan.root >= 0).sum()),
                outside=int((plan.root < 0).sum()),
                parents=sum(1 for c in plan.children if c),
                landing_roots=sum(1 for r in roots if symb.facing_ranges(r)))


class TestContributionBlocksMatchFanIn:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_same_factor_and_flops(self, monkeypatch, case, strategy):
        build, cfg = CASES[case]
        a = build()
        s = factorize(monkeypatch, a, config(strategy=strategy, **cfg))
        ref = factorize(monkeypatch, a, config(strategy=strategy, **cfg),
                        fan_in=True)
        assert all(plan_shape(s.symbolic).values())
        assert_same_factor(s.factor, ref.factor, exact=False,
                           growth=max(1.0, ref.factor.pivot_growth))
        k, kr = s.factor.stats.kernels, ref.factor.stats.kernels
        assert k.flops == kr.flops
        assert s.factor.stats.factor_nbytes == ref.factor.stats.factor_nbytes
        assert s.factor.stats.peak_nbytes == ref.factor.stats.peak_nbytes
        assert s.factor.nperturbed == ref.factor.nperturbed
        assert s.factor.pivots_2x2 == ref.factor.pivots_2x2
        if case == "ldlt-threshold":
            assert s.factor.pivots_2x2 > 0
        # fewer update charges: one per extend-add and root landing, where
        # the reference charges one per (source, target) pair
        assert 0 < k.call_count("dense_update") < kr.call_count(
            "dense_update")
        assert s.factor.stats.accumulator_peak_nbytes > (
            ref.factor.stats.accumulator_peak_nbytes)

    def test_roots_land_in_low_rank_targets(self, monkeypatch):
        """Under Minimal Memory a target compressed at fill: a root's CB
        lands in its blocks-mode storage, its low-rank blocks through the
        accumulator."""
        a = laplacian_3d(8)
        s = factorize(monkeypatch, a, config(strategy="minimal-memory",
                                             tolerance=1e-4))
        symb, plan = s.symbolic, s.symbolic.subtree_plan()
        targets = {t for r in np.flatnonzero(plan.root == np.arange(
            symb.ncblk)) for t in symb.facing_ranges(r)}
        assert any(not s.factor.cblks[t].panel_mode for t in targets)
        ref = factorize(monkeypatch, a, config(strategy="minimal-memory",
                                               tolerance=1e-4), fan_in=True)
        assert_same_factor(s.factor, ref.factor, exact=False)


class TestPlan:
    def test_subtrees_hold_no_candidate_and_are_maximal(self):
        s = Solver(laplacian_3d(8), config())
        symb = s.analyze()
        plan = symb.subtree_plan()
        parent = symb.block_etree()
        cand = [any(b.lr_candidate for b in c.off_blocks())
                for c in symb.cblks]
        holds = list(cand)
        for k in range(symb.ncblk):
            if parent[k] >= 0:
                holds[parent[k]] |= holds[k]
        for k in range(symb.ncblk):
            r = plan.root[k]
            # outside exactly when the subtree of k holds a candidate
            assert (r < 0) == holds[k]
            if r < 0:
                continue
            # the root is the last ancestor inside; its parent is outside
            p = k
            while p != r:
                p = parent[p]
                assert plan.root[p] == r
            assert parent[r] < 0 or plan.root[parent[r]] < 0
            assert plan.children[k] == [c for c in range(k)
                                        if parent[c] == k]
        for t in range(symb.ncblk):
            if plan.root[t] >= 0:
                assert plan.pulls[t] == []
                # a subtree column block is updated from inside it only
                assert all(plan.root[c] == plan.root[t]
                           for c in symb.contributors(t))
                continue
            # every contributor outside, every root facing t
            assert plan.pulls[t] == [
                c for c in symb.contributors(t)
                if plan.root[c] < 0 or plan.root[c] == c]

    def test_same_subtrees_for_every_strategy(self):
        plans = []
        for strategy in STRATEGIES:
            symb = Solver(laplacian_3d(8), config(strategy=strategy)).analyze()
            plans.append(symb.subtree_plan())
        for p in plans[1:]:
            assert np.array_equal(p.root, plans[0].root)
            assert p.children == plans[0].children
            assert p.pulls == plans[0].pulls


class TestObservability:
    def test_one_update_span_and_hook_per_extend_add_and_landing(self):
        a = laplacian_3d(7)
        prof = SpanProfiler()
        s = Solver(a, config(profiler=prof))
        symb = s.analyze()
        plan = symb.subtree_plan()
        ids = np.arange(symb.ncblk)
        want = {(c, k) for k in ids for c in plan.children[k]}
        want |= {(c, t) for t in ids for c in plan.pulls[t]}
        inj = FaultInjector()
        seen = []
        inj.on_update = lambda fac, k, target: seen.append((k, target))
        s.factorize(faults=inj)
        spans = [e for e in prof.events() if e.name == "update"]
        got = [(e.attrs["cblk"], e.attrs["target"]) for e in spans]
        assert sorted(got) == sorted(want) == sorted(seen)
        modes = {(e.attrs["cblk"], e.attrs["target"]): e.attrs["mode"]
                 for e in spans}
        assert all(modes[c, k] == "cb" for k in ids
                   for c in plan.children[k])
        assert all(modes[r, t] == "cb" for t in ids for r in plan.pulls[t]
                   if plan.root[r] == r)


class TestRetries:
    """A transient fault retries the task to the unfaulted factor, bit
    for bit: a task consumes the CBs it read only once it has succeeded."""

    def _retried(self, monkeypatch, pick):
        a = laplacian_3d(7)
        cfg = config(strategy="just-in-time")
        clean = factorize(monkeypatch, a, cfg)
        symb = clean.symbolic
        source, target = pick(symb, symb.subtree_plan())
        inj = FaultInjector()
        inj.fail_update(source, target=target, transient=True)
        faulty = Solver(a, config(strategy="just-in-time",
                                  recovery=RecoveryPolicy(task_retries=2)))
        faulty.factorize(faults=inj)
        assert faulty.last_recovery["counts"] == {"task_retry": 1}
        assert [act["cblk"] for act in faulty.last_recovery["actions"]] == [
            target]
        assert factor_digest(faulty.factor) == factor_digest(clean.factor)
        assert faulty.stats.peak_nbytes == clean.stats.peak_nbytes
        assert (faulty.stats.accumulator_peak_nbytes
                == clean.stats.accumulator_peak_nbytes)

    def test_fault_in_an_extend_add(self, monkeypatch):
        def pick(symb, plan):
            # a parent with two children: the second extend-add fails
            # after the first one landed
            k = next(k for k in range(symb.ncblk)
                     if len(plan.children[k]) >= 2)
            return plan.children[k][-1], k
        self._retried(monkeypatch, pick)

    def test_fault_in_a_root_landing(self, monkeypatch):
        def pick(symb, plan):
            # a target outside pulling two roots: the second landing fails
            # after the first one landed
            t = next(t for t in range(symb.ncblk)
                     if sum(plan.root[c] == c for c in plan.pulls[t]) >= 2)
            return [c for c in plan.pulls[t] if plan.root[c] == c][-1], t
        self._retried(monkeypatch, pick)
