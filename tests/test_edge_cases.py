"""Supplementary edge-case tests filling coverage gaps."""

import numpy as np
import pytest

from repro.core.solver import Solver
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import laplacian_1d, laplacian_2d, laplacian_3d
from tests.conftest import random_lowrank, tiny_blr_config


class TestTinySystems:
    def test_one_by_one(self):
        a = CSCMatrix.from_coo(1, [0], [0], [4.0])
        s = Solver(a, tiny_blr_config(strategy="dense"))
        x = s.solve(np.array([8.0]))
        np.testing.assert_allclose(x, [2.0])

    def test_two_by_two(self):
        a = CSCMatrix.from_dense(np.array([[4.0, 1.0], [1.0, 3.0]]))
        for strategy in ("dense", "just-in-time", "minimal-memory"):
            s = Solver(a, tiny_blr_config(strategy=strategy))
            x = s.solve(np.array([1.0, 2.0]))
            assert s.backward_error(x, np.array([1.0, 2.0])) <= 1e-12

    def test_diagonal_matrix(self):
        a = CSCMatrix.from_coo(5, range(5), range(5),
                               [2.0, 3.0, 4.0, 5.0, 6.0])
        s = Solver(a, tiny_blr_config(strategy="dense"))
        b = np.arange(1.0, 6.0)
        np.testing.assert_allclose(s.solve(b), b / np.array([2, 3, 4, 5, 6]))

    def test_tridiagonal_chain(self):
        a = laplacian_1d(50)
        s = Solver(a, tiny_blr_config(strategy="minimal-memory"))
        b = np.ones(50)
        assert s.backward_error(s.solve(b), b) <= 1e-8

    def test_all_strategies_n_equals_cmin(self):
        """Problems smaller than cmin produce a single leaf supernode."""
        a = laplacian_2d(2)  # n = 4 < cmin = 8
        for strategy in ("dense", "just-in-time", "minimal-memory"):
            s = Solver(a, tiny_blr_config(strategy=strategy))
            s.factorize()
            assert s.symbolic.ncblk >= 1
            b = np.ones(4)
            assert s.backward_error(s.solve(b), b) <= 1e-12


class TestGmresRestart:
    def test_multiple_restart_cycles(self, rng):
        """restart < iterations forces several Arnoldi cycles."""
        from repro.core.refinement import gmres
        a = laplacian_2d(6)
        b = rng.standard_normal(a.n)
        res = gmres(a, b, tol=1e-10, maxiter=300, restart=5)
        assert res.converged
        assert res.iterations > 5  # really took more than one cycle

    def test_history_length_tracks_iterations(self, rng):
        from repro.core.refinement import gmres
        a = laplacian_2d(4)
        b = rng.standard_normal(a.n)
        res = gmres(a, b, tol=1e-12, maxiter=50, restart=10)
        # initial entry + one per iteration (restart bookkeeping may merge
        # the last entry of a cycle with the true-residual recomputation)
        assert len(res.history) >= res.iterations


class TestRrqrNormRef:
    def test_norm_ref_forces_rank_zero(self, rng):
        """A tiny matrix truncates to rank 0 when the reference scale is
        much larger (the cancellation case of the extend-add)."""
        from repro.lowrank.rrqr import rrqr, rrqr_lapack
        tiny = 1e-14 * random_lowrank(rng, 10, 8, 3)
        for impl in (rrqr, rrqr_lapack):
            res = impl(tiny, 1e-8, norm_ref=1.0)
            assert res.converged
            assert res.q.shape[1] == 0

    def test_norm_ref_none_is_relative(self, rng):
        from repro.lowrank.rrqr import rrqr
        tiny = 1e-14 * random_lowrank(rng, 10, 8, 3)
        res = rrqr(tiny, 1e-8)  # relative to its own norm: keeps rank
        assert res.q.shape[1] > 0


class TestSymbolicBlockHelpers:
    def test_rows_helper(self):
        from repro.symbolic.structure import SymbolicBlock
        b = SymbolicBlock(first_row=5, nrows=3, facing=0)
        np.testing.assert_array_equal(b.rows(), [5, 6, 7])
        assert b.end_row == 8


class TestMemoryInvariants:
    @pytest.mark.parametrize("strategy", ["dense", "just-in-time",
                                          "minimal-memory"])
    def test_tracker_matches_factor_bytes_at_end(self, strategy):
        """After factorization the tracked current bytes equal the factor
        storage (nothing leaked, nothing double-counted)."""
        a = laplacian_3d(6)
        cfg = tiny_blr_config(strategy=strategy, tolerance=1e-6)
        s = Solver(a, cfg)
        s.factorize()
        assert s.factor.tracker.current == s.factor.factor_nbytes()

    def test_left_looking_tracker_consistent(self):
        """Every task allocates its own column block (§4.3's left-looking
        allocation); a retried task frees it and allocates it again.  With
        one retry, the tracked bytes still end at the factor storage."""
        from repro.runtime.faults import FaultInjector
        from repro.runtime.recovery import RecoveryPolicy

        a = laplacian_3d(6)
        for strategy in ("just-in-time", "minimal-memory"):
            s = Solver(a, tiny_blr_config(
                strategy=strategy, tolerance=1e-6,
                recovery=RecoveryPolicy(task_retries=1)))
            inj = FaultInjector()
            inj.fail_factor(s.analyze().ncblk - 1, transient=True)
            s.factorize(faults=inj)
            assert s.last_recovery["counts"] == {"task_retry": 1}
            assert s.factor.tracker.current == s.factor.factor_nbytes()


class TestCliRandomRhs:
    def test_random_rhs_flag(self, capsys):
        from repro.cli import main
        rc = main(["solve", "--generate", "lap3d:4", "--rhs", "random",
                   "--seed", "7"])
        assert rc == 0


class TestMultiRhsEdges:
    """Degenerate panel shapes and layouts through the blocked solve."""

    def test_empty_panel(self, rng):
        a = laplacian_2d(4)
        s = Solver(a, tiny_blr_config())
        s.factorize()
        b = np.zeros((a.n, 0))
        x = s.solve(b)
        assert x.shape == (a.n, 0)
        x = s.solve(b, refine=True)
        assert x.shape == (a.n, 0)

    def test_k1_panel_equals_vector_bitwise(self, rng):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="minimal-memory",
                                      tolerance=1e-8))
        s.factorize()
        b = rng.standard_normal(a.n)
        x_vec = s.solve(b)
        x_panel = s.solve(b[:, None])
        assert x_vec.ndim == 1 and x_panel.shape == (a.n, 1)
        np.testing.assert_array_equal(x_panel[:, 0], x_vec)

    def test_fortran_order_rhs_bitwise(self, rng):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      tolerance=1e-8))
        s.factorize()
        b = rng.standard_normal((a.n, 4))
        x_c = s.solve(b)
        x_f = s.solve(np.asfortranarray(b))
        np.testing.assert_array_equal(x_c, x_f)

    def test_noncontiguous_rhs_bitwise(self, rng):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      tolerance=1e-8))
        s.factorize()
        wide = rng.standard_normal((a.n, 8))
        view = wide[:, ::2]                      # stride-2 view, k=4
        assert not view.flags["C_CONTIGUOUS"]
        x_view = s.solve(view)
        x_copy = s.solve(np.ascontiguousarray(view))
        np.testing.assert_array_equal(x_view, x_copy)

    def test_complex_panel_against_real_factorization_raises(self, rng):
        a = laplacian_2d(4)
        s = Solver(a, tiny_blr_config())
        s.factorize()
        b = rng.standard_normal((a.n, 2)).astype(np.complex128)
        with pytest.raises(ValueError, match="complex right-hand side"):
            s.solve(b)

    def test_refined_panel_columns_converge(self, rng):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="minimal-memory",
                                      tolerance=1e-4))
        s.factorize()
        b = rng.standard_normal((a.n, 3))
        x = s.solve(b, refine=True, refine_tol=1e-12)
        for j in range(3):
            rj = np.linalg.norm(a.matvec(x[:, j]) - b[:, j])
            assert rj / np.linalg.norm(b[:, j]) <= 1e-10
