"""Tests for GMRES / CG / iterative refinement."""

import numpy as np
import pytest

from repro.core.refinement import (
    _work_dtype,
    conjugate_gradient,
    gmres,
    iterative_refinement,
)
from repro.core.solver import Solver
from repro.sparse.generators import (
    convection_diffusion_3d,
    laplacian_2d,
    laplacian_3d,
)
from tests.conftest import hermitian_congruence, tiny_blr_config


def exact_precond(a):
    inv = np.linalg.inv(a.to_dense())
    return lambda r: inv @ r


class TestGmres:
    def test_unpreconditioned_converges(self, rng):
        a = laplacian_2d(4)
        b = rng.standard_normal(a.n)
        res = gmres(a, b, tol=1e-10, maxiter=200, restart=50)
        assert res.converged
        assert res.backward_error <= 1e-10

    def test_exact_preconditioner_one_iteration(self, rng):
        a = laplacian_2d(5)
        b = rng.standard_normal(a.n)
        res = gmres(a, b, precond=exact_precond(a), tol=1e-12, maxiter=20)
        assert res.converged
        assert res.iterations <= 2

    def test_nonsymmetric_system(self, rng):
        a = convection_diffusion_3d(4, peclet=0.7)
        b = rng.standard_normal(a.n)
        res = gmres(a, b, precond=exact_precond(a), tol=1e-12, maxiter=20)
        assert res.converged

    def test_history_starts_at_initial_residual(self, rng):
        a = laplacian_2d(4)
        b = rng.standard_normal(a.n)
        res = gmres(a, b, tol=1e-10, maxiter=5)
        assert res.history[0] == pytest.approx(1.0)  # x0 = 0

    def test_maxiter_respected(self, rng):
        a = laplacian_2d(6)
        b = rng.standard_normal(a.n)
        res = gmres(a, b, tol=1e-16, maxiter=3)
        assert res.iterations <= 3

    def test_zero_rhs(self):
        a = laplacian_2d(3)
        res = gmres(a, np.zeros(a.n))
        assert res.converged
        np.testing.assert_array_equal(res.x, 0)

    def test_warm_start(self, rng):
        a = laplacian_2d(4)
        b = rng.standard_normal(a.n)
        x0 = np.linalg.solve(a.to_dense(), b)
        res = gmres(a, b, x0=x0, tol=1e-10, maxiter=5)
        assert res.history[0] <= 1e-10


def _approx_precond(a, seed=5, delta=0.005):
    """``M⁻¹`` of a perturbed ``A`` (Hermitian perturbation when ``A`` is):
    a linear preconditioner GMRES needs a handful of iterations with."""
    dense = a.to_dense()
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(dense.shape)
    if dense.dtype.kind == "c":
        e = e + 1j * rng.standard_normal(dense.shape)
        e = (e + e.conj().T) / 2
    inv = np.linalg.inv(dense + delta * np.abs(dense).max() * e)
    return lambda r: inv @ r


def _counting(precond):
    calls = []

    def counted(r):
        calls.append(np.shape(r))
        return precond(r)

    return counted, calls


def _reference_gmres(a, b, precond, tol, maxiter, restart):
    """Right-preconditioned restarted GMRES updating ``x += M⁻¹ (V y)``
    (one preconditioner solve more per cycle), its least-squares problem
    solved by ``lstsq``: ``(x, history, iterations, cycles)``."""
    norm_b = np.linalg.norm(b)
    x = np.zeros(a.n, dtype=np.result_type(a.values, b))
    hist = [np.linalg.norm(b - a.matvec(x)) / norm_b]
    total = cycles = 0
    while total < maxiter and hist[-1] > tol:
        r = b - a.matvec(x)
        beta = np.linalg.norm(r)
        m = min(restart, maxiter - total)
        v = [r / beta]
        h = np.zeros((m + 1, m), dtype=x.dtype)
        for j in range(m):
            w = a.matvec(precond(v[j]))
            for i in range(j + 1):
                h[i, j] = np.vdot(v[i], w)
                w = w - h[i, j] * v[i]
            h[j + 1, j] = np.linalg.norm(w)
            v.append(w / h[j + 1, j])
            e1 = np.zeros(j + 2, dtype=x.dtype)
            e1[0] = beta
            y = np.linalg.lstsq(h[:j + 2, :j + 1], e1, rcond=None)[0]
            total += 1
            hist.append(np.linalg.norm(e1 - h[:j + 2, :j + 1] @ y) / norm_b)
            if hist[-1] <= tol or total >= maxiter:
                break
        x = x + precond(np.array(v[:len(y)]).T @ y)
        cycles += 1
        hist[-1] = np.linalg.norm(b - a.matvec(x)) / norm_b
        if beta / norm_b <= hist[-1] * (1.0 + 1e-12):
            break
    return x, hist, total, cycles


GMRES_SYSTEMS = {
    "real": lambda: convection_diffusion_3d(4, peclet=0.7),
    "hermitian": lambda: hermitian_congruence(laplacian_2d(7)),
}


class TestGmresPreconditionerCount:
    """GMRES keeps ``z_j = M⁻¹ v_j`` and updates ``x += Z y``: one
    preconditioner solve per iteration, where ``x += M⁻¹ (V y)`` took one
    more per restart cycle — and the same iterate up to rounding."""

    @pytest.mark.parametrize("restart,maxiter,tol", [
        (30, 20, 1e-10),   # one cycle, converges
        (3, 20, 1e-10),    # several cycles
        (1, 12, 1e-10),    # one Arnoldi step per cycle
        (3, 5, 1e-30),     # maxiter reached in the middle of a cycle
    ])
    @pytest.mark.parametrize("system", sorted(GMRES_SYSTEMS))
    def test_one_solve_per_iteration(self, rng, system, restart, maxiter,
                                     tol):
        a = GMRES_SYSTEMS[system]()
        b = rng.standard_normal(a.n)
        precond = _approx_precond(a)
        counted, calls = _counting(precond)
        res = gmres(a, b, precond=counted, tol=tol, maxiter=maxiter,
                    restart=restart)
        ref_counted, ref_calls = _counting(precond)
        x_ref, hist_ref, iters_ref, cycles = _reference_gmres(
            a, b, ref_counted, tol, maxiter, restart)
        assert len(calls) == res.iterations == iters_ref
        assert len(ref_calls) == iters_ref + cycles
        assert cycles > (restart < iters_ref)
        np.testing.assert_allclose(res.history, hist_ref, rtol=1e-6,
                                   atol=1e-13)
        np.testing.assert_allclose(res.x, x_ref, rtol=0,
                                   atol=1e-10 * np.abs(x_ref).max())
        if tol < 1e-20:  # cannot converge: stops at maxiter
            assert res.iterations == maxiter and not res.converged

    def test_panel_rhs_runs_each_column_once_per_iteration(self, rng):
        a = GMRES_SYSTEMS["real"]()
        b = rng.standard_normal((a.n, 3))
        counted, calls = _counting(_approx_precond(a))
        res = gmres(a, b, precond=counted, tol=1e-10, maxiter=20, restart=3)
        singles = [gmres(a, np.ascontiguousarray(b[:, j]),
                         precond=_approx_precond(a), tol=1e-10, maxiter=20,
                         restart=3) for j in range(3)]
        assert len(calls) == sum(s.iterations for s in singles)
        assert all(shape == (a.n,) for shape in calls)
        for j, single in enumerate(singles):
            np.testing.assert_array_equal(res.x[:, j], single.x)
            assert res.col_history[j] == single.history


class TestConjugateGradient:
    def test_spd_converges(self, rng):
        a = laplacian_2d(5)
        b = rng.standard_normal(a.n)
        res = conjugate_gradient(a, b, tol=1e-10, maxiter=300)
        assert res.converged

    def test_exact_preconditioner_fast(self, rng):
        a = laplacian_3d(4)
        b = rng.standard_normal(a.n)
        res = conjugate_gradient(a, b, precond=exact_precond(a),
                                 tol=1e-12, maxiter=20)
        assert res.converged
        assert res.iterations <= 3

    def test_zero_rhs(self):
        a = laplacian_2d(3)
        res = conjugate_gradient(a, np.zeros(a.n))
        assert res.converged


class TestIterativeRefinement:
    def test_converges_with_good_preconditioner(self, rng):
        a = laplacian_2d(5)
        b = rng.standard_normal(a.n)
        res = iterative_refinement(a, b, exact_precond(a), tol=1e-12)
        assert res.converged
        assert res.iterations <= 3

    def test_approximate_preconditioner_improves(self, rng):
        """A τ=1e-4 BLR preconditioner must drive the error down over
        iterations (the mechanism behind Figure 8)."""
        a = laplacian_3d(8)
        s = Solver(a, tiny_blr_config(strategy="minimal-memory",
                                      tolerance=1e-4))
        s.factorize()
        b = rng = np.random.default_rng(0).standard_normal(a.n)
        res = iterative_refinement(a, b, s._precond, tol=1e-12, maxiter=20)
        assert res.history[-1] < res.history[0]

    def test_zero_rhs(self):
        a = laplacian_2d(3)
        res = iterative_refinement(a, np.zeros(a.n), lambda r: r)
        assert res.converged

    @pytest.mark.parametrize("with_x0", [False, True])
    def test_iterates_in_work_dtype(self, rng, with_x0):
        """A float32 right-hand side against a float64 matrix iterates in
        float64 whether or not a starting guess is passed, even under a
        float32 preconditioner (which keeps a float32 input float32)."""
        a = laplacian_2d(5)
        inv32 = np.linalg.inv(a.to_dense()).astype(np.float32)

        def precond(r):
            return inv32 @ r

        b = rng.standard_normal(a.n).astype(np.float32)
        x0 = precond(b).astype(np.float32) if with_x0 else None
        res = iterative_refinement(a, b, precond, x0=x0)
        assert res.x.dtype == _work_dtype(a, b) == np.float64
        assert res.x.shape == (a.n,) and res.col_history is None

    def test_vector_is_the_one_column_panel(self, rng):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="minimal-memory",
                                      tolerance=1e-4))
        s.factorize()
        b = rng.standard_normal(a.n)
        vec = iterative_refinement(a, b, s._precond, tol=1e-14, maxiter=6)
        col = iterative_refinement(a, b[:, None], s._precond, tol=1e-14,
                                   maxiter=6)
        np.testing.assert_array_equal(vec.x, col.x[:, 0])
        assert vec.history == col.history
        assert vec.iterations == col.iterations
        assert vec.converged == col.converged


class TestSolverRefineIntegration:
    def test_blr_preconditioned_gmres_reaches_machine_precision(self, rng):
        """Figure 8 at τ=1e-8: a handful of iterations reach ~1e-12."""
        a = convection_diffusion_3d(6)
        s = Solver(a, tiny_blr_config(strategy="minimal-memory",
                                      tolerance=1e-8))
        s.factorize()
        b = rng.standard_normal(a.n)
        res = s.refine(b, tol=1e-12, maxiter=20)
        assert res.backward_error <= 1e-11
        assert res.iterations <= 10

    def test_default_method_selection(self, rng):
        a = laplacian_3d(4)
        s_lu = Solver(a, tiny_blr_config(factotype="lu"))
        s_lu.factorize()
        b = rng.standard_normal(a.n)
        res = s_lu.refine(b)  # GMRES for LU
        assert res.converged
        s_ch = Solver(a, tiny_blr_config(factotype="cholesky"))
        s_ch.factorize()
        res = s_ch.refine(b)  # CG for Cholesky
        assert res.converged

    def test_unknown_method_rejected(self, rng):
        a = laplacian_2d(3)
        s = Solver(a, tiny_blr_config())
        s.factorize()
        with pytest.raises(ValueError, match="method"):
            s.refine(np.ones(a.n), method="bicgstab")

    def test_solve_with_refine_flag(self, rng):
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(strategy="just-in-time",
                                      tolerance=1e-4))
        s.factorize()
        b = rng.standard_normal(a.n)
        x_plain = s.solve(b)
        x_ref = s.solve(b, refine=True)
        assert s.backward_error(x_ref, b) <= s.backward_error(x_plain, b)


class TestPanelRefinement:
    """Multi-RHS refinement: ``(n, k)`` panels are refined per column to
    the same backward error as the corresponding single-RHS runs."""

    def test_panel_matches_single_rhs_backward_error(self, rng):
        a = laplacian_3d(6)
        s = Solver(a, tiny_blr_config(strategy="minimal-memory",
                                      tolerance=1e-4))
        s.factorize()
        b = rng.standard_normal((a.n, 4))
        res = iterative_refinement(a, b, s._precond, tol=1e-12, maxiter=20)
        assert res.x.shape == (a.n, 4)
        assert res.converged
        assert res.col_history is not None and len(res.col_history) == 4
        for j in range(4):
            col = iterative_refinement(a, np.ascontiguousarray(b[:, j]),
                                       s._precond, tol=1e-12, maxiter=20)
            err_panel = (np.linalg.norm(a.matvec(res.x[:, j]) - b[:, j])
                         / np.linalg.norm(b[:, j]))
            err_single = (np.linalg.norm(a.matvec(col.x) - b[:, j])
                          / np.linalg.norm(b[:, j]))
            assert err_panel <= max(1e-11, 10 * err_single)

    def test_panel_column_histories_match_single_rhs(self, rng):
        """Per-column histories equal the single-RHS histories exactly:
        the active-column bookkeeping must not change the arithmetic."""
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="minimal-memory",
                                      tolerance=1e-4))
        s.factorize()
        b = rng.standard_normal((a.n, 3))
        res = iterative_refinement(a, b, s._precond, tol=1e-12, maxiter=20)
        for j in range(3):
            col = iterative_refinement(a, np.ascontiguousarray(b[:, j]),
                                       s._precond, tol=1e-12, maxiter=20)
            assert res.col_history[j] == pytest.approx(list(col.history))

    def test_merged_history_is_per_column_max(self, rng):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="minimal-memory",
                                      tolerance=1e-4))
        s.factorize()
        b = rng.standard_normal((a.n, 3))
        res = iterative_refinement(a, b, s._precond, tol=1e-12, maxiter=20)
        for i, h in enumerate(res.history):
            per_col = max(c[min(i, len(c) - 1)] for c in res.col_history)
            assert h == pytest.approx(per_col)

    def test_zero_columns_converge_immediately(self, rng):
        a = laplacian_2d(4)
        s = Solver(a, tiny_blr_config())
        s.factorize()
        b = np.zeros((a.n, 2))
        b[:, 1] = rng.standard_normal(a.n)
        res = iterative_refinement(a, b, s._precond, tol=1e-12, maxiter=20)
        assert res.converged
        np.testing.assert_array_equal(res.x[:, 0], 0)
        assert res.col_history[0] == []

    def test_gmres_panel_runs_per_column(self, rng):
        a = laplacian_2d(4)
        b = rng.standard_normal((a.n, 3))
        res = gmres(a, b, tol=1e-10, maxiter=200, restart=50)
        assert res.x.shape == (a.n, 3)
        assert res.converged
        for j in range(3):
            rj = np.linalg.norm(a.matvec(res.x[:, j]) - b[:, j])
            assert rj / np.linalg.norm(b[:, j]) <= 1e-9

    def test_cg_panel_runs_per_column(self, rng):
        a = laplacian_2d(4)
        b = rng.standard_normal((a.n, 2))
        res = conjugate_gradient(a, b, tol=1e-10, maxiter=300)
        assert res.x.shape == (a.n, 2)
        assert res.converged

    def test_solver_refine_accepts_panel(self, rng):
        a = laplacian_3d(5)
        s = Solver(a, tiny_blr_config(strategy="minimal-memory",
                                      tolerance=1e-6))
        s.factorize()
        b = rng.standard_normal((a.n, 3))
        res = s.refine(b, tol=1e-12, maxiter=20)
        assert res.x.shape == (a.n, 3)
        assert res.backward_error <= 1e-10
