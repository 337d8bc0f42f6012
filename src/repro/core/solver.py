"""Public solver facade.

Mirrors the classic four-step direct-solver API (paper §1): ``analyze()``
(ordering + symbolic, value-free and reusable), ``factorize()`` (numerical
block factorization under the configured strategy), ``solve()`` (triangular
solves, optionally followed by refinement), and ``refine()`` (preconditioned
GMRES / CG / iterative refinement, §4.4).

>>> from repro import Solver, SolverConfig
>>> from repro.sparse.generators import laplacian_3d
>>> import numpy as np
>>> a = laplacian_3d(6)
>>> cfg = SolverConfig.laptop_scale(strategy="minimal-memory", tolerance=1e-8)
>>> s = Solver(a, cfg)
>>> stats = s.factorize()
>>> b = np.ones(a.n)
>>> x = s.solve(b)
>>> float(np.linalg.norm(a.matvec(x) - b) / np.linalg.norm(b)) < 1e-6
True
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Union

if TYPE_CHECKING:
    from repro.runtime.faults import FaultInjector

import numpy as np

from repro.config import SolverConfig
from repro.core.factor import NumericFactor, assemble
from repro.core.refinement import (
    RefinementResult,
    classify_history,
    conjugate_gradient,
    gmres,
    iterative_refinement,
)
from repro.core.scheduler import run_sequential
from repro.core.trisolve import solve_factored
from repro.lowrank.block import LowRankBlock
from repro.runtime.recovery import (
    RecoveryPolicy,
    RecoveryState,
    escalate_config,
    find_breakdown,
)
from repro.runtime.spans import span
from repro.runtime.stats import FactorizationStats
from repro.sparse.csc import CSCMatrix
from repro.sparse.permute import permute_symmetric
from repro.symbolic.factorization import SymbolicOptions, symbolic_factorization
from repro.symbolic.structure import SymbolicFactor


def _resolved_order(cfg: SolverConfig) -> Optional[str]:
    """The loop order ``cfg`` runs under (``None`` for dense), which a
    ladder rung is logged by beside its strategy."""
    v = cfg.resolved_variant()
    return v.order if v is not None else None


@contextmanager
def _kernel_calls(fac: NumericFactor, phase: str) -> Iterator[None]:
    """Charge the backend kernel calls made inside the block to
    ``fac.stats`` under ``phase``; a block that raises charges nothing."""
    before = fac.backend.counts_snapshot()
    yield
    fac.stats.add_backend_calls(fac.backend.counts_delta(before), phase)


class Solver:
    """Sparse direct solver with optional Block Low-Rank compression.

    Parameters
    ----------
    a:
        The system matrix (our CSC container; ``CSCMatrix.from_scipy``
        converts scipy matrices).  General matrices use ``factotype='lu'``
        (the pattern is symmetrized internally); SPD matrices may use
        ``factotype='cholesky'``.
    config:
        See :class:`~repro.config.SolverConfig`; defaults to a dense-like
        Just-In-Time/RRQR configuration at paper-scale thresholds.
    """

    def __init__(self, a: CSCMatrix, config: Optional[SolverConfig] = None,
                 coords: Optional[np.ndarray] = None) -> None:
        if not isinstance(a, CSCMatrix):
            raise TypeError("a must be a repro CSCMatrix "
                            "(use CSCMatrix.from_scipy for scipy input)")
        if a.nnz and not np.isfinite(a.values).all():
            raise ValueError("matrix contains NaN or Inf entries")
        self.config = config or SolverConfig()
        self._take_values(a)
        #: node coordinates (required by ordering='geometric')
        self.coords = coords
        self.symbolic: Optional[SymbolicFactor] = None
        self.perm: Optional[np.ndarray] = None
        self.factor: Optional[NumericFactor] = None
        self.analyze_time: float = 0.0
        #: result of the last :meth:`refine` call: the run's record of the
        #: residual history (feeds :meth:`run_report`)
        self.last_refinement: Optional[RefinementResult] = None
        #: the current run's one record of recovery actions: replaced by
        #: each :meth:`factorize`, recorded into by its solves, refinement
        #: and escalation rungs
        self._recovery = RecoveryState(self.config.recovery)
        #: the config of the latest factorization attempt (an escalation
        #: rung's, once the ladder moved)
        self._run_config = self.config

    def _take_values(self, a: CSCMatrix) -> None:
        """Adopt ``a`` as the system matrix.

        Sets :attr:`dtype`, the arithmetic dtype of the factorization
        (config.dtype wins; a complex matrix with a real config.dtype
        raises here), checks the symmetry cholesky/ldlt require, and builds
        the pattern-symmetric working copy in that dtype.  ``self.a`` keeps
        the caller's values so residuals and refinement stay honest.
        """
        dtype = self.config.resolve_dtype(a.values.dtype)
        if self.config.is_symmetric_facto:
            hermitian = a.values.dtype.kind == "c"
            if not a.is_symmetric(tol=0.0, hermitian=hermitian):
                raise ValueError(
                    "cholesky/ldlt factorization requires a "
                    + ("Hermitian" if hermitian else "symmetric")
                    + " matrix")
        a_sym = a if a.is_pattern_symmetric() else a.symmetrize_pattern()
        if a_sym.values.dtype != dtype:
            a_sym = CSCMatrix(a_sym.n, a_sym.colptr, a_sym.rowind,
                              a_sym.values.astype(dtype), check=False)
        self.a, self.dtype, self._a_sym = a, dtype, a_sym

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.a.n

    @property
    def stats(self) -> Optional[FactorizationStats]:
        return None if self.factor is None else self.factor.stats

    @property
    def last_recovery(self) -> Optional[Dict[str, Any]]:
        """JSON-able digest of the current run's recovery record (policy,
        attempts, final rung, actions + counts), or ``None`` when no
        recovery policy is armed and nothing was recorded (feeds
        :meth:`run_report`)."""
        state = self._recovery
        summary = state.summary()
        if state.policy is None and not summary["actions"]:
            return None
        counts = summary["counts"]
        cfg = self._run_config
        return {"policy": (None if state.policy is None
                           else asdict(state.policy)),
                "attempts": (1 + counts.get("refactorize", 0)
                             + counts.get("refine_escalation", 0)),
                "final_tolerance": cfg.tolerance,
                "final_strategy": cfg.strategy,
                "final_order": _resolved_order(cfg),
                **summary}

    # -- step 1+2: analysis ------------------------------------------------
    def analyze(self) -> SymbolicFactor:
        """Ordering + symbolic block factorization (cached, value-free)."""
        if self.symbolic is None:
            t0 = time.perf_counter()
            opts = SymbolicOptions.from_config(self.config)
            prof = self.config.profiler
            with span(prof, "analyze", n=self.n):
                self.symbolic, self.perm = symbolic_factorization(
                    self._a_sym, opts, coords=self.coords, profiler=prof,
                    symmetric=True)
            self.analyze_time = time.perf_counter() - t0
        return self.symbolic

    # -- step 3: numerical factorization ------------------------------------
    def _factorize_once(self, cfg: SolverConfig,
                        faults: Optional["FaultInjector"]
                        ) -> FactorizationStats:
        """One assemble-and-factor attempt under ``cfg`` (one ladder rung)."""
        self.analyze()
        self._run_config = cfg
        state = self._recovery
        # engine facts live in profiler.meta — span attrs hold only
        # config-derived facts
        with span(cfg.profiler, "factorize", strategy=cfg.strategy):
            a_perm = permute_symmetric(self._a_sym, self.perm)
            t0 = time.perf_counter()
            with span(cfg.profiler, "assemble"):
                fac = assemble(a_perm, self.symbolic, cfg, state)
            fac.faults = faults
            with _kernel_calls(fac, "factorize"):
                run_sequential(fac)
            stats = fac.stats
            stats.total_time = time.perf_counter() - t0
            stats.factor_nbytes = fac.factor_nbytes()
            stats.dense_factor_nbytes = fac.dense_factor_nbytes()
            stats.peak_nbytes = fac.tracker.peak
            ncomp = ndense = 0
            for nc in fac.cblks:
                if nc.lblocks is None:
                    ndense += nc.sym.noff
                    continue
                for blk in nc.lblocks:
                    if isinstance(blk, LowRankBlock):
                        ncomp += 1
                    else:
                        ndense += 1
            stats.nblocks_compressed = ncomp
            stats.nblocks_dense = ndense
            self.factor = fac
            return stats

    def factorize(self, faults: Optional["FaultInjector"] = None
                  ) -> FactorizationStats:
        """Assemble and factor under the configured strategy; returns the
        per-kernel statistics (the rows of Table 2).

        With ``config.profiler`` set, every task and kernel is recorded as
        a span (see ``docs/observability.md``).  ``faults`` attaches
        a :class:`~repro.runtime.faults.FaultInjector` for the run — a
        testing hook, never set in production paths.

        With ``config.recovery`` set, a structured
        :class:`~repro.runtime.recovery.NumericalBreakdown` triggers the
        escalation ladder: the whole factorization is retried at a
        tightened tolerance (then a later-compressing loop order, last
        dense), at most
        ``recovery.max_retries`` times; every action lands in
        :attr:`last_recovery`.  A new factorization starts a new run record.
        """
        policy = self.config.recovery
        self._recovery = state = RecoveryState(policy)
        if policy is None:
            return self._factorize_once(self.config, faults)
        cfg = self.config
        rung = 0
        while True:
            try:
                return self._factorize_once(cfg, faults)
            except Exception as exc:
                breakdown = find_breakdown(exc)
                nxt = (escalate_config(cfg, policy, cause=breakdown.cause)
                       if breakdown is not None and rung < policy.max_retries
                       else None)
                if nxt is None:
                    raise
                rung += 1
                state.record("refactorize", site="solver",
                             cause=breakdown.cause, cblk=breakdown.cblk,
                             tolerance=nxt.tolerance, strategy=nxt.strategy,
                             order=_resolved_order(nxt),
                             pivot_u=nxt.pivot_u,
                             pivot_fallback=nxt.pivot_fallback,
                             rung=rung)
                cfg = nxt

    # -- step 4: solves -----------------------------------------------------
    def solve(self, b: np.ndarray, refine: bool = False,
              refine_tol: float = 1e-12, refine_maxiter: int = 20,
              trans: bool = False) -> np.ndarray:
        """Solve ``A x = b`` (single vector or multiple right-hand sides).

        ``b`` may be a vector ``(n,)`` or a panel ``(n, k)`` of right-hand
        sides; the result has the same shape.  Panels solve blocked
        through the column-stable panel kernels, so a float64 panel solve
        equals its ``k`` single-RHS solves bit-for-bit.  ``trans=True``
        solves ``Aᵗ x = b`` instead (same factors, mirrored triangular
        sweeps — symmetric factorizations are unaffected).  With
        ``refine=True`` one runs the paper's default post-processing:
        preconditioned GMRES (CG for Cholesky factorizations) until
        ``refine_tol`` or ``refine_maxiter`` — panels refine with
        per-column convergence tracking.  Refinement of the transposed
        system is not supported (``trans=True`` with ``refine=True``
        raises ``ValueError``).
        """
        if self.factor is None:
            self.factorize()
        b = np.asarray(b)
        if b.dtype.kind not in "fc":
            b = b.astype(np.float64)
        if b.dtype.kind == "c" and self.factor.dtype.kind != "c":
            raise ValueError(
                "complex right-hand side against a real factorization "
                "would discard imaginary parts; factor with "
                "config.dtype='complex128' (or solve real/imag parts "
                "separately)")
        if refine and trans:
            raise ValueError(
                "refine=True is not implemented for the transposed system "
                "(the preconditioner applies A^-1, not A^-T)")
        if b.shape[0] != self.n:
            raise ValueError(
                f"right-hand side has {b.shape[0]} rows, expected {self.n}")
        if b.size and not np.isfinite(b).all():
            raise ValueError("right-hand side contains NaN or Inf entries")
        t0 = time.perf_counter()
        with _kernel_calls(self.factor, "solve"), \
                span(self.config.profiler, "solve",
                     nrhs=(1 if b.ndim == 1 else b.shape[1]), trans=trans):
            x = self._precond(b, trans=trans)
        self.factor.stats.solve_time += time.perf_counter() - t0
        if refine:
            res = self.refine(b, x0=x, tol=refine_tol, maxiter=refine_maxiter)
            return res.x
        return x

    def _precond(self, r: np.ndarray, trans: bool = False) -> np.ndarray:
        """Permute, triangular solves, permute back: the solve step, and
        one application of the factorization as refinement's preconditioner.

        The solve is read-only on the factors, so a transient failure
        (injected or environmental) is safe to simply re-run: it is retried
        once under a recovery policy, and the retry is recorded on the
        run."""
        pr = r[self.perm]
        try:
            y = solve_factored(self.factor, pr, trans=trans)
        except Exception as exc:
            policy = self._recovery.policy
            if policy is None or policy.task_retries <= 0:
                raise
            self._recovery.record("task_retry", site="trisolve",
                                  error=type(exc).__name__)
            y = solve_factored(self.factor, pr, trans=trans)
        z = np.empty_like(y)
        z[self.perm] = y
        return z

    def _run_refinement(self, method: str, b: np.ndarray,
                        x0: Optional[np.ndarray], tol: float,
                        maxiter: int) -> RefinementResult:
        """Dispatch one refinement run; its result is the run's record of
        the residual history (:attr:`last_refinement`).  Its
        preconditioner applications are charged to the ``refine`` phase."""
        with _kernel_calls(self.factor, "refine"), \
                span(self.config.profiler, "refinement",
                     method=method) as late:
            if method == "gmres":
                res = gmres(self.a, b, precond=self._precond, tol=tol,
                            maxiter=maxiter, x0=x0)
            elif method == "cg":
                res = conjugate_gradient(self.a, b, precond=self._precond,
                                         tol=tol, maxiter=maxiter, x0=x0)
            elif method == "ir":
                res = iterative_refinement(self.a, b, precond=self._precond,
                                           tol=tol, maxiter=maxiter, x0=x0)
            else:
                raise ValueError(f"unknown refinement method {method!r}")
            late["converged"] = res.converged
            late["iterations"] = len(res.residual_history)
        self.last_refinement = res
        return res

    def refine(self, b: np.ndarray, x0: Optional[np.ndarray] = None,
               method: Optional[str] = None, tol: float = 1e-12,
               maxiter: int = 20) -> RefinementResult:
        """Refine a solution with the BLR-preconditioned iterative solver.

        ``method`` defaults to CG for Cholesky factorizations and GMRES
        otherwise (paper §4.4); ``"ir"`` selects plain iterative refinement.

        With ``config.recovery`` set, a run that stagnates (no
        ``refine_drop``× residual reduction over ``refine_window``
        iterations) or diverges triggers the escalation ladder: the matrix
        is re-factored at a tightened tolerance (then a later-compressing
        loop order, last dense) and refinement re-runs from the best
        iterate, at most
        ``recovery.max_retries`` times.
        """
        if self.factor is None:
            self.factorize()
        if method is None:
            method = "cg" if self.config.is_symmetric_facto else "gmres"
        res = self._run_refinement(method, b, x0, tol, maxiter)
        policy = self.config.recovery
        if policy is not None and not res.converged:
            res = self._refine_escalate(method, b, res, tol, maxiter,
                                        policy)
        return res

    def _refine_escalate(self, method: str, b: np.ndarray,
                         res: RefinementResult, tol: float, maxiter: int,
                         policy: RecoveryPolicy) -> RefinementResult:
        """Tighten the preconditioner until refinement stops stalling."""
        stagnated, diverged = classify_history(
            res.history, window=policy.refine_window,
            drop=policy.refine_drop)
        if not (stagnated or diverged):
            return res
        cfg = self._run_config
        for _ in range(policy.max_retries):
            nxt = escalate_config(cfg, policy)
            if nxt is None:
                break
            self._recovery.record(
                "refine_escalation", site="refinement",
                cause="diverged" if diverged else "stagnated",
                tolerance=nxt.tolerance, strategy=nxt.strategy,
                order=_resolved_order(nxt),
                backward_error=res.backward_error)
            self._factorize_once(nxt, None)
            cfg = nxt
            # a diverged iterate is a poor starting guess: restart clean
            x0 = None if diverged else res.x
            res = self._run_refinement(method, b, x0, tol, maxiter)
            if res.converged:
                break
            stagnated, diverged = classify_history(
                res.history, window=policy.refine_window,
                drop=policy.refine_drop)
            if not (stagnated or diverged):
                break
        return res

    # -- same-pattern refactorization ----------------------------------------
    def update_values(self, a: CSCMatrix) -> None:
        """Swap in a new matrix with the *same sparsity pattern*.

        The analysis (ordering + symbolic structure) is value-free and is
        kept; the next :meth:`factorize`/:meth:`solve` call refactors the
        new values.  This is the paper's §1 use case: "these steps can be
        computed once to solve multiple problems similar in structure but
        with different numerical values".
        """
        if not isinstance(a, CSCMatrix):
            raise TypeError("a must be a repro CSCMatrix")
        if a.n != self.a.n:
            raise ValueError("new matrix must have the same dimension")
        if not (np.array_equal(a.colptr, self.a.colptr)
                and np.array_equal(a.rowind, self.a.rowind)):
            raise ValueError("new matrix must share the sparsity pattern")
        self._take_values(a)
        self.factor = None  # numerical state is stale; analysis is kept

    # -- persistence -----------------------------------------------------
    def save_factor(self, path: Union[str, Path]) -> "Path":
        """Save the factorization (blocks + analysis + config) to a file.

        The archive is self-contained: :meth:`load_factor` restores a
        solver able to run :meth:`solve`/:meth:`refine` without
        re-factorizing — a compressed (BLR) factorization saves
        proportionally smaller archives.
        """
        from repro.core.serialize import save_factor as _save

        if self.factor is None:
            self.factorize()
        return _save(self.factor, self.perm, path)

    @classmethod
    def load_factor(cls, a: CSCMatrix, path: Union[str, Path]) -> "Solver":
        """Rebuild a solver from :meth:`save_factor` output.

        ``a`` must be the matrix the factorization was computed from (it is
        needed for residuals/refinement; the archive stores only factors).
        """
        from repro.core.serialize import load_factor as _load

        fac, perm = _load(path)
        if a.n != fac.symb.n:
            raise ValueError("matrix dimension does not match the archive")
        solver = cls(a, fac.config)
        if solver.dtype != fac.dtype:
            raise ValueError(
                f"archive dtype {fac.dtype.name} does not match this "
                f"solver's dtype {solver.dtype.name}")
        solver.symbolic = fac.symb
        solver.perm = perm
        solver.factor = fac
        return solver

    # -- diagnostics ---------------------------------------------------------
    def slogdet(self) -> tuple:
        """(sign, log|det(A)|) from the factored diagonal blocks.

        Exact for the dense strategy; BLR strategies return the determinant
        of the τ-perturbed factorization.
        """
        from repro.analysis.diagnostics import factor_slogdet

        if self.factor is None:
            self.factorize()
        return factor_slogdet(self.factor)

    def inertia(self) -> tuple:
        """(n_negative, n_zero, n_positive) eigenvalue counts; requires a
        symmetric (``ldlt``/``cholesky``) factorization."""
        from repro.analysis.diagnostics import factor_inertia

        if self.factor is None:
            self.factorize()
        return factor_inertia(self.factor)

    def condest(self, maxiter: int = 10) -> float:
        """Hager–Higham 1-norm condition-number estimate ``κ₁(A)``."""
        from repro.analysis.diagnostics import condest_1norm

        if self.factor is None:
            self.factorize()
        return condest_1norm(self.a, self.factor, self.perm,
                             maxiter=maxiter)

    def backward_error(self, x: np.ndarray, b: np.ndarray) -> float:
        """``||A x - b||₂ / ||b||₂`` — the metric printed above every bar of
        Figures 5 and 6.  Diagnostic cold path: two full-length vector
        norms per call, outside the blocked kernel module."""
        return float(np.linalg.norm(self.a.matvec(x) - b)
                     / np.linalg.norm(b))

    # -- telemetry / reporting -----------------------------------------------
    def run_report(self, workload: Optional[str] = None,
                   backward_error: Optional[float] = None
                   ) -> Dict[str, Any]:
        """One JSON-able ``RunReport`` artifact for the current run.

        Aggregates the factorization statistics and backend kernel calls,
        compression/rank breakdown, refinement residual history, recovery
        actions, the telemetry timeline (memory high-water and
        rank-evolution series — when ``config.telemetry`` is attached)
        and, with
        ``config.profiler``, the span rollup and task summary.  Render
        it with ``repro report`` or
        :func:`repro.analysis.report.render_markdown`.
        """
        from repro.analysis.report import build_run_report

        if self.factor is None:
            self.factorize()
        return build_run_report(self, workload=workload,
                                backward_error=backward_error)
