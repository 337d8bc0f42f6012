"""Breakdown detection and self-healing escalation policies.

The BLR solver is explicitly a *backward-stable-enough* preconditioner
(paper §V): a τ-tolerance factorization plus refinement is expected to
recover full accuracy, and PaStiX's static pivoting can silently degrade
the factors.  This module supplies the layer between "instrumented" and
"production": structured *breakdown* signals raised at the point of
failure, and a bounded, logged *escalation ladder* that turns
those signals into a completed solve instead of an aborted run.

Three kinds of breakdown are detected when a
:class:`RecoveryPolicy` is attached (``SolverConfig.recovery``):

* **numerical** — NaN/Inf sentinels on each column block's assembled input
  and factored diagonal, plus a pivot-perturbation budget
  (:class:`NumericalBreakdown` carries the column block id and cause);
* **compression** — RRQR/SVD non-convergence or an injected compression
  fault: the verdict is *keep the block dense* (never propagate garbage);
* **iterative** — refinement stagnation (no :data:`REFINE_DROP`× residual
  reduction over :data:`REFINE_WINDOW` iterations) or divergence,
  classified by :func:`repro.core.refinement.classify_history`.

The escalation ladder (:func:`escalate_config`) retries the whole solve at
a tightened tolerance (``τ × TAU_SHRINK`` per rung, floored at
:data:`TAU_FLOOR`) and then moves to the next compress-later strategy of
:data:`repro.config.STRATEGY_DOWNGRADES` (minimal-memory → just-in-time →
dense).  One loop walks it (``Solver._ladder``), whatever triggered the
rung — a breakdown or a stalled refinement — and every rung of a run
counts against one :attr:`RecoveryPolicy.max_retries`.  A breakdown is
recorded once, by the ladder that catches it; every action lands in the
run's :class:`RecoveryState` (``Solver.last_recovery``).  Transient task
failures are retried locally from the matrix entries
(:attr:`RecoveryPolicy.task_retries`) before anything escalates.

Everything is off by default: ``SolverConfig.recovery=None`` leaves every
hot path with a single ``is not None`` test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.config import STRATEGY_DOWNGRADES, SolverConfig

__all__ = [
    "NumericalBreakdown",
    "RecoveryPolicy",
    "RecoveryState",
    "escalate_config",
]

#: breakdown causes raised by the detection layer
BREAKDOWN_CAUSES = (
    "nan-input",        # non-finite entries in the assembled column block
    "nan-factor",       # the diagonal factorization produced non-finites
    "pivot-budget",     # static pivoting perturbed more pivots than allowed
    "pivot-failure",    # threshold pivoting found no admissible pivot
    "pivot-growth",     # threshold pivoting exceeded the growth limit
)

#: the causes for which :func:`escalate_config` walks the pivoting rungs
#: (relax ``pivot_u`` → delayed-pivot dense fallback) before the legacy
#: τ-tightening / strategy-downgrade ladder
PIVOT_CAUSES = ("pivot-failure", "pivot-growth")

#: tolerance multiplier per escalation rung (τ → τ × TAU_SHRINK)
TAU_SHRINK = 0.1
#: stop tightening below this tolerance; downgrade the strategy instead
TAU_FLOOR = 1e-14
#: multiplier applied to ``pivot_u`` on each relax-threshold rung of the
#: pivoting ladder (a smaller ``u`` accepts more pivots in place)
PIVOT_RELAX = 0.25
#: stop relaxing ``pivot_u`` below this floor; the next pivoting rung turns
#: on the delayed-pivot perturbation fallback instead
PIVOT_U_FLOOR = 1e-4
#: refinement stagnates when the last ``REFINE_WINDOW`` iterations did not
#: shrink the residual by ``REFINE_DROP``× (the "no 10× drop in k
#: iterations" rule)
REFINE_WINDOW = 4
REFINE_DROP = 10.0


class NumericalBreakdown(RuntimeError):
    """A detected numerical failure, raised at the point of breakdown.

    Unlike a propagated NaN (which silently poisons everything downstream),
    a breakdown is *structured*: it names the column block, the cause (one
    of :data:`BREAKDOWN_CAUSES`), the site and the cause's own facts
    (:attr:`info`: ``where`` for ``nan-input``, ``nperturbed`` for
    ``pivot-budget``, ``column`` for the pivoting causes), so the
    solver-level escalation ladder can record and climb it — and a bug
    report says where the factorization actually died.
    """

    def __init__(self, cause: str, cblk: Optional[int] = None,
                 site: str = "factor", detail: str = "",
                 **info: Any) -> None:
        msg = f"numerical breakdown [{cause}] at site {site!r}"
        if cblk is not None:
            msg += f", column block {cblk}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.cause = cause
        self.cblk = cblk
        self.site = site
        self.detail = detail
        self.info = info


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the self-healing layer (attach via ``SolverConfig.recovery``).

    The defaults give a production-flavoured posture: sentinels on, dense
    fallback on compression failure, two local task retries, three
    escalation rungs per run, no pivot budget (perturbations are counted
    but tolerated — set :attr:`pivot_budget` to enforce one).  The
    ladder's shape is fixed by this module's constants.
    """

    #: escalation rungs per run (refactorizations on a breakdown and
    #: refinement escalations together)
    max_retries: int = 3
    #: local retries of a failed factorization task against its pre-task
    #: snapshot (transient faults); ``NumericalBreakdown`` never retries
    #: locally — deterministic causes go straight to the solver ladder
    task_retries: int = 2
    #: maximum tolerated fraction of perturbed pivots per diagonal block
    #: (``nperturbed > pivot_budget * width`` raises a breakdown);
    #: ``None`` disables the budget
    pivot_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        if self.pivot_budget is not None and not self.pivot_budget >= 0.0:
            raise ValueError("pivot_budget must be >= 0 (or None)")


class RecoveryState:
    """One solver run's record of recovery actions, and its healing context.

    A :class:`~repro.core.solver.Solver` run (factorize, then its solves,
    then refinement and any escalation rungs) records into one state:
    :attr:`actions` is the one record of what was healed, read back by
    ``Solver.last_recovery`` and the RunReport, and :attr:`rungs` counts
    the escalation rungs the run climbed.  With a policy the state is
    armed on the factor as ``fac.recovery``.  Without one
    (``policy=None``) it heals nothing and records only the always-on
    verdicts — a compression kernel that failed and kept its block dense.
    """

    def __init__(self, policy: Optional[RecoveryPolicy] = None) -> None:
        self.policy = policy
        self.actions: List[Dict[str, Any]] = []
        self.rungs = 0

    def record(self, action: str, site: str = "",
               cblk: Optional[int] = None, **detail: Any) -> None:
        """Log one recovery action (never silent)."""
        entry: Dict[str, Any] = {"action": action, "site": site}
        if cblk is not None:
            entry["cblk"] = int(cblk)
        entry.update(detail)
        self.actions.append(entry)

    def climb(self, config: SolverConfig, action: str, site: str,
              cause: str, **detail: Any) -> Optional[SolverConfig]:
        """Climb one rung of the escalation ladder above ``config``.

        Returns the rung's config, recorded as ``action`` with its
        ``cause``, ``detail`` and the rung's knobs, or ``None`` when the
        ladder is exhausted or the run has spent its
        ``policy.max_retries`` rungs — whatever triggered them."""
        if self.policy is None or self.rungs >= self.policy.max_retries:
            return None
        nxt = escalate_config(config, cause)
        if nxt is not None:
            self.rungs += 1
            self.record(action, site=site, cause=cause, **detail,
                        tolerance=nxt.tolerance, strategy=nxt.strategy,
                        pivot_u=nxt.pivot_u,
                        pivot_fallback=nxt.pivot_fallback, rung=self.rungs)
        return nxt

    def counts(self) -> Dict[str, int]:
        """Action-name → occurrence count of everything recorded so far."""
        counts: Dict[str, int] = self.summary()["counts"]
        return counts

    def summary(self) -> Dict[str, Any]:
        """JSON-able digest (feeds ``Solver.last_recovery`` / RunReport)."""
        actions = list(self.actions)
        counts: Dict[str, int] = {}
        for a in actions:
            name = str(a["action"])
            counts[name] = counts.get(name, 0) + 1
        return {"actions": actions, "counts": counts}


def escalate_config(config: SolverConfig, cause: Optional[str] = None
                    ) -> Optional[SolverConfig]:
    """The next rung of the escalation ladder, or ``None`` when exhausted.

    The rung depends only on ``config`` and ``cause``; how many rungs a
    run may climb is :meth:`RecoveryState.climb`'s business.

    * A ``pivot-budget`` breakdown of a static-pivoting LDLᵗ run goes
      straight to threshold pivoting, which interchanges instead of
      perturbing (LU and Cholesky have none: they take the legacy rungs).
    * A pivoting breakdown (:data:`PIVOT_CAUSES`) under threshold pivoting
      relaxes the threshold (``pivot_u × PIVOT_RELAX`` while it stays at
      or above :data:`PIVOT_U_FLOOR` — a smaller ``u`` accepts more pivots
      in place), then turns on the delayed-pivot perturbation fallback
      (``pivot_fallback=True``).
    * Every other cause (another breakdown, a stalled refinement, none),
      and a pivoting one past those rungs, takes the legacy ladder: τ ×
      :data:`TAU_SHRINK` while it stays at or above :data:`TAU_FLOOR`,
      then the next compress-later strategy (:data:`STRATEGY_DOWNGRADES`:
      minimal-memory → just-in-time → dense).  ``dense`` has no legacy
      rung — its accuracy does not depend on τ.

    Escalation reuses the cached symbolic analysis: neither the strategy,
    the tolerance, nor the pivoting knobs participate in
    ``SymbolicOptions.from_config``.
    """
    if (cause == "pivot-budget" and config.factotype == "ldlt"
            and config.pivoting == "static"):
        # static perturbation blew its budget: escalate to threshold
        # pivoting, which reorders instead of perturbing (the budget is
        # only charged for perturbed pivots, so the retry starts clean)
        return config.with_options(pivoting="threshold")
    if cause in PIVOT_CAUSES and config.pivoting == "threshold":
        relaxed = config.pivot_u * PIVOT_RELAX
        if relaxed >= PIVOT_U_FLOOR:
            return config.with_options(pivot_u=relaxed)
        if not config.pivot_fallback:
            return config.with_options(pivot_fallback=True)
    if not config.is_blr:
        return None
    new_tol = config.tolerance * TAU_SHRINK
    if new_tol >= TAU_FLOOR:
        return config.with_options(tolerance=new_tol)
    return config.with_options(strategy=STRATEGY_DOWNGRADES[config.strategy])
