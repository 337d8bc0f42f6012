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
* **iterative** — refinement stagnation (no ``refine_drop``× residual
  reduction over ``refine_window`` iterations) or divergence, classified
  by :func:`repro.core.refinement.classify_history`.

The escalation ladder (:func:`escalate_config`) retries the whole solve at
a tightened tolerance (``τ × tau_shrink`` per rung, floored at
``tau_floor``) and then moves to the next compress-later loop order of
:data:`repro.core.variants.ORDER_LADDER` (cuf → ucf → dense) — at most
:attr:`RecoveryPolicy.max_retries` rungs, every action recorded once, in
the run's :class:`RecoveryState` (``Solver.last_recovery``).  Transient
task failures are retried locally
against a pre-task snapshot (:attr:`RecoveryPolicy.task_retries`, seeded
backoff) before anything escalates.

Everything is off by default: ``SolverConfig.recovery=None`` leaves every
hot path with a single ``is not None`` test.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set

import numpy as np

if TYPE_CHECKING:
    from repro.config import SolverConfig

__all__ = [
    "NumericalBreakdown",
    "RecoveryPolicy",
    "RecoveryState",
    "escalate_config",
    "find_breakdown",
]

#: breakdown causes raised by the detection layer
BREAKDOWN_CAUSES = (
    "nan-input",        # non-finite entries in the assembled column block
    "nan-factor",       # the diagonal factorization produced non-finites
    "pivot-budget",     # static pivoting perturbed more pivots than allowed
    "pivot-failure",    # threshold pivoting found no admissible pivot
    "pivot-growth",     # threshold pivoting exceeded the growth limit
    "compress-failure", # a compression kernel failed and fallback is off
)

#: the causes for which :func:`escalate_config` walks the pivoting rungs
#: (relax ``pivot_u`` → delayed-pivot dense fallback) before the legacy
#: τ-tightening / strategy-downgrade ladder
PIVOT_CAUSES = ("pivot-failure", "pivot-growth")


class NumericalBreakdown(RuntimeError):
    """A detected numerical failure, raised at the point of breakdown.

    Unlike a propagated NaN (which silently poisons everything downstream),
    a breakdown is *structured*: it names the column block, the cause (one
    of :data:`BREAKDOWN_CAUSES`) and the site, so the solver-level
    escalation ladder can decide what to do — and a bug report says where
    the factorization actually died.
    """

    def __init__(self, cause: str, cblk: Optional[int] = None,
                 site: str = "factor", detail: str = "") -> None:
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


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the self-healing layer (attach via ``SolverConfig.recovery``).

    The defaults give a production-flavoured posture: sentinels on, dense
    fallback on compression failure, two local task retries, three
    whole-solve escalation rungs, no pivot budget (perturbations are
    counted but tolerated — set :attr:`pivot_budget` to enforce one).
    """

    #: whole-solve escalation rungs (tightened τ / downgraded strategy)
    max_retries: int = 3
    #: tolerance multiplier per escalation rung (τ → τ × tau_shrink)
    tau_shrink: float = 0.1
    #: stop tightening below this tolerance; downgrade the strategy instead
    tau_floor: float = 1e-14
    #: after τ is exhausted, walk minimal-memory → just-in-time → dense
    strategy_downgrade: bool = True
    #: on compression-kernel failure, keep the block dense instead of
    #: raising (per-block fallback — the cheapest rung of the ladder)
    dense_fallback: bool = True
    #: local retries of a failed factorization task against its pre-task
    #: snapshot (transient faults); ``NumericalBreakdown`` never retries
    #: locally — deterministic causes go straight to the solver ladder
    task_retries: int = 2
    #: base seconds of the seeded exponential backoff between task retries
    retry_backoff: float = 0.0
    #: maximum tolerated fraction of perturbed pivots per diagonal block
    #: (``nperturbed > pivot_budget * width`` raises a breakdown);
    #: ``None`` disables the budget
    pivot_budget: Optional[float] = None
    #: multiplier applied to ``pivot_u`` on each relax-threshold rung of
    #: the pivoting ladder (a smaller ``u`` accepts more pivots in place)
    pivot_relax: float = 0.25
    #: stop relaxing ``pivot_u`` below this floor; the next pivoting rung
    #: turns on the delayed-pivot perturbation fallback instead
    pivot_u_floor: float = 1e-4
    #: refinement stagnates when the last ``refine_window`` iterations did
    #: not shrink the residual by ``refine_drop``×  (the "no 10× drop in k
    #: iterations" rule)
    refine_window: int = 4
    refine_drop: float = 10.0
    #: seed of the retry-backoff jitter generator
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not (0.0 < self.tau_shrink < 1.0):
            raise ValueError("tau_shrink must be in (0, 1)")
        if self.tau_floor <= 0.0:
            raise ValueError("tau_floor must be positive")
        if self.task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        if self.retry_backoff < 0.0:
            raise ValueError("retry_backoff must be >= 0")
        if self.pivot_budget is not None and self.pivot_budget < 0.0:
            raise ValueError("pivot_budget must be >= 0 (or None)")
        if not (0.0 < self.pivot_relax < 1.0):
            raise ValueError("pivot_relax must be in (0, 1)")
        if self.pivot_u_floor <= 0.0:
            raise ValueError("pivot_u_floor must be positive")
        if self.refine_window < 1:
            raise ValueError("refine_window must be >= 1")
        if self.refine_drop <= 1.0:
            raise ValueError("refine_drop must be > 1")


class RecoveryState:
    """One solver run's record of recovery actions, and its healing context.

    A :class:`~repro.core.solver.Solver` run (factorize, then its solves,
    then refinement and any escalation rungs) records into one state:
    :attr:`actions` is the one record of what was healed, read back by
    ``Solver.last_recovery`` and the RunReport.  With a policy the state is
    armed on the factor as ``fac.recovery`` and owns the seeded backoff
    generator, so retry timing is reproducible.  Without one
    (``policy=None``) it heals nothing and records only the always-on
    verdicts — a compression kernel that failed and kept its block dense.
    Thread-safe.
    """

    def __init__(self, policy: Optional[RecoveryPolicy] = None) -> None:
        self.policy = policy
        self.actions: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._rng = np.random.default_rng(
            policy.seed if policy is not None else 0)

    def record(self, action: str, site: str = "",
               cblk: Optional[int] = None, **detail: Any) -> None:
        """Log one recovery action (never silent)."""
        entry: Dict[str, Any] = {"action": action, "site": site}
        if cblk is not None:
            entry["cblk"] = int(cblk)
        entry.update(detail)
        with self._lock:
            self.actions.append(entry)

    def backoff(self, attempt: int) -> float:
        """Seeded exponential backoff (seconds) before retry ``attempt``."""
        base = self.policy.retry_backoff if self.policy is not None else 0.0
        if base <= 0.0:
            return 0.0
        with self._lock:
            jitter = float(self._rng.random())
        return base * (2.0 ** attempt) * (0.5 + jitter)

    def counts(self) -> Dict[str, int]:
        """Action-name → occurrence count of everything recorded so far."""
        counts: Dict[str, int] = self.summary()["counts"]
        return counts

    def summary(self) -> Dict[str, Any]:
        """JSON-able digest (feeds ``Solver.last_recovery`` / RunReport)."""
        with self._lock:
            actions = list(self.actions)
        counts: Dict[str, int] = {}
        for a in actions:
            name = str(a["action"])
            counts[name] = counts.get(name, 0) + 1
        return {"actions": actions, "counts": counts}


def escalate_config(config: "SolverConfig", policy: RecoveryPolicy,
                    cause: Optional[str] = None
                    ) -> Optional["SolverConfig"]:
    """The next rung of the escalation ladder, or ``None`` when exhausted.

    A static-pivoting run that blows its perturbation budget
    (``cause == 'pivot-budget'``) escalates straight to threshold
    pivoting, which interchanges instead of perturbing.  Pivoting
    breakdowns (``cause`` in :data:`PIVOT_CAUSES` on a
    threshold-pivoted config) walk the pivoting rungs first: relax the
    threshold (``pivot_u × pivot_relax`` while the result stays at or
    above ``pivot_u_floor`` — a smaller ``u`` accepts more pivots in
    place, trading growth control for progress), then enable the
    delayed-pivot perturbation fallback (``pivot_fallback=True``, the
    dense-style last resort for the block).  Only once those are
    exhausted does the legacy ladder below take over.

    The legacy ladder: tolerance tightening first (``τ × tau_shrink``
    while the result stays at or above ``tau_floor``), then a downgrade
    from the config's loop order to the next compress-later one
    (:data:`repro.core.variants.ORDER_LADDER` — denser intermediates,
    better stability): minimal-memory to just-in-time, and just-in-time
    to ``dense``.  The ``dense``
    strategy has no τ rungs left — its accuracy does not depend on τ —
    but pivoting rungs still apply to it (a dense-strategy LDLᵀ can
    still hit a pivot failure).

    Escalation reuses the cached symbolic analysis: neither the strategy,
    the tolerance, nor the pivoting knobs participate in
    ``SymbolicOptions.from_config``.
    """
    if cause == "pivot-budget" and config.pivoting == "static":
        # static perturbation blew its budget: escalate to threshold
        # pivoting, which reorders instead of perturbing (the budget is
        # only charged for perturbed pivots, so the retry starts clean)
        return config.with_options(pivoting="threshold")
    if cause in PIVOT_CAUSES and config.pivoting == "threshold":
        relaxed = config.pivot_u * policy.pivot_relax
        if relaxed >= policy.pivot_u_floor:
            return config.with_options(pivot_u=relaxed)
        if not config.pivot_fallback:
            return config.with_options(pivot_fallback=True)
    if not config.is_blr:
        return None
    new_tol = config.tolerance * policy.tau_shrink
    if new_tol >= policy.tau_floor:
        return config.with_options(tolerance=new_tol)
    if policy.strategy_downgrade:
        from repro.core.variants import ORDER_LADDER, ORDER_STRATEGIES

        nxt = ORDER_LADDER[config.resolved_variant().order]
        return config.with_options(
            strategy="dense" if nxt is None else ORDER_STRATEGIES[nxt])
    return None


def find_breakdown(exc: BaseException) -> Optional[NumericalBreakdown]:
    """The :class:`NumericalBreakdown` in ``exc``'s ``__cause__`` chain, if
    any — a breakdown re-raised wrapped must still reach the solver-level
    ladder.
    """
    seen: Set[int] = set()
    e: Optional[BaseException] = exc
    while e is not None and id(e) not in seen:
        if isinstance(e, NumericalBreakdown):
            return e
        seen.add(id(e))
        e = e.__cause__
    return None
