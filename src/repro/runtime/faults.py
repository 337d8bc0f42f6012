"""Deterministic fault injection for the factorization runtime.

Task failure paths (exceptions, NaN corruption) are impossible to
exercise from the public API — the numerical kernels simply do not fail on
well-posed test matrices.  A :class:`FaultInjector` attached to
a :class:`~repro.core.factor.NumericFactor` (``fac.faults``) makes them
testable: the drivers call :meth:`FaultInjector.on_factor` /
:meth:`FaultInjector.on_update` at the top of every task — and, since the
recovery layer landed, :meth:`on_compress` at every compression point,
:meth:`on_trisolve` at the top of every triangular solve, and
:meth:`on_serialize` before every factor archive write — and the
injector fires whatever faults were registered for that site.

All choices are deterministic: faults are registered for explicit column
blocks, and :meth:`pick_block` derives "random" blocks from the injector's
seeded generator so a test can reproduce a failure exactly.

Fault actions (fired in registration order when several are registered):

* ``nan`` — overwrite one entry of the column block's first off-diagonal
  block (or diagonal block) with NaN (silent-corruption drills);
* ``raise`` — raise :class:`FaultError` (or a caller-supplied exception).

**Transient faults** (``transient=True`` on any registration) fire exactly
once and then heal — the deterministic model of a flaky worker, a cosmic
ray, or a kernel hiccup.  They are what the recovery layer's retry paths
are tested against: the first attempt dies, the retry finds the site
healthy.  An injector belongs to the one thread that runs its solver.

Every fault that fires is appended to :attr:`FaultInjector.fired` so tests
can assert on what actually happened.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.factor import NumericColumnBlock, NumericFactor

import numpy as np

from repro.lowrank.block import LowRankBlock

__all__ = ["FaultError", "FaultInjector"]


class FaultError(RuntimeError):
    """An injected (deliberate, test-only) failure."""


def _poison(nc: "NumericColumnBlock") -> None:
    """NaN into the first entry of ``nc``'s first off-diagonal L block — a
    dense block's ``[0, 0]``, a low-rank block's ``u[0, 0]`` — or of its
    diagonal block when it has none."""
    blk = nc.lblock(0) if nc.sym.noff else nc.diag
    (blk.u if isinstance(blk, LowRankBlock) else blk)[0, 0] = np.nan


class FaultInjector:
    """Seedable registry of faults, fired by site.

    Sites: ``factor`` / ``update`` (per column block), ``compress`` (per
    column block, at the JIT/minimal-memory compression points),
    ``trisolve`` (once per :func:`~repro.core.trisolve.solve_factored`
    call) and ``serialize`` (before every archive write).  One registry
    holds them all, keyed by ``(site, cblk, target)``; siteless hooks —
    trisolve/serialize — use ``cblk = -1``.
    """

    def __init__(self, seed: Optional[int] = 0) -> None:
        self.rng = np.random.default_rng(seed)
        #: faults fired so far: (site, cblk, target, action) tuples
        self.fired: List[Tuple[str, int, Optional[int], str]] = []
        self._faults: Dict[Tuple[str, int, Optional[int]], List[dict]] = {}

    # -- deterministic choices ----------------------------------------
    def pick_block(self, ncblk: int, low: int = 0) -> int:
        """A reproducible 'random' column block in ``[low, ncblk)``."""
        if ncblk <= low:
            raise ValueError("empty block range")
        return int(self.rng.integers(low, ncblk))

    # -- registration --------------------------------------------------
    def _arm(self, site: str, k: int, target: Optional[int] = None,
             exc: Optional[BaseException] = None, transient: bool = False,
             action: str = "raise") -> None:
        self._faults.setdefault((site, k, target), []).append(
            {"action": action, "exc": exc,
             "transient": transient, "spent": False})

    def fail_factor(self, k: int, exc: Optional[BaseException] = None,
                    transient: bool = False) -> None:
        """Raise when column block ``k`` is about to be factored.

        ``transient=True`` fires once, then heals."""
        self._arm("factor", k, exc=exc, transient=transient)

    def fail_update(self, k: int, target: Optional[int] = None,
                    exc: Optional[BaseException] = None,
                    transient: bool = False) -> None:
        """Raise when updates from ``k`` (optionally only those aimed at
        ``target``) are about to be applied."""
        self._arm("update", k, target, exc, transient)

    def nan_in_panel(self, k: int, transient: bool = False) -> None:
        """Poison the first entry of ``k``'s first off-diagonal block
        (falling back to the diagonal block when ``k`` has no off-diagonal
        rows) just before ``k`` is factored."""
        self._arm("factor", k, transient=transient, action="nan")

    def fail_compress(self, k: int, exc: Optional[BaseException] = None,
                      transient: bool = False) -> None:
        """Raise when column block ``k``'s blocks are about to be
        compressed (the JIT compression point, or the minimal-memory one
        as the task fills the column block — whichever the strategy
        reaches)."""
        self._arm("compress", k, exc=exc, transient=transient)

    def fail_trisolve(self, exc: Optional[BaseException] = None,
                      transient: bool = False) -> None:
        """Raise at the top of the next triangular solve
        (:func:`~repro.core.trisolve.solve_factored`) — once per *solve
        call*, not per block."""
        self._arm("trisolve", -1, exc=exc, transient=transient)

    def fail_serialize(self, exc: Optional[BaseException] = None,
                       transient: bool = False) -> None:
        """Raise when a factor archive is about to be written (exercises
        how a failed :func:`~repro.core.serialize.save_factor` surfaces)."""
        self._arm("serialize", -1, exc=exc, transient=transient)

    # -- firing (called from the factorization drivers) ----------------
    def _fire(self, site: str, k: int, target: Optional[int], what: str,
              fac: Optional["NumericFactor"] = None) -> None:
        """Fire the live faults registered for ``(site, k, target)`` — and,
        for a targeted update, those registered for every target of
        ``k`` — in registration order.  A transient fault fires once."""
        faults = list(self._faults.get((site, k, target), ()))
        if target is not None:
            faults += self._faults.get((site, k, None), ())
        for fault in faults:
            if fault["transient"] and fault["spent"]:
                continue
            fault["spent"] = fault["transient"]
            self.fired.append((site, k, target, fault["action"]))
            if fault["action"] == "nan" and fac is not None:
                _poison(fac.cblks[k])
            else:
                raise fault["exc"] or FaultError(f"injected {what}")

    def on_factor(self, fac: "NumericFactor", k: int) -> None:
        self._fire("factor", k, None, f"failure factoring column block {k}", fac)

    def on_update(self, fac: "NumericFactor", k: int,
                  target: Optional[int]) -> None:
        self._fire("update", k, target,
                   f"failure applying updates from column block {k}"
                   + (f" to {target}" if target is not None else ""))

    def on_compress(self, fac: "NumericFactor", k: int) -> None:
        """Fired just before column block ``k``'s compression."""
        self._fire("compress", k, None, f"compression failure on column block {k}")

    def on_trisolve(self, fac: "NumericFactor") -> None:
        """Fired at the top of every :func:`solve_factored` call."""
        self._fire("trisolve", -1, None, "failure in the triangular solve")

    def on_serialize(self, path: str) -> None:
        """Fired just before a factor archive is written."""
        self._fire("serialize", -1, None, f"failure writing archive {path}")
