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

Fault actions (applied in this order when several are registered):

* ``nan`` — overwrite one entry of the column block's panel (or diagonal
  block) with NaN (silent-corruption drills);
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
    from repro.core.factor import NumericFactor

import numpy as np

__all__ = ["FaultError", "FaultInjector"]


class FaultError(RuntimeError):
    """An injected (deliberate, test-only) failure."""


class FaultInjector:
    """Seedable registry of faults, fired by site.

    Sites: ``factor`` / ``update`` (per column block), ``compress`` (per
    column block, at the JIT/minimal-memory compression points),
    ``trisolve`` (once per :func:`~repro.core.trisolve.solve_factored`
    call) and ``serialize`` (before every archive write).
    """

    def __init__(self, seed: Optional[int] = 0) -> None:
        self.rng = np.random.default_rng(seed)
        #: faults fired so far: (site, cblk, target, action) tuples
        #: (siteless hooks — trisolve/serialize — use cblk = -1)
        self.fired: List[Tuple[str, int, Optional[int], str]] = []
        self._factor: Dict[int, List[dict]] = {}
        self._update: Dict[Tuple[int, Optional[int]], List[dict]] = {}
        self._compress: Dict[int, List[dict]] = {}
        self._trisolve: List[dict] = []
        self._serialize: List[dict] = []

    # -- deterministic choices ----------------------------------------
    def pick_block(self, ncblk: int, low: int = 0) -> int:
        """A reproducible 'random' column block in ``[low, ncblk)``."""
        if ncblk <= low:
            raise ValueError("empty block range")
        return int(self.rng.integers(low, ncblk))

    # -- registration --------------------------------------------------
    def fail_factor(self, k: int, exc: Optional[BaseException] = None,
                    transient: bool = False) -> None:
        """Raise when column block ``k`` is about to be factored.

        ``transient=True`` fires once, then heals."""
        self._factor.setdefault(k, []).append(
            {"action": "raise", "exc": exc,
             "transient": transient, "spent": False})

    def fail_update(self, k: int, target: Optional[int] = None,
                    exc: Optional[BaseException] = None,
                    transient: bool = False) -> None:
        """Raise when updates from ``k`` (optionally only those aimed at
        ``target``) are about to be applied."""
        self._update.setdefault((k, target), []).append(
            {"action": "raise", "exc": exc,
             "transient": transient, "spent": False})

    def nan_in_panel(self, k: int, transient: bool = False) -> None:
        """Poison one entry of ``k``'s off-diagonal panel (falling back to
        the diagonal block when ``k`` has no off-diagonal rows) just before
        ``k`` is factored."""
        self._factor.setdefault(k, []).append(
            {"action": "nan", "transient": transient, "spent": False})

    def fail_compress(self, k: int, exc: Optional[BaseException] = None,
                      transient: bool = False) -> None:
        """Raise when column block ``k``'s blocks are about to be
        compressed (the JIT compression point, or the minimal-memory one
        as the task fills the column block — whichever the strategy
        reaches)."""
        self._compress.setdefault(k, []).append(
            {"action": "raise", "exc": exc,
             "transient": transient, "spent": False})

    def fail_trisolve(self, exc: Optional[BaseException] = None,
                      transient: bool = False) -> None:
        """Raise at the top of the next triangular solve
        (:func:`~repro.core.trisolve.solve_factored`) — once per *solve
        call*, not per block."""
        self._trisolve.append(
            {"action": "raise", "exc": exc,
             "transient": transient, "spent": False})

    def fail_serialize(self, exc: Optional[BaseException] = None,
                       transient: bool = False) -> None:
        """Raise when a factor archive is about to be written (exercises
        how a failed :func:`~repro.core.serialize.save_factor` surfaces)."""
        self._serialize.append(
            {"action": "raise", "exc": exc,
             "transient": transient, "spent": False})

    # -- firing (called from the factorization drivers) ----------------
    def _mark(self, site: str, k: int, target: Optional[int],
              action: str) -> None:
        self.fired.append((site, k, target, action))

    def _take(self, fault: dict) -> bool:
        """Claim a fault for firing; ``False`` when a transient fault has
        already fired (healed)."""
        live = not (fault["transient"] and fault["spent"])
        fault["spent"] = fault["transient"]
        return live

    def on_factor(self, fac: "NumericFactor", k: int) -> None:
        for fault in self._factor.get(k, ()):
            action = fault["action"]
            if not self._take(fault):
                continue
            if action == "nan":
                self._mark("factor", k, None, "nan")
                nc = fac.cblks[k]
                if nc.lpanel is not None and nc.offrows:
                    nc.lpanel[0, 0] = np.nan
                else:
                    nc.diag[0, 0] = np.nan
            elif action == "raise":
                self._mark("factor", k, None, "raise")
                raise (fault["exc"] or
                       FaultError(f"injected failure factoring "
                                  f"column block {k}"))

    def on_update(self, fac: "NumericFactor", k: int,
                  target: Optional[int]) -> None:
        faults = list(self._update.get((k, target), ()))
        if target is not None:
            faults += self._update.get((k, None), ())
        for fault in faults:
            if not self._take(fault):
                continue
            self._mark("update", k, target, "raise")
            raise (fault["exc"] or
                   FaultError(f"injected failure applying updates from "
                              f"column block {k}"
                              + (f" to {target}" if target is not None
                                 else "")))

    def on_compress(self, fac: "NumericFactor", k: int) -> None:
        """Fired just before column block ``k``'s compression."""
        for fault in self._compress.get(k, ()):
            if not self._take(fault):
                continue
            self._mark("compress", k, None, "raise")
            raise (fault["exc"] or
                   FaultError(f"injected compression failure on "
                              f"column block {k}"))

    def on_trisolve(self, fac: "NumericFactor") -> None:
        """Fired at the top of every :func:`solve_factored` call."""
        for fault in self._trisolve:
            if not self._take(fault):
                continue
            self._mark("trisolve", -1, None, "raise")
            raise (fault["exc"] or
                   FaultError("injected failure in the triangular solve"))

    def on_serialize(self, path: str) -> None:
        """Fired just before a factor archive is written."""
        for fault in self._serialize:
            if not self._take(fault):
                continue
            self._mark("serialize", -1, None, "raise")
            raise (fault["exc"] or
                   FaultError(f"injected failure writing archive {path}"))
