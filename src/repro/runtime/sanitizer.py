"""Eraser-style runtime race sanitizer (the dynamic half of the analysis).

The static lockset engine (``tools/solverlint/dataflow.py``) proves what it
can see in the source; this module watches what actually happens.  A
:class:`RaceSanitizer` applies the classic Eraser lockset algorithm
[Savage et al., SOSP '97] to the solver's *named shared structures* — the
scheduler's pending/processed counters, per-column-block factor storage,
:class:`~repro.runtime.recovery.RecoveryState` and the telemetry registry:

* every instrumented access reports ``(thread, variable, kind, lockset)``
  where the lockset is the set of :meth:`wrap_lock`-tracked locks the
  calling thread currently holds;
* per variable the monitor runs Virgin → Exclusive(owner) → Shared /
  Shared-Modified, intersecting the candidate lockset ``C(v)`` on every
  access once a second thread appears;
* a write leaving ``C(v)`` empty is a candidate race — recorded with both
  access sites and raised as a structured :class:`RaceReport` by
  :meth:`check` (the solver calls it right after the scheduler join).

Instrumentation is *structure-grained*, not element-grained: one event per
task/structure touch, never per matrix entry, so the factorization's
numerical work is untouched and overhead stays bounded (a deque append and
a few set operations per event, ≤ ``max_events`` retained).  Measured on the
threaded suites this costs single-digit percent wall clock — ~6% on a
4-thread BLR factorization (see docs/static-analysis.md for the numbers).

One deliberate blind spot, shared with Eraser: initialization and join
transfer — handled with :meth:`epoch`, called by the schedulers at spawn
and after join, so the main thread's setup and teardown accesses never
poison worker-phase state.

Enable via ``SolverConfig(sanitize=True)`` or ``$REPRO_TSAN=1``; dump the
bounded event log with :meth:`dump` (the CI tsan job uploads it as an
artifact, path from ``$REPRO_TSAN_LOG``).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, FrozenSet, List, Union

__all__ = [
    "RaceReport",
    "RaceSanitizer",
    "TrackedLock",
]

#: Eraser variable states
_VIRGIN = "virgin"
_EXCLUSIVE = "exclusive"
_SHARED = "shared"
_SHARED_MOD = "shared-modified"


class RaceReport(RuntimeError):
    """A candidate data race detected by the lockset tracker.

    ``races`` holds one dict per offending variable with the conflicting
    access sites, threads and the (empty) candidate lockset at detection.
    """

    def __init__(self, races: List[Dict[str, Any]]) -> None:
        self.races = races
        lines = [f"{len(races)} candidate race(s) detected:"]
        for r in races:
            lines.append(
                f"  {r['var']}: {r['kind']} at {r['site']} "
                f"[thread {r['thread']}] conflicts with prior access at "
                f"{r['prior_site']} [thread {r['prior_thread']}] — "
                f"no common lock (lockset={sorted(r['lockset'])})")
        super().__init__("\n".join(lines))


class TrackedLock:
    """A ``threading.Lock`` proxy that maintains the holder's lockset."""

    def __init__(self, lock: Any, name: str, san: "RaceSanitizer") -> None:
        self._lock = lock
        self._name = name
        self._san = san

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._lock.acquire(blocking, timeout)
        if got:
            self._san._held().add(self._name)
        return got

    def release(self) -> None:
        self._san._held().discard(self._name)
        self._lock.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def locked(self) -> bool:
        return bool(self._lock.locked())


class RaceSanitizer:
    """Per-run Eraser lockset monitor for the solver's shared structures."""

    def __init__(self, max_events: int = 20000) -> None:
        #: internal mutex — deliberately NOT a TrackedLock
        self._mu = threading.Lock()
        self._local = threading.local()
        #: var → {state, owner, lockset, prior_site, prior_thread}
        self._vars: Dict[str, Dict[str, Any]] = {}
        self._races: List[Dict[str, Any]] = []
        self._raced: set = set()  # vars already reported (one race per var)
        self.events: Deque[Dict[str, Any]] = deque(maxlen=max_events)
        self.total_events = 0

    # -- lockset plumbing ----------------------------------------------
    def _held(self) -> set:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = set()
        return held

    def wrap_lock(self, lock: Any, name: str) -> TrackedLock:
        """Wrap a lock so the tracker sees it in holders' locksets."""
        return TrackedLock(lock, name, self)

    # -- the state machine ---------------------------------------------
    def note(self, var: str, kind: str, site: str = "") -> None:
        """Record one access (``kind`` is ``"read"`` or ``"write"``)."""
        tid = threading.current_thread().name
        lockset: FrozenSet[str] = frozenset(self._held())
        with self._mu:
            self.total_events += 1
            self.events.append({
                "var": var, "kind": kind, "thread": tid,
                "lockset": sorted(lockset), "site": site,
            })
            st = self._vars.get(var)
            if st is None or st["state"] == _VIRGIN:
                self._vars[var] = {
                    "state": _EXCLUSIVE, "owner": tid, "lockset": None,
                    "prior_site": site, "prior_thread": tid,
                }
                return
            if st["state"] == _EXCLUSIVE:
                if st["owner"] == tid:
                    st["prior_site"], st["prior_thread"] = site, tid
                    return
                # second thread: start lockset refinement
                st["state"] = _SHARED_MOD if kind == "write" else _SHARED
                st["lockset"] = set(lockset)
            else:
                st["lockset"] &= lockset
                if kind == "write":
                    st["state"] = _SHARED_MOD
            racy = st["state"] == _SHARED_MOD and not st["lockset"]
            if racy and var not in self._raced:
                self._raced.add(var)
                self._races.append({
                    "var": var, "kind": kind, "thread": tid, "site": site,
                    "prior_site": st["prior_site"],
                    "prior_thread": st["prior_thread"],
                    "lockset": sorted(st["lockset"]),
                })
            st["prior_site"], st["prior_thread"] = site, tid

    def epoch(self) -> None:
        """Synchronization point (thread spawn / join): every variable
        returns to Virgin so setup/teardown accesses by the main thread do
        not alias with worker-phase history.  Recorded races persist."""
        with self._mu:
            self._vars.clear()

    # -- results --------------------------------------------------------
    def races(self) -> List[Dict[str, Any]]:
        with self._mu:
            return [dict(r) for r in self._races]

    def check(self) -> None:
        """Raise :class:`RaceReport` when candidate races were recorded."""
        races = self.races()
        if races:
            raise RaceReport(races)

    def summary(self) -> Dict[str, Any]:
        with self._mu:
            return {
                "total_events": self.total_events,
                "retained_events": len(self.events),
                "variables": len(self._vars),
                "races": [dict(r) for r in self._races],
            }

    def dump(self, path: Union[str, Path]) -> None:
        """Write the bounded event log (JSONL: summary line, then events)."""
        with self._mu:
            events = list(self.events)
            summary = {
                "total_events": self.total_events,
                "retained_events": len(events),
                "races": [dict(r) for r in self._races],
            }
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"summary": summary}) + "\n")
            for ev in events:
                fh.write(json.dumps(ev) + "\n")
