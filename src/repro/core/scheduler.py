"""Execution engines for the factorization: one task, two ways to run it.

* :func:`run_sequential` — the fan-in tasks below, one after the other in
  index order (used by Table 2, which reports sequential timings).
* :func:`run_threaded` — one worker pool on a shared ready queue: one task
  per column block, dependency counting on the block elimination DAG.
  numpy's BLAS releases the GIL inside the dense kernels, so worker threads
  genuinely overlap the heavy GEMM/QR/SVD work.

**Deterministic pull-mode reduction.**  Both drivers execute each
column block ``k`` as one *fan-in* task: pull the updates of every factored
contributor ``c`` (in ascending ``c``, the same per-target order the
sequential right-looking sweep produces), then factor ``k``.  A column
block becomes ready once all its contributors are factored.  Because a
single thread applies all updates into ``k``, in canonical order, the
floating-point reduction order is fixed — threaded factors are
**bit-identical** to the sequential run — and no per-target locks are
needed: a contributor's storage is immutable once factored, and only task
``k`` ever mutates ``k``'s storage.

**Allocation belongs to the task.**  The factor arrives with nothing
allocated; each task first allocates and scatters its own column block
(:meth:`~repro.core.factor.NumericFactor.fill_column_block`, which under
Minimal Memory also compresses it), right before the updates land in it —
the paper's §4.3 proposal to delay the allocation and the compression of
the original blocks.  At any instant the working set is the factored
prefix plus the column blocks in flight (one per worker), and a failed
attempt restarts from the empty column block.  Once every task has run,
the engine releases the matrix entries the tasks scattered from.

**Hardening.**  Workers shut down through queue sentinels (no polling
loops); every worker exception is collected under a lock and all of them
are surfaced (a single failure re-raises as itself, several raise a
:class:`SchedulerError` aggregating the lot); an optional watchdog monitors
a progress counter and raises :class:`DeadlockError` with a dump of the
pending-counter state when the run stalls.  Span profiling
(``fac.profiler``) and fault injection (``fac.faults``) plumb through both.

  Deviation from the paper noted in DESIGN.md: PaStiX maps tasks to threads
  *statically* by proportional subtree mapping; ``run_threaded`` uses a
  work-stealing-free shared ready queue, which has the same correctness and
  (at Python scale) the same balance.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, List, Optional, Sequence

from repro.core.factor import NumericFactor
from repro.core.factorization import (
    UpdateAccumulator,
    apply_updates_from,
    factor_column_block,
    flush_accumulated,
)
from repro.runtime.recovery import NumericalBreakdown
from repro.runtime.spans import task_span

#: how often (seconds) the joining main thread samples the progress counter
_WATCHDOG_POLL = 0.05


class SchedulerError(RuntimeError):
    """One or more scheduler workers failed.

    :attr:`errors` holds every collected worker exception, in the order the
    workers reported them.
    """

    def __init__(self, message: str,
                 errors: Sequence[BaseException] = ()) -> None:
        super().__init__(message)
        self.errors: List[BaseException] = list(errors)


class DeadlockError(SchedulerError):
    """The watchdog saw no progress for the configured timeout.

    The message carries the pending-counter dump (column blocks still
    waiting on unfactored contributors) captured at detection time.
    """


def run_sequential(fac: NumericFactor) -> None:
    """Sequential elimination: one fan-in task per column block, in index
    order — pull every contributor's updates (ascending), then factor.

    The same task the worker pool runs, so the factors are bit-identical
    across drivers and a task only ever mutates its own column block —
    which is what makes local retries sound.  A task allocates its column
    block when it starts, so at any instant the working set holds the
    factored prefix plus a single column block in flight.
    """
    _begin_profile(fac, "sequential", 1)
    for k in range(fac.symb.ncblk):
        _run_task(fac, k)
    fac.entries = None


# ----------------------------------------------------------------------
# the task
# ----------------------------------------------------------------------

def _begin_profile(fac: NumericFactor, engine: str, threads: int) -> None:
    """Arm the span profiler's task registry for one engine run.

    Called from the driving thread while the ``factorize`` phase span is
    current, so contributor-less tasks attach there; the per-cblk
    elimination-tree depth feeds each task span's ``level`` attribute.
    """
    prof = fac.profiler
    if prof is not None:
        from repro.analysis.metrics import cblk_levels

        prof.meta.update(engine=engine, threads=threads)
        prof.begin_tasks(levels=cblk_levels(fac))


def _pull_and_factor(fac: NumericFactor, k: int) -> None:
    """One fan-in task: allocate and scatter ``k``, apply all contributors'
    updates into it (in ascending contributor order — the sequential
    reduction order), then factor ``k``.  Contributions to ``k``'s low-rank
    blocks are gathered in a task-local accumulator and recompressed once
    per block right before the factorization (Minimal Memory's
    extend-add); the accumulator never outlives the task, so a retry
    starts from a clean one."""
    fac.fill_column_block(k)
    san = fac.sanitizer
    acc: UpdateAccumulator = {}
    for c in fac.symb.contributors(k):
        if san is not None:
            san.note(f"cblk[{c}]", "read", site="scheduler.py:_pull_and_factor")
        apply_updates_from(fac, c, k, acc)
    if san is not None:
        san.note(f"cblk[{k}]", "write", site="scheduler.py:_pull_and_factor")
    if acc:
        flush_accumulated(fac, k, acc)
    factor_column_block(fac, k)


def _run_task(fac: NumericFactor, k: int) -> None:
    """Execute the fan-in task for ``k`` under its causal span, whose
    parent is the span of ``k``'s greatest contributor — a deterministic
    edge, so threaded and sequential trees agree (see
    :meth:`~repro.runtime.spans.SpanProfiler.task_start`)."""
    v = fac.variant
    with task_span(fac.profiler, k, fac.symb.contributors(k),
                   order=v.order if v is not None else "dense"):
        _attempt_task(fac, k)


def _attempt_task(fac: NumericFactor, k: int) -> None:
    """Run ``k``'s fan-in task, with bounded local retries.

    With a recovery state armed (``policy.task_retries > 0``) a transient
    failure frees the column block, sleeps the seeded backoff, and retries
    from the matrix entries.  Contributors are immutable once factored and
    only task ``k`` mutates ``k``'s storage (pull-mode invariant), so the
    retry starts from exactly the state the first attempt did.
    :class:`NumericalBreakdown` never retries locally — its causes are
    deterministic, so it goes straight to the solver-level ladder."""
    rec = fac.recovery
    if rec is None or rec.policy is None or rec.policy.task_retries <= 0:
        _pull_and_factor(fac, k)
        return
    retries = rec.policy.task_retries
    for attempt in range(retries + 1):
        try:
            _pull_and_factor(fac, k)
            return
        except NumericalBreakdown:
            raise
        except Exception as exc:
            if attempt >= retries:
                raise
            rec.record("task_retry", site="scheduler", cblk=k,
                       attempt=attempt + 1, error=type(exc).__name__)
            fac.clear_column_block(k)
            delay = rec.backoff(attempt)
            if delay > 0.0:
                time.sleep(delay)


def _pending_dump(fac: NumericFactor, pending: List[int], processed: int,
                  limit: int = 16) -> str:
    """Human-readable snapshot of the dependency state for stall reports."""
    ncblk = fac.symb.ncblk
    waiting = [(k, p) for k, p in enumerate(pending) if p > 0]
    lines = [f"pending counters: {processed}/{ncblk} column blocks "
             f"factored, {len(waiting)} still waiting on contributors"]
    for k, p in waiting[:limit]:
        missing = [c for c in fac.symb.contributors(k)
                   if not fac.cblks[c].factored][:8]
        lines.append(f"  cblk {k}: {p} unfactored contributor(s), "
                     f"e.g. {missing}")
    if len(waiting) > limit:
        lines.append(f"  ... and {len(waiting) - limit} more")
    return "\n".join(lines)


def _raise_collected(errors: List[BaseException]) -> None:
    if not errors:
        return
    if len(errors) == 1:
        raise errors[0]
    raise SchedulerError(
        f"{len(errors)} scheduler workers failed: "
        + "; ".join(f"{type(e).__name__}: {e}" for e in errors),
        errors) from errors[0]


def _join_with_watchdog(threads: List[threading.Thread],
                        watchdog_s: Optional[float],
                        tick: Callable[[], int],
                        on_stall: Callable[[], None]) -> None:
    """Join workers; with a watchdog, monitor ``tick()`` (a progress
    counter) and call ``on_stall()`` — which must raise — after
    ``watchdog_s`` seconds without progress."""
    if watchdog_s is None:
        for th in threads:
            th.join()
        return
    last_tick = tick()
    last_change = time.monotonic()
    while True:
        alive = False
        for th in threads:
            th.join(timeout=_WATCHDOG_POLL)
            if th.is_alive():
                alive = True
        if not alive:
            return
        now = time.monotonic()
        t = tick()
        if t != last_tick:
            last_tick, last_change = t, now
        elif now - last_change >= watchdog_s:
            on_stall()


# ----------------------------------------------------------------------
# the worker pool (shared ready queue)
# ----------------------------------------------------------------------

def run_threaded(fac: NumericFactor, nthreads: int,
                 watchdog_s: Optional[float] = None) -> None:
    """Dependency-driven parallel elimination (shared ready queue).

    A column block becomes *ready* once every contributor is factored.
    Workers pop ready blocks, allocate them, pull their contributors'
    updates (ascending, so the reduction order — hence the factors —
    matches the sequential run bit-for-bit), factor them, and decrement
    the dependency counters of the blocks they face.

    ``watchdog_s`` (defaulting to ``fac.config.watchdog_timeout``) arms a
    stall detector: if no task completes for that many seconds while
    workers are still alive, :class:`DeadlockError` is raised with a
    pending-counter dump.
    """
    symb = fac.symb
    ncblk = symb.ncblk
    if nthreads <= 1 or ncblk <= 1:
        run_sequential(fac)
        return
    if watchdog_s is None:
        watchdog_s = fac.config.watchdog_timeout
    tele = fac.config.telemetry
    san = fac.sanitizer
    _begin_profile(fac, "threaded-dynamic", nthreads)

    pending = [len(symb.contributors(t)) for t in range(ncblk)]
    ready: "queue.Queue[Optional[int]]" = queue.Queue()
    for t in range(ncblk):
        if pending[t] == 0:
            ready.put(t)

    # guards pending/processed/errors/stopped/ticks; tracked when the race
    # sanitizer rides along (ready is a queue.Queue: internally synchronized)
    state: Any = threading.Lock()
    if san is not None:
        state = san.wrap_lock(state, "scheduler.state")
        san.epoch()
    processed = [0]
    ticks = [0]  # watchdog progress counter (bumped on completion & error)
    errors: List[BaseException] = []
    stopped = [False]

    def _shutdown_locked() -> None:
        """Wake every worker with a sentinel exactly once (state held)."""
        if not stopped[0]:
            stopped[0] = True
            for _ in range(nthreads):
                ready.put(None)

    def worker(wid: int) -> None:
        while True:
            k = ready.get()
            if k is None:  # sentinel: shut down
                return
            with state:
                if stopped[0]:  # failure elsewhere: drain, await sentinel
                    continue
            try:
                t_task = time.perf_counter()
                _run_task(fac, k)
                if tele is not None:
                    # one point per finished task: the instantaneous
                    # backlog this worker left behind (qsize is advisory
                    # but race-tolerant — it feeds a trend series, not a
                    # correctness decision) and the task's busy seconds
                    tele.series("scheduler_queue_depth").append(
                        tele.clock(), depth=ready.qsize(), worker=wid,
                        busy_s=time.perf_counter() - t_task)
                newly_ready: List[int] = []
                with state:
                    if san is not None:
                        san.note("scheduler.progress", "write",
                                 site="scheduler.py:worker(dynamic)")
                    processed[0] += 1
                    ticks[0] += 1
                    for t in symb.facing_ranges(k):
                        pending[t] -= 1
                        if pending[t] == 0:
                            newly_ready.append(t)
                    if processed[0] == ncblk:
                        _shutdown_locked()
                for t in newly_ready:
                    ready.put(t)
            except BaseException as exc:
                with state:
                    if san is not None:
                        san.note("scheduler.errors", "write",
                                 site="scheduler.py:worker(dynamic)")
                    errors.append(exc)
                    ticks[0] += 1
                    _shutdown_locked()

    threads = [threading.Thread(target=worker, args=(i,), daemon=True,
                                name=f"repro-dyn-{i}")
               for i in range(nthreads)]
    for th in threads:
        th.start()

    def on_stall() -> None:
        with state:
            _shutdown_locked()
            dump = _pending_dump(fac, pending, processed[0])
        raise DeadlockError(
            f"dynamic scheduler stalled for {watchdog_s:.3g}s:\n{dump}",
            errors)

    _join_with_watchdog(threads, watchdog_s, lambda: ticks[0], on_stall)
    if san is not None:
        san.epoch()  # join is a sync point: teardown reads are not races
        san.check()
    _raise_collected(errors)
    if processed[0] != ncblk:  # pragma: no cover - defensive
        raise DeadlockError(
            "dynamic scheduler exited early:\n"
            + _pending_dump(fac, pending, processed[0]))
    fac.entries = None
