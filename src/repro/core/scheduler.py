"""Execution engines for the factorization.

* :func:`run_sequential` — the fan-in tasks below, one after the other in
  index order (used by Table 2, which reports sequential timings).
* :func:`run_threaded` — a multi-threaded engine in the spirit of the PaStiX
  static scheduler [23]: one task per column block, dependency counting on
  the block elimination DAG.  numpy's BLAS releases the GIL inside the
  dense kernels, so worker threads genuinely overlap the heavy GEMM/QR/SVD
  work.
* :func:`run_threaded_static` — PaStiX's proportional subtree mapping: each
  thread owns a fixed, index-ordered list of column blocks.

**Deterministic pull-mode reduction.**  Every engine executes each
column block ``k`` as one *fan-in* task: pull the updates of every factored
contributor ``c`` (in ascending ``c``, the same per-target order the
sequential right-looking sweep produces), then factor ``k``.  A column
block becomes ready once all its contributors are factored.  Because a
single thread applies all updates into ``k``, in canonical order, the
floating-point reduction order is fixed — threaded factors are
**bit-identical** to the sequential run — and no per-target locks are
needed: a contributor's storage is immutable once factored, and only task
``k`` ever mutates ``k``'s storage.

**Hardening.**  Workers shut down through queue sentinels (no polling
loops); every worker exception is collected under a lock and all of them
are surfaced (a single failure re-raises as itself, several raise a
:class:`SchedulerError` aggregating the lot); an optional watchdog monitors
a progress counter and raises :class:`DeadlockError` with a dump of the
pending-counter state when the run stalls.  Tracing (``fac.tracer``) and
fault injection (``fac.faults``) plumb through every engine.

  Deviation from the paper noted in DESIGN.md: PaStiX maps tasks to threads
  *statically* by proportional subtree mapping; ``run_threaded`` uses a
  work-stealing-free shared ready queue, which has the same correctness and
  (at Python scale) comparable balance.  ``run_threaded_static`` implements
  the paper's mapping.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.core.serialize import CheckpointWriter
    from repro.symbolic.structure import SymbolicFactor

from repro.core.factor import (
    NumericFactor,
    restore_column_block,
    snapshot_column_block,
)
from repro.core.factorization import (
    UpdateAccumulator,
    apply_updates_from,
    factor_column_block,
    finalize_updates_from,
    flush_accumulated,
)
from repro.runtime.recovery import NumericalBreakdown

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


def run_sequential(fac: NumericFactor,
                   checkpoint: Optional["CheckpointWriter"] = None) -> None:
    """Sequential elimination: one fan-in task per column block, in index
    order — pull every contributor's updates (ascending), then factor.

    The same task the threaded engines run, so the factors are
    bit-identical across engines and a task only ever mutates its own
    column block — which is what makes pre-task snapshots, local retries
    and resumable checkpoints sound.  Already-factored column blocks are
    skipped, which is how a checkpoint resume continues a partial
    factorization: a restored block's updates are *pulled by its
    dependents* when they run.  On any failure (including
    ``KeyboardInterrupt``) the checkpoint writer's fault hook fires before
    the exception propagates."""
    if fac.deferred is not None:
        if checkpoint is not None:
            raise ValueError("checkpointing does not support the "
                             "left-looking engine")
        run_left_looking(fac)
        return
    tr = fac.tracer
    if tr is not None:
        tr.meta.update(engine="sequential", threads=1)
    _begin_profile(fac, engine="sequential", threads=1)
    try:
        for k in range(fac.symb.ncblk):
            if fac.cblks[k].factored:
                continue
            _run_task(fac, k)
            if checkpoint is not None:
                checkpoint.task_done(fac, k)
    except BaseException:
        # deliberately BaseException: a Ctrl-C mid-factorization should
        # still leave a resumable checkpoint behind
        if checkpoint is not None:
            checkpoint.on_fault(fac)
        raise


def run_left_looking(fac: NumericFactor) -> None:
    """Left-looking elimination (the paper's §4.3 proposal for JIT).

    Column block ``k``'s dense panels are allocated only when ``k`` is
    reached; all contributions from the (already factored, already
    compressed) descendants are pulled in, then ``k`` is factored and
    immediately compressed.  At any instant the working set holds the
    compressed factored prefix plus a single dense column block — the
    memory peak drops from "full dense structure" toward the compressed
    factor size, which is exactly the gap Figure 7 attributes to the
    scheduling strategy.
    """
    symb = fac.symb
    tr = fac.tracer
    if tr is not None:
        tr.meta.update(engine="left-looking", threads=1)
    prof = fac.profiler
    _begin_profile(fac, engine="left-looking", threads=1)
    for k in range(symb.ncblk):
        sid = (prof.task_start(k, symb.contributors(k), order=_order_of(fac, k))
               if prof is not None else None)
        try:
            fac.fill_column_block(k)
            _pull_and_factor(fac, k)
        finally:
            if prof is not None:
                prof.end(sid)


# ----------------------------------------------------------------------
# shared machinery of the threaded engines
# ----------------------------------------------------------------------

def _order_of(fac: NumericFactor, k: int) -> str:
    """Loop-order label of ``k``'s task span (``"dense"`` when untreated)."""
    v = fac.variant_for(k)
    return v.order if v is not None else "dense"


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
    """One fan-in task: apply all contributors' updates into ``k`` (in
    ascending contributor order — the sequential reduction order), then
    factor ``k``.  Contributions to ``k``'s low-rank blocks are gathered
    in a task-local accumulator and recompressed once per block right
    before the factorization (Minimal Memory's extend-add); the
    accumulator never outlives the task, so retries and resumes start
    from a clean one.

    Under the ``fuc`` loop order a contributor is compressed as soon as
    its *last* facing target has pulled its updates
    (:meth:`NumericFactor.note_updates_pulled` — all pulls read the
    still-dense panels, so threaded runs stay bit-identical to the
    sequential sweep); a column block with no targets compresses right
    after its own factorization."""
    fuc = fac.variant is not None and fac.variant.compress_after_updates
    san = fac.sanitizer
    acc: UpdateAccumulator = {}
    for c in fac.symb.contributors(k):
        if san is not None:
            san.note(f"cblk[{c}]", "read", site="scheduler.py:_pull_and_factor")
        apply_updates_from(fac, c, k, acc)
        if fuc and fac.note_updates_pulled(c, k):
            if san is not None:
                # dependency-ordered ownership transfer: the last pulling
                # task compresses the drained source block
                san.handoff(f"cblk[{c}]")
                san.note(f"cblk[{c}]", "write",
                         site="scheduler.py:_pull_and_factor(finalize)")
            finalize_updates_from(fac, c)
    if san is not None:
        san.note(f"cblk[{k}]", "write", site="scheduler.py:_pull_and_factor")
    if acc:
        flush_accumulated(fac, k, acc)
    factor_column_block(fac, k)
    if fuc and fac.n_targets(k) == 0:
        finalize_updates_from(fac, k)


def _run_task(fac: NumericFactor, k: int,
              released_by: Optional[int] = None) -> None:
    """Execute the fan-in task for ``k`` under its causal span.

    ``released_by`` is the span id that travelled with the work item on
    the dynamic scheduler's ready queue (the *temporal* enqueuer); the
    recorded parent edge is the deterministic one — the span of the
    greatest contributor — so threaded and sequential trees agree (see
    :meth:`~repro.runtime.spans.SpanProfiler.task_start`)."""
    prof = fac.profiler
    if prof is None:
        _attempt_task(fac, k)
        return
    sid = prof.task_start(k, fac.symb.contributors(k), enqueuer=released_by,
                          order=_order_of(fac, k))
    try:
        _attempt_task(fac, k)
    finally:
        prof.end(sid)


def _attempt_task(fac: NumericFactor, k: int) -> None:
    """Run ``k``'s fan-in task, with bounded local retries.

    With a recovery state armed (``policy.task_retries > 0``) the task's
    column block is snapshotted first; a transient failure restores the
    snapshot, sleeps the seeded backoff, and retries.  Contributors are
    immutable once factored and only task ``k`` mutates ``k``'s storage
    (pull-mode invariant), so the snapshot/restore is exact.
    :class:`NumericalBreakdown` never retries locally — its causes are
    deterministic, so it goes straight to the solver-level ladder."""
    rec = fac.recovery
    if rec is None or rec.policy.task_retries <= 0:
        _pull_and_factor(fac, k)
        return
    retries = rec.policy.task_retries
    snap = snapshot_column_block(fac.cblks[k])
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
            restore_column_block(fac, k, snap)
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
# dynamic scheduling (shared ready queue)
# ----------------------------------------------------------------------

def run_threaded(fac: NumericFactor, nthreads: int,
                 watchdog_s: Optional[float] = None) -> None:
    """Dependency-driven parallel elimination (shared ready queue).

    A column block becomes *ready* once every contributor is factored.
    Workers pop ready blocks, pull their contributors' updates (ascending,
    so the reduction order — hence the factors — matches the sequential
    run bit-for-bit), factor them, and decrement the dependency counters
    of the blocks they face.

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
    tr = fac.tracer
    if tr is not None:
        tr.meta.update(engine="threaded-dynamic", threads=nthreads)
    tele = fac.config.telemetry
    if tele is not None:
        tele.gauge("scheduler_threads", engine="dynamic").set_value(nthreads)
    san = fac.sanitizer
    prof = fac.profiler
    _begin_profile(fac, engine="threaded-dynamic", threads=nthreads)

    pending = [len(symb.contributors(t)) for t in range(ncblk)]
    # work items carry (cblk, releasing span id): when a completed task
    # unlocks a dependent, its span id travels with the enqueued item —
    # the cross-thread context propagation of the span profiler
    ready: "queue.Queue[Optional[Tuple[int, Optional[int]]]]" = queue.Queue()
    for t in range(ncblk):
        if pending[t] == 0:
            ready.put((t, None))

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
            item = ready.get()
            if item is None:  # sentinel: shut down
                return
            k, released_by = item
            with state:
                if stopped[0]:  # failure elsewhere: drain, await sentinel
                    continue
            try:
                t_task = time.perf_counter()
                _run_task(fac, k, released_by)
                if tele is not None:
                    # queue depth sampled at completion: the instantaneous
                    # backlog this worker left behind (qsize is advisory
                    # but race-tolerant — it feeds a trend series, not a
                    # correctness decision)
                    tele.counter("scheduler_tasks",
                                 engine="dynamic").inc()
                    tele.counter("scheduler_busy_seconds", engine="dynamic",
                                 worker=str(wid)).inc(
                        time.perf_counter() - t_task)
                    tele.series("scheduler_queue_depth").append(
                        tele.clock(), depth=ready.qsize(), worker=wid)
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
                handoff = (prof.task_span_of(k)
                           if prof is not None else None)
                for t in newly_ready:
                    ready.put((t, handoff))
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


# ----------------------------------------------------------------------
# static scheduling (proportional subtree mapping, PaStiX [23])
# ----------------------------------------------------------------------

def proportional_mapping(symb: "SymbolicFactor",
                         nthreads: int) -> List[int]:
    """Map each column block to a thread by proportional subtree splitting.

    The classic static-mapping heuristic of the PaStiX scheduler: walk the
    block elimination tree top-down, splitting the available thread set
    over each node's children proportionally to their subtree costs; once
    a subtree holds a single thread, everything in it belongs to that
    thread.  Nodes visited while several threads are still available (the
    top of the tree) are assigned to the first thread of their set — at
    the top the tree is thin, so the imbalance is small.

    Returns ``owner[k]`` in ``[0, nthreads)`` for every column block.
    """
    parent = symb.block_etree()
    ncblk = symb.ncblk
    children: List[List[int]] = [[] for _ in range(ncblk)]
    roots: List[int] = []
    for k in range(ncblk):
        p = int(parent[k])
        if p < 0:
            roots.append(k)
        else:
            children[p].append(k)

    # subtree cost: dense-equivalent nnz of the column block as work proxy
    cost = [0.0] * ncblk
    for k in range(ncblk):  # cblks are postordered: children before parents
        c = symb.cblks[k]
        local = float(c.ncols) ** 3 / 3.0 + c.nnz() * c.ncols
        cost[k] = local + sum(cost[ch] for ch in children[k])

    owner = [0] * ncblk

    def assign(nodes: List[int], threads: List[int]) -> None:
        """Distribute the thread list over a forest of subtrees."""
        stack = [(nodes, threads)]
        while stack:
            forest, ths = stack.pop()
            if not forest:
                continue
            if len(ths) == 1:
                t = ths[0]
                todo = list(forest)
                while todo:
                    k = todo.pop()
                    owner[k] = t
                    todo.extend(children[k])
                continue
            # split the thread set over the forest proportionally to cost
            total = sum(cost[k] for k in forest) or 1.0
            remaining = list(ths)
            shares = []
            for k in sorted(forest, key=lambda k: -cost[k]):
                want = max(1, round(len(ths) * cost[k] / total))
                take = min(want, max(1, len(remaining) -
                                     (len(forest) - len(shares) - 1)))
                got = remaining[:take] if len(remaining) >= take else \
                    [ths[0]]
                remaining = remaining[take:]
                shares.append((k, got))
            # leftover threads join the largest subtree
            if remaining and shares:
                shares[0] = (shares[0][0], shares[0][1] + remaining)
            for k, got in shares:
                owner[k] = got[0]  # the node itself runs on its first thread
                stack.append((children[k], got))

    assign(roots, list(range(nthreads)))
    return owner


def run_threaded_static(fac: NumericFactor, nthreads: int,
                        watchdog_s: Optional[float] = None) -> None:
    """Static-mapping parallel elimination (PaStiX's scheduler [23]).

    Each thread owns a fixed, index-ordered list of column blocks from the
    proportional mapping.  Before touching a block the thread waits (on a
    condition variable — no timeout polling) until every contributor is
    factored, then pulls their updates in ascending order and factors the
    block, so the reduction order matches the sequential run bit-for-bit.

    Worker failures set a stop flag under the condition and wake every
    waiter; all collected exceptions are surfaced.  ``watchdog_s``
    (defaulting to ``fac.config.watchdog_timeout``) arms the same stall
    detector as :func:`run_threaded`.
    """
    symb = fac.symb
    ncblk = symb.ncblk
    if nthreads <= 1 or ncblk <= 1:
        run_sequential(fac)
        return
    if watchdog_s is None:
        watchdog_s = fac.config.watchdog_timeout
    tr = fac.tracer
    if tr is not None:
        tr.meta.update(engine="threaded-static", threads=nthreads)
    tele = fac.config.telemetry
    if tele is not None:
        tele.gauge("scheduler_threads", engine="static").set_value(nthreads)

    owner = proportional_mapping(symb, nthreads)
    tasks: List[List[int]] = [[] for _ in range(nthreads)]
    for k in range(ncblk):
        tasks[owner[k]].append(k)  # ascending: respects the elimination order

    san = fac.sanitizer
    _begin_profile(fac, engine="threaded-static", threads=nthreads)
    pending = [len(symb.contributors(t)) for t in range(ncblk)]
    cond: Any = threading.Condition()
    if san is not None:
        cond = san.wrap_condition(cond, "scheduler.cond")
        san.epoch()
    processed = [0]
    ticks = [0]
    errors: List[BaseException] = []
    stopped = [False]

    def worker(tid: int) -> None:
        try:
            for k in tasks[tid]:
                with cond:
                    while pending[k] > 0 and not stopped[0]:
                        cond.wait()
                    if stopped[0]:
                        return
                t_task = time.perf_counter()
                _run_task(fac, k)
                if tele is not None:
                    tele.counter("scheduler_tasks",
                                 engine="static").inc()
                    tele.counter("scheduler_busy_seconds", engine="static",
                                 worker=str(tid)).inc(
                        time.perf_counter() - t_task)
                with cond:
                    if san is not None:
                        san.note("scheduler.progress", "write",
                                 site="scheduler.py:worker(static)")
                    processed[0] += 1
                    ticks[0] += 1
                    for t in symb.facing_ranges(k):
                        pending[t] -= 1
                    cond.notify_all()
        except BaseException as exc:
            with cond:
                if san is not None:
                    san.note("scheduler.errors", "write",
                             site="scheduler.py:worker(static)")
                errors.append(exc)
                ticks[0] += 1
                stopped[0] = True
                cond.notify_all()

    threads = [threading.Thread(target=worker, args=(tid,), daemon=True,
                                name=f"repro-static-{tid}")
               for tid in range(nthreads)]
    for th in threads:
        th.start()

    def on_stall() -> None:
        with cond:
            stopped[0] = True
            cond.notify_all()
            dump = _pending_dump(fac, pending, processed[0])
        raise DeadlockError(
            f"static scheduler stalled for {watchdog_s:.3g}s:\n{dump}",
            errors)

    _join_with_watchdog(threads, watchdog_s, lambda: ticks[0], on_stall)
    if san is not None:
        san.epoch()  # join is a sync point: teardown reads are not races
        san.check()
    _raise_collected(errors)
    if processed[0] != ncblk:  # pragma: no cover - defensive
        raise DeadlockError(
            "static scheduler exited early:\n"
            + _pending_dump(fac, pending, processed[0]))
