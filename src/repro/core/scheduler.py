"""Execution engine of the factorization: one fan-in task per column block,
run one after the other in index order (:func:`run_sequential`).

**Deterministic pull-mode reduction.**  Column block ``k`` runs as one
*fan-in* task: pull the updates of every factored contributor ``c`` (in
ascending ``c``, the same per-target order a right-looking sweep
produces), then factor ``k``.  A task only ever mutates its own column
block, and a contributor's storage is immutable once factored — which is
what makes a local retry of one task sound.

**Allocation belongs to the task.**  The factor arrives with nothing
allocated; each task first allocates and scatters its own column block
(:meth:`~repro.core.factor.NumericFactor.fill_column_block`, which under
Minimal Memory also compresses it), right before the updates land in it —
the paper's §4.3 proposal to delay the allocation and the compression of
the original blocks.  At any instant the working set is the factored
prefix plus the one column block in flight, and a failed attempt restarts
from the empty column block.  Once every task has run, the engine
releases the matrix entries the tasks scattered from.

Span profiling (``fac.profiler``: one plain ``task`` span per column block
under the ``factorize`` phase) and fault injection (``fac.faults``) plumb
through the task.  One thread runs the whole loop.

  Deviation from the paper noted in DESIGN.md: PaStiX runs these tasks on
  a thread pool mapped by proportional subtree mapping.  A Python worker
  pool never ran faster than this loop (the orchestration holds the GIL
  for most of a task), so the engine is sequential.
"""

from __future__ import annotations

import time

from repro.core.factor import NumericFactor
from repro.core.factorization import (
    UpdateAccumulator,
    apply_updates_from,
    factor_column_block,
    flush_accumulated,
)
from repro.runtime.recovery import NumericalBreakdown
from repro.runtime.spans import span


def run_sequential(fac: NumericFactor) -> None:
    """Sequential elimination: one fan-in task per column block, in index
    order — pull every contributor's updates (ascending), then factor.

    A task only ever mutates its own column block — which is what makes
    local retries sound — and allocates it when it starts, so at any
    instant the working set holds the factored prefix plus a single column
    block in flight.  Profiled, each task is a ``task`` span carrying its
    column block and elimination-tree depth (``cblk``, ``level``).
    """
    prof = fac.profiler
    if prof is None:
        for k in range(fac.symb.ncblk):
            _attempt_task(fac, k)
    else:
        for k, level in enumerate(fac.symb.block_levels()):
            with span(prof, "task", cblk=k, level=level):
                _attempt_task(fac, k)
    fac.entries = None


# ----------------------------------------------------------------------
# the task
# ----------------------------------------------------------------------

def _pull_and_factor(fac: NumericFactor, k: int) -> None:
    """One fan-in task: allocate and scatter ``k``, apply all contributors'
    updates into it (in ascending contributor order), then factor ``k``.
    Contributions to ``k``'s low-rank blocks are gathered in a task-local
    accumulator and recompressed once per block right before the
    factorization (Minimal Memory's extend-add); the accumulator never
    outlives the task, so a retry starts from a clean one.

    The visits from panel-mode sources are charged here, once per task:
    ``dense_update`` gets their summed seconds (each whole visit) and
    flops, with one call per visit, and the backend their summed ``gemm``
    count."""
    fac.fill_column_block(k)
    acc: UpdateAccumulator = {}
    seconds = flops = 0.0
    visits = gemms = 0
    try:
        for c in fac.symb.contributors(k):
            t0 = time.perf_counter()
            charge = apply_updates_from(fac, c, k, acc)
            if charge is not None:
                seconds += time.perf_counter() - t0
                flops += charge[0]
                gemms += charge[1]
                visits += 1
    finally:
        # the panel-mode visits charged once per task, a failed attempt's
        # included: the blocks-mode ones charged their kernels themselves
        if visits:
            fac.stats.kernels.add("dense_update", seconds=seconds,
                                  flops=flops, calls=visits)
            fac.backend.tick("gemm", gemms)
    if acc:
        flush_accumulated(fac, k, acc)
    factor_column_block(fac, k)


def _attempt_task(fac: NumericFactor, k: int) -> None:
    """Run ``k``'s fan-in task, with bounded local retries.

    With a recovery state armed (``policy.task_retries > 0``) a transient
    failure frees the column block and retries from the matrix entries.
    Contributors are immutable once factored and only task ``k`` mutates
    ``k``'s storage (pull-mode invariant), so the retry starts from
    exactly the state the first attempt did.
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
