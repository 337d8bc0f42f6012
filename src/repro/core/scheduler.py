"""Execution engine of the factorization: one task per column block, run
one after the other in index order (:func:`run_sequential`).

**Fan-in above, multifrontal below.**  The bottom subtrees of the block
elimination tree — maximal subtrees in which no column block can hold a
low-rank block (:meth:`~repro.symbolic.structure.SymbolicFactor.
subtree_plan`) — pass their updates up as dense *contribution blocks*
(CBs).  A subtree column block's task fills it, extend-adds its
children's CBs (into its diagonal block and panels, and what lies below
into its own CB), factors it, then adds its own update to its CB with one
product.  Every other column block runs as one *fan-in* task: it pulls,
in ascending order, the updates of each factored contributor outside the
subtrees and the part of each subtree root's held CB that faces it, then
factors.  Nothing outside a task's own column block and its own CB is
mutated by a task until it has succeeded: only then does a subtree column
block drop its children's CBs, and a fan-in target cut each root CB it
consumed down to its trailing square (the targets consume it in ascending
order, so the bytes held fall as the factorization goes).  A
contributor's storage is immutable once factored, which is what makes a
local retry of one task sound.

**Allocation belongs to the task.**  The factor arrives with nothing
allocated; each task first allocates and scatters its own column block
(:meth:`~repro.core.factor.NumericFactor.fill_column_block`, which under
Minimal Memory also compresses it), right before the updates land in it —
the paper's §4.3 proposal to delay the allocation and the compression of
the original blocks.  At any instant the tracked working set is the
factored prefix plus the one column block in flight, and a failed attempt
restarts from the empty column block.  The held CBs are transient update
buffers, counted with Minimal Memory's extend-add accumulator
(``stats.accumulator_peak_nbytes``), not in the tracker.  Once every task
has run, the engine releases the matrix entries the tasks scattered from.

Span profiling (``fac.profiler``: one plain ``task`` span per column block
under the ``factorize`` phase, one ``update`` span per fan-in visit,
extend-add and CB landing) and fault injection (``fac.faults``) plumb
through the task.  One thread runs the whole loop.

  Deviations from the paper noted in DESIGN.md: PaStiX runs these tasks on
  a thread pool mapped by proportional subtree mapping.  A Python worker
  pool never ran faster than this loop (the orchestration holds the GIL
  for most of a task), so the engine is sequential.  And PaStiX is fan-in
  throughout; the bottom subtrees here are multifrontal, as MUMPS's L0
  layer, because a visit costs the same Python whatever its size.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.core.factor import NumericFactor
from repro.core.factorization import (
    UpdateAccumulator,
    accumulate_contribution,
    apply_updates_from,
    extend_add,
    factor_column_block,
    flush_accumulated,
    land_contribution,
)
from repro.runtime.recovery import NumericalBreakdown
from repro.runtime.spans import span


#: the contribution blocks the engine holds, by the column block they
#: belong to: a subtree column block's until its parent's task succeeds, a
#: subtree root's until its last target's does
HeldBlocks = Dict[int, np.ndarray]


def run_sequential(fac: NumericFactor) -> None:
    """Sequential elimination: one task per column block, in index order
    — a bottom subtree's column block extend-adds its children's
    contribution blocks, every other one pulls its contributors' updates
    (ascending) — then factor.

    A task mutates only its own column block and its own contribution
    block until it succeeds — which is what makes local retries sound —
    and allocates its column block when it starts, so at any instant the
    tracked working set holds the factored prefix plus a single column
    block in flight.  Profiled, each task is a ``task`` span carrying its
    column block and elimination-tree depth (``cblk``, ``level``).
    """
    prof = fac.profiler
    held: HeldBlocks = {}
    if prof is None:
        for k in range(fac.symb.ncblk):
            _attempt_task(fac, k, held)
    else:
        for k, level in enumerate(fac.symb.block_levels()):
            with span(prof, "task", cblk=k, level=level):
                _attempt_task(fac, k, held)
    fac.entries = None


# ----------------------------------------------------------------------
# the tasks
# ----------------------------------------------------------------------

def _subtree_task(fac: NumericFactor, k: int, held: HeldBlocks) -> None:
    """The task of a bottom subtree's column block ``k``: allocate and
    scatter ``k``, extend-add its children's contribution blocks, factor
    ``k``, then add its own update to its contribution block (one product,
    :func:`~repro.core.factorization.accumulate_contribution`).  On
    success its children's blocks are dropped and its own is held for its
    parent (or, at a subtree root, for the targets outside).

    Charged as one ``dense_update`` per task: the extend-adds' and the
    product's seconds, one call per extend-add, the product's flops and
    gemms."""
    fac.fill_column_block(k)
    nc = fac.cblks[k]
    nrows = nc.offrows
    cb = np.zeros((nrows, nrows), dtype=fac.dtype, order="F")
    children = fac.symb.subtree_plan().children[k]
    seconds = flops = 0.0
    gemms = 0
    try:
        t0 = time.perf_counter()
        for c in children:
            extend_add(fac, c, k, held[c], cb)
        seconds = time.perf_counter() - t0
        factor_column_block(fac, k)
        if nrows:
            t0 = time.perf_counter()
            flops, gemms = accumulate_contribution(fac, nc, cb)
            seconds += time.perf_counter() - t0
    finally:
        fac.stats.kernels.add("dense_update", seconds=seconds, flops=flops,
                              calls=len(children))
        fac.backend.tick("gemm", gemms)
    # the high-water mark: the children's blocks beside this one
    fac.note_accumulator_peak(cb.nbytes)
    for c in children:
        _drop(fac, held, c)
    if nrows:
        held[k] = cb
        fac.held_nbytes += cb.nbytes


def _pull_and_factor(fac: NumericFactor, k: int, held: HeldBlocks) -> None:
    """One fan-in task: allocate and scatter ``k``, apply the updates of
    every contributor outside the bottom subtrees and land the part of
    every subtree root's contribution block that faces ``k`` (in
    ascending order), then factor ``k``.  Contributions to ``k``'s
    low-rank blocks are gathered in a task-local accumulator and
    recompressed once per block right before the factorization (Minimal
    Memory's extend-add); the accumulator never outlives the task, so a
    retry starts from a clean one.  On success every root block it landed
    from is cut down to the rows below ``k``.

    The visits from panel-mode sources and the landings are charged here,
    once per task: ``dense_update`` gets their summed seconds and flops,
    with one call per visit or landing, and the backend their summed
    ``gemm`` count."""
    fac.fill_column_block(k)
    acc: UpdateAccumulator = {}
    seconds = flops = 0.0
    visits = gemms = 0
    plan = fac.symb.subtree_plan()
    landed = []
    try:
        for c in plan.pulls[k]:
            t0 = time.perf_counter()
            if plan.root[c] >= 0:
                landed.append((c, land_contribution(fac, c, k, held[c],
                                                    acc)))
                charge = (0.0, 0)
            else:
                charge = apply_updates_from(fac, c, k, acc)
            if charge is not None:
                seconds += time.perf_counter() - t0
                flops += charge[0]
                gemms += charge[1]
                visits += 1
    finally:
        # the panel-mode visits and the landings charged once per task, a
        # failed attempt's included: the blocks-mode visits charged their
        # kernels themselves
        if visits:
            fac.stats.kernels.add("dense_update", seconds=seconds,
                                  flops=flops, calls=visits)
            fac.backend.tick("gemm", gemms)
    if acc:
        flush_accumulated(fac, k, acc)
    factor_column_block(fac, k)
    for r, nf in landed:
        cb = held[r]
        if nf < cb.shape[0]:
            fac.held_nbytes -= cb.nbytes
            held[r] = np.array(cb[nf:, nf:], order="F")
            fac.held_nbytes += held[r].nbytes
        else:
            _drop(fac, held, r)


def _drop(fac: NumericFactor, held: HeldBlocks, k: int) -> None:
    """Release the contribution block of ``k`` once it is consumed."""
    fac.held_nbytes -= held.pop(k).nbytes


def _attempt_task(fac: NumericFactor, k: int, held: HeldBlocks) -> None:
    """Run ``k``'s task, with bounded local retries.

    With a recovery state armed (``policy.task_retries > 0``) a transient
    failure frees the column block and retries from the matrix entries.
    Contributors are immutable once factored, and a task touches only its
    own column block and its own contribution block before it succeeds
    (it consumes the blocks it read afterwards), so the retry starts from
    exactly the state the first attempt did.
    :class:`NumericalBreakdown` never retries locally — its causes are
    deterministic, so it goes straight to the solver-level ladder."""
    task = (_subtree_task if fac.symb.subtree_plan().root[k] >= 0
            else _pull_and_factor)
    rec = fac.recovery
    if rec is None or rec.policy is None or rec.policy.task_retries <= 0:
        task(fac, k, held)
        return
    retries = rec.policy.task_retries
    for attempt in range(retries + 1):
        try:
            task(fac, k, held)
            return
        except NumericalBreakdown:
            raise
        except Exception as exc:
            if attempt >= retries:
                raise
            rec.record("task_retry", site="scheduler", cblk=k,
                       attempt=attempt + 1, error=type(exc).__name__)
            fac.clear_column_block(k)
