"""Per-kernel statistics for a factorization run.

``KernelStats`` charges wall-clock seconds, flop counts and call counts to
named categories.  ``FactorizationStats`` is the full record returned by a
factorization: kernel tallies plus factor-size and memory-peak figures, i.e.
exactly the rows of the paper's Table 2:

=====================  ==================================================
Table 2 row            category key
=====================  ==================================================
Compression            ``compress``
Block factorization    ``block_facto``
Panel solve            ``panel_solve``
LR product             ``lr_product``
LR addition            ``lr_addition``
Dense update           ``dense_update``
=====================  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:
    from repro.runtime.recovery import RecoveryState
    from repro.runtime.telemetry import Telemetry

#: Kernel categories reported by Table 2 of the paper (in paper row order).
KERNEL_CATEGORIES = (
    "compress",
    "block_facto",
    "panel_solve",
    "lr_product",
    "lr_addition",
    "dense_update",
)


class KernelStats:
    """Accumulates time / flops / call counts per kernel category.

    A :class:`~repro.core.factor.NumericFactor` creates one instance that
    every task charges — the per-category tally Table 2 reports.  A caller
    that batches may charge many calls at once (``calls``): a fan-in task
    charges its visits' dense products so.
    """

    def __init__(self, telemetry: Optional["Telemetry"] = None,
                 recovery: Optional["RecoveryState"] = None) -> None:
        self.seconds: Dict[str, float] = {}
        self.flops: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: optional :class:`~repro.runtime.telemetry.Telemetry` bus carried
        #: alongside the tallies — the low-rank kernels read it off the
        #: ``stats`` argument they already receive, so enabling telemetry
        #: does not change any kernel signature.  ``None`` (default) keeps
        #: the kernels' telemetry branch at a single attribute test.
        self.telemetry = telemetry
        #: the run's :class:`~repro.runtime.recovery.RecoveryState`, carried
        #: the same way: a compression kernel that fails keeps its block
        #: dense and records that verdict there, recovery policy or not
        self.recovery = recovery

    def add(self, category: str, seconds: float = 0.0, flops: float = 0.0,
            calls: int = 1) -> None:
        """Charge ``seconds``, ``flops`` and ``calls`` to ``category``."""
        self.seconds[category] = self.seconds.get(category, 0.0) + seconds
        self.flops[category] = self.flops.get(category, 0.0) + flops
        self.calls[category] = self.calls.get(category, 0) + calls

    def time(self, category: str) -> float:
        return self.seconds.get(category, 0.0)

    def flop(self, category: str) -> float:
        return self.flops.get(category, 0.0)

    def call_count(self, category: str) -> int:
        return self.calls.get(category, 0)

    def total_time(self) -> float:
        return sum(self.seconds.values())

    def total_flops(self) -> float:
        return sum(self.flops.values())

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        cats = set(self.seconds) | set(self.flops) | set(self.calls)
        return {
            c: {
                "time": self.seconds.get(c, 0.0),
                "flops": self.flops.get(c, 0.0),
                "calls": self.calls.get(c, 0),
            }
            for c in sorted(cats)
        }


@dataclass
class FactorizationStats:
    """Everything measured during one numerical factorization.

    Attributes
    ----------
    kernels:
        Per-category time/flops/calls.
    factor_nbytes:
        Final size in bytes of the factor blocks (compressed representation
        for BLR runs) — the paper's "factors final size".
    dense_factor_nbytes:
        Size the factors *would* occupy fully dense (baseline of Figures 6/7).
    peak_nbytes:
        Peak tracked working set during factorization (Figure 7's "total
        consumption" series uses this plus structure overhead).
    accumulator_peak_nbytes:
        Largest transient update storage held at once: the contribution
        blocks the bottom subtrees pass up (:mod:`repro.core.scheduler`)
        plus what one fan-in task gathers for its low-rank blocks (the
        Minimal-Memory extend-add) — *not* part of ``peak_nbytes``, which
        tracks factor storage only.  The dense scratches never exceed the
        dense size of the column block being assembled; the low-rank
        pieces held beside them are as large as the contributions
        themselves.
    total_time:
        Wall-clock of the whole factorization (not the sum of categories,
        which leaves out the orchestration between kernels).
    nblocks_compressed / nblocks_dense:
        How many off-diagonal block positions ended compressed vs dense,
        counted on the L side (an LU factor stores a Uᵗ block at each
        position too, compressed or not on its own): the ``"l"`` entries
        of :meth:`~repro.core.factor.NumericFactor.census`'s
        ``lowrank_blocks`` / ``dense_blocks``.
    backend_kernel_calls:
        Per-op kernel call counts (gemm/trsm/getrf/…, accumulated over
        factorization and solves) — the :mod:`repro.core.backend`
        accounting.
    backend_calls_by_phase:
        The same counts split by phase (``factorize`` / ``solve`` /
        ``refine``).
    """

    kernels: KernelStats = field(default_factory=KernelStats)
    factor_nbytes: int = 0
    dense_factor_nbytes: int = 0
    peak_nbytes: int = 0
    accumulator_peak_nbytes: int = 0
    total_time: float = 0.0
    solve_time: float = 0.0
    nblocks_compressed: int = 0
    nblocks_dense: int = 0
    backend_kernel_calls: Dict[str, int] = field(default_factory=dict)
    backend_calls_by_phase: Dict[str, Dict[str, int]] = field(
        default_factory=dict)

    def add_backend_calls(self, delta: Dict[str, int], phase: str) -> None:
        """Accumulate a per-op call-count delta of ``phase`` into the
        running totals."""
        by_phase = self.backend_calls_by_phase.setdefault(phase, {})
        for op, n in delta.items():
            for totals in (self.backend_kernel_calls, by_phase):
                totals[op] = totals.get(op, 0) + n

    @property
    def memory_ratio(self) -> float:
        """Compressed / dense factor size (the y-axis of Figure 6)."""
        if self.dense_factor_nbytes == 0:
            return 1.0
        return self.factor_nbytes / self.dense_factor_nbytes

    def summary(self) -> Dict[str, float]:
        """Times and bytes of the run (the per-kernel rows live in
        :meth:`KernelStats.as_dict`)."""
        return {
            "total_time": self.total_time,
            "solve_time": self.solve_time,
            "factor_nbytes": float(self.factor_nbytes),
            "dense_factor_nbytes": float(self.dense_factor_nbytes),
            "peak_nbytes": float(self.peak_nbytes),
            "accumulator_peak_nbytes": float(self.accumulator_peak_nbytes),
            "memory_ratio": self.memory_ratio,
        }
