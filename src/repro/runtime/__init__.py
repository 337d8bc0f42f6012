"""Runtime support: timing, flop accounting, and memory-peak tracking.

These utilities instrument the solver the way the paper's Table 2 and
Figures 6/7 require: every numerical kernel charges its wall-clock time and
floating-point operation count to a named category (``compress``,
``block_facto``, ``panel_solve``, ``lr_product``, ``lr_addition``,
``dense_update``), and every allocation/release of factor storage is reported
to a :class:`~repro.runtime.memory.MemoryTracker` so the *peak* working set of
a factorization can be compared between the Dense, Just-In-Time and Minimal
Memory strategies.

Three further layers make the runtime *observable* and *testable* (see
``docs/observability.md``): :mod:`repro.runtime.spans` records which
task ran when (the phase rollup and the Gantt chart are derived from its
span document), :mod:`repro.runtime.telemetry` keeps the run's memory
and rank time series on the same clock, and :mod:`repro.runtime.faults`
injects deterministic failures into the factorization drivers so the
engine's error paths can be exercised.

Every runtime collaborator — ``Telemetry``, ``SpanProfiler``,
``MemoryTracker``, ``FaultInjector``, ``RecoveryState`` — belongs to the
one thread that runs its solver; none of them takes a lock.

:mod:`repro.runtime.recovery` closes the loop: the faults the injector
(or real arithmetic) produces are detected as structured
:class:`~repro.runtime.recovery.NumericalBreakdown` events and healed by
a configurable escalation ladder (see ``docs/robustness.md``).
"""

from repro.runtime.recovery import (
    NumericalBreakdown,
    RecoveryPolicy,
    RecoveryState,
)
from repro.runtime.stats import KernelStats, FactorizationStats, KERNEL_CATEGORIES
from repro.runtime.memory import MemoryTracker
from repro.runtime.faults import FaultError, FaultInjector
from repro.runtime.telemetry import SeriesBuffer, Telemetry

__all__ = [
    "KernelStats",
    "FactorizationStats",
    "KERNEL_CATEGORIES",
    "MemoryTracker",
    "FaultError",
    "FaultInjector",
    "NumericalBreakdown",
    "RecoveryPolicy",
    "RecoveryState",
    "SeriesBuffer",
    "Telemetry",
]
