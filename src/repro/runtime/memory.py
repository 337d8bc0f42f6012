"""Byte-accurate tracking of factor storage.

The Minimal Memory strategy's whole point (paper §2.2.1, Figures 6 and 7) is
that the dense factor structure is *never allocated*: blocks live compressed
from the start, so the peak working set of the factorization equals the
final compressed factor size.  The Just-In-Time strategy holds each
supernode dense until it is compressed; every column block is allocated
when its own task starts (the paper's §4.3 proposal), so its peak is the
compressed factor plus the dense column blocks in flight, not the dense
solver's.

Python cannot observe allocator high-water marks portably and cheaply, so the
solver reports every block allocation/free to a :class:`MemoryTracker` —
`alloc(nbytes)` / `free(nbytes)` — which maintains ``current`` and ``peak``.
The factorization drivers charge the storage of every diagonal block, dense
off-diagonal block and low-rank (u, v) pair.  This is the same accounting the
paper performs ("memory used to store the final coefficients").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.runtime.telemetry import Telemetry

class MemoryTracker:
    """Tracks current and peak tracked bytes.

    With a :class:`~repro.runtime.telemetry.Telemetry` bus attached, every
    *meaningful* new high-water mark (first peak, then growth beyond 1/64
    of the previous recorded peak) is published to the bounded
    ``memory_highwater`` series — a time-stamped timeline of the working
    set, not just the scalar ``peak`` the paper's Figure 7 reduces to.
    Disabled (``telemetry=None``) the peak update path is unchanged.
    """

    def __init__(self, telemetry: Optional["Telemetry"] = None) -> None:
        self.current = 0
        self.peak = 0
        self._telemetry = telemetry
        self._last_recorded = -1  # force a sample on the first peak

    def alloc(self, nbytes: int) -> None:
        self.resize(0, nbytes)

    def free(self, nbytes: int) -> None:
        self.current -= int(nbytes)

    def resize(self, old_nbytes: int, new_nbytes: int) -> None:
        """Account for a block whose storage changed size (e.g. rank growth)."""
        self.current += int(new_nbytes) - int(old_nbytes)
        if self.current > self.peak:
            self.peak = self.current
            tele = self._telemetry
            if tele is not None and \
                    self.peak - self._last_recorded >= max(1, self.peak >> 6):
                self._last_recorded = self.peak
                tele.record_memory(self.current, self.peak)


def array_nbytes(a: "np.ndarray") -> int:
    """Actual byte size of a numpy array (contiguous assumption)."""
    return int(a.size) * int(a.itemsize)
