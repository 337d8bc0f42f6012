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

#: bytes per element of float64, the *default* arithmetic.  This is only a
#: default: the solver is dtype-generic (float32/complex64/complex128 too),
#: so accounting code must pass the actual ``np.dtype(...).itemsize`` (4 for
#: float32, 8 for float64/complex64, 16 for complex128) instead of relying
#: on this constant.
FLOAT_NBYTES = 8


def nbytes_dense(m: int, n: int, itemsize: int = FLOAT_NBYTES) -> int:
    """Storage of an ``m x n`` dense block of elements of ``itemsize`` bytes.

    ``itemsize`` defaults to float64 for backward compatibility; pass
    ``np.dtype(dtype).itemsize`` for any other precision.
    """
    return int(m) * int(n) * int(itemsize)


def nbytes_lowrank(m: int, n: int, rank: int, itemsize: int = FLOAT_NBYTES) -> int:
    """Storage of a rank-``rank`` block: ``u`` is m-by-r, ``v`` is n-by-r.

    ``itemsize`` defaults to float64; pass the actual element size for
    other precisions (mixed-precision storage uses the narrower one).
    """
    return (int(m) + int(n)) * int(rank) * int(itemsize)


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

    def reset(self) -> None:
        self.current = 0
        self.peak = 0
        self._last_recorded = -1


def array_nbytes(a: "np.ndarray") -> int:
    """Actual byte size of a numpy array (contiguous assumption)."""
    return int(a.size) * int(a.itemsize)
