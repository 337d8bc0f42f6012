"""What the shared box took from a timed call, measured while it ran.

The reference box is a few cores of a shared host.  Its noise has two parts
and neither leaves a quiet multi-second window to sample in (README,
*Noise*):

* the hypervisor takes the core away (*steal*) or another process of this
  machine gets it — up to 7x on the wall clock, for minutes.  CPU time does
  not count either, and for one compute-bound thread that never waits, CPU
  time on a quiet box *is* the wall time; so every timing here is CPU time.
* a neighbour on the same physical core slows every instruction by 1.0-2x
  in bursts of tens of milliseconds, and CPU time inflates with it.  A
  2-12 s call averages over hundreds of bursts, so neither its fastest
  repetition nor its median is steady.

For the second part a 250 Hz interval timer interrupts the timed call and
its handler runs a fixed 0.1 ms kernel (interpreter loop, a streamed 256 KB
array, one small matmul).  The kernel's mean CPU time during the call over
its floor in the whole run is the slowdown the call met; the call's CPU
time, less the probes' own, is divided by it.  Single ``analyze`` and
``factorize`` samples that spread 0.25-0.39 spread 0.07-0.17 so corrected.

A corrected time reads below the CPU time also on a quiet box, because there
too the mean probe sits ~10 % above its own floor; the uncorrected CPU and
wall seconds of every sample are in the result file beside it.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

import numpy as np

#: seconds between two probes; 0.1 ms of kernel each, so 2–3 % of the run
INTERVAL = 0.004
#: percentile of all probe times in a run that stands for an undisturbed one:
#: the floor.  Over sixty noisy runs the 0.1st percentile of ~9000 probes
#: spread 0.026 (interquartile, as a share of the median), the 1st 0.043
REFERENCE_PERCENTILE = 0.1


@dataclass
class Sample:
    """One timed call."""

    cpu_s: float        # CPU seconds of the call, less those of its probes
    wall_s: float       # wall seconds, probes included
    probes: int
    probe_mean_s: float  # mean CPU seconds of the probes inside the call


class Probe:
    """Times calls on the CPU clock under a ticking contention probe.

    Main thread only: Python runs signal handlers there, between two
    bytecodes of the interrupted call, and the handler touches nothing but
    its own arrays."""

    def __init__(self) -> None:
        self._stream = np.zeros(32 * 1024)              # 256 KB
        self._tile = np.random.default_rng(0).standard_normal((48, 48))
        self.times: List[float] = []                    # every probe of the run
        signal.signal(signal.SIGALRM, self._tick)
        for _ in range(500):                            # warm the kernel up
            self._kernel()

    def _kernel(self) -> None:
        acc = 0
        for i in range(1200):
            acc += i * i
        self._stream += 1.0
        self._stream += 1.0
        self._tile @ self._tile

    def _tick(self, signum: int, frame: Any) -> None:
        t0 = time.process_time()
        self._kernel()
        self.times.append(time.process_time() - t0)

    def timed(self, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> Tuple[Sample, Any]:
        first = len(self.times)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            out = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            cpu1, wall1 = time.process_time(), time.perf_counter()
        mine = self.times[first:]
        inside = sum(mine)
        if not mine:                # shorter than one interval: probe after it
            self._tick(0, None)
            mine = self.times[first:]
        return Sample(cpu1 - cpu0 - inside, wall1 - wall0, len(mine),
                      sum(mine) / len(mine)), out

    def reference_s(self) -> float:
        """CPU seconds of an undisturbed probe, by this run's own probes."""
        return float(np.percentile(self.times, REFERENCE_PERCENTILE))

    def corrected(self, sample: Sample) -> float:
        """The sample's CPU seconds with the box's slowdown divided out."""
        return sample.cpu_s * self.reference_s() / sample.probe_mean_s
