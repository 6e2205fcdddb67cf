"""Machine calibration for the dispatch benchmark's timings.

The benchmark runs on shared machines whose speed drifts by tens of
percent, in slow phases that come and go within seconds.  A fixed
pure-Python reference kernel is timed before each set-up step and at
every micro-batch boundary, and every raw duration is scaled by
``PROBE_REF_S / median(nearby probes)``: a batch by the probes at the
boundaries around it, a set-up step by the probes that bracket it.  A
step that ran while a neighbour slowed the machine is thereby reported
as what it would have taken at the reference speed, and values stay in
seconds.

The kernel calls nothing in ``repro`` and allocates no GC-tracked
objects (only ints, which the cycle collector never tracks), so neither
the program under test nor the garbage collector's state can change its
duration.  Raw seconds and probe statistics are reported beside the
calibrated values for transparency.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence

#: iterations of the reference kernel per probe (about 1 ms here)
PROBE_ITERS = 10_000

#: probes taken at each set-up boundary (set-up steps are long, so a
#: single probe would speak for seconds of work)
SETUP_PROBES = 3

#: a batch is scaled by the median of the probes this many boundaries
#: before and after it (slow phases last far longer than a batch)
WINDOW = 2

#: median probe duration (seconds) on the reference machine: calibrated
#: values are "seconds at the speed this machine had when this was set"
#: (Intel Xeon, 2 vCPUs, CPython 3.11)
PROBE_REF_S = 0.00125


def reference_kernel(iters: int = PROBE_ITERS) -> int:
    """A fixed integer loop (an LCG) whose duration tracks CPU speed."""
    x = 1
    i = 0
    while i < iters:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i += 1
    return x


def _probe() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class Calibrator:
    """Probes taken over one episode, and the scaling they imply."""

    def __init__(self) -> None:
        #: one group of probe durations per boundary, in time order
        self.groups: List[List[float]] = []

    def probe(self, count: int = 1) -> None:
        self.groups.append([_probe() for _ in range(count)])

    @property
    def samples(self) -> List[float]:
        return [p for group in self.groups for p in group]

    def scale_between(self, first: int, last: int) -> float:
        """Factor for work done between boundary ``first`` and ``last``."""
        lo = max(first, 0)
        hi = min(last, len(self.groups) - 1)
        window = [p for group in self.groups[lo:hi + 1] for p in group]
        return PROBE_REF_S / statistics.median(window)

    def calibrate(self, raw: Sequence[float], first_boundary: int) -> List[float]:
        """Scale consecutive durations, each between two boundaries.

        ``raw[i]`` ran between boundary ``first_boundary + i`` and the
        next one; it is scaled by the probes ``WINDOW`` boundaries around.
        """
        out = []
        for i, value in enumerate(raw):
            before = first_boundary + i
            out.append(value * self.scale_between(before - WINDOW + 1, before + WINDOW))
        return out

    def summary(self) -> Dict[str, float]:
        ordered = sorted(self.samples)
        q1, median, q3 = (
            statistics.quantiles(ordered, n=4) if len(ordered) > 1
            else (ordered[0],) * 3
        )
        return {
            "probes": len(ordered),
            "probe_median_s": median,
            "probe_q1_s": q1,
            "probe_q3_s": q3,
            "probe_min_s": ordered[0],
            "probe_max_s": ordered[-1],
        }
