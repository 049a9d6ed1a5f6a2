"""Reference speed: a fixed interpreter loop timed around the benchmark's
measurements, to cancel the drift of a shared host's speed.

On shared hosts the speed of the same code drifts by up to 1.6x over
seconds, in CPU time as much as in wall time, and interpreter-bound code
drifts most.  Of the kernels tried (this loop, the loop plus a numpy
pass, a numpy pass alone), scaling by this loop left the smallest
run-to-run spread overall.  A measured time is scaled by
``REF_KERNEL_S`` over the kernel's time on either side of it, so a change
to the package moves the scaled time exactly as it moves the raw time.
"""

from __future__ import annotations

import math
import time

#: Typical time of ``ReferenceKernel`` (its median over runs, rounded) on
#: the machine the baseline was recorded on, so that scaled times read as
#: seconds on that machine.
REF_KERNEL_S = 0.002


class ReferenceKernel:
    """Times the loop once per call and keeps every sample."""

    def __init__(self):
        self.samples: list[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        total = 0.0
        for j in range(10_000):
            total += math.exp(-1e-4 * j) * j
        self.samples.append(time.perf_counter() - start)

    @staticmethod
    def scale(segments: list[float], samples: list[float]) -> list[float]:
        """Scale each segment by the kernel samples on either side of it."""
        return [t * 2.0 * REF_KERNEL_S / (before + after)
                for t, before, after in zip(segments, samples, samples[1:])]
