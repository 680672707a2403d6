"""The host's speed through a run, for scaling op times to a reference speed.

The benchmark's 2-vCPU guest shares its host: for seconds to minutes at a
time the same single-threaded Python loop runs up to about 2x slower, with no
steal time reported, so raw times of the same code on the same seed spread by
tens of percent between runs.  ``HostSpeed`` runs a fixed reference kernel
(benchmark code only: a Python loop that builds tuples, a dict and a packed
array, the interpreter work that dominates the program's hot paths; C code
such as ``zlib`` or ``sha256`` slows less and tracks the program worse)
between op groups, and scales each op's latency by ``REFERENCE_KERNEL_NS`` over the
kernel's median time around that op.  A scaled time reads "what this op would
take on a host that runs the kernel in ``REFERENCE_KERNEL_NS``": it moves with
the program's speed and not with the host's.  The raw times are printed to
standard error beside every result.
"""

from __future__ import annotations

import bisect
import statistics
import struct
import time
from typing import List

#: The kernel's median time on the 2-vCPU Xeon guest at its faster speed.
REFERENCE_KERNEL_NS = 125_000
#: Kernel runs on each side of an op whose median scales it.
NEIGHBOURS = 10

_VALUES = [((index * 7919) % 1009) / 7.0 for index in range(500)]


def reference_kernel() -> bytes:
    """A fixed piece of interpreter work whose time tracks the host's current speed."""
    points = []
    for index, value in enumerate(_VALUES):
        points.append((index * 20, round(value * 1000)))
    table = {}
    for timestamp, value in points:
        table[timestamp] = value
    return struct.pack(f"<{len(points)}q", *[value for _, value in points])


class HostSpeed:
    """Kernel times sampled through a run, and the scale they give each op."""

    def __init__(self) -> None:
        #: ``perf_counter_ns`` when each kernel run started, in order.
        self.starts: List[int] = []
        self.kernel_ns: List[int] = []
        #: Nanoseconds spent in the kernel so far.
        self.total_ns = 0
        self._smoothed: List[float] = []

    def sample(self, runs: int = 1) -> None:
        for _ in range(runs):
            start = time.perf_counter_ns()
            reference_kernel()
            elapsed = time.perf_counter_ns() - start
            self.starts.append(start)
            self.kernel_ns.append(elapsed)
            self.total_ns += elapsed
        self._smoothed = []

    def scale(self, start_ns: int, elapsed: float) -> float:
        """``elapsed`` (any unit) scaled by the median of the kernel runs nearest ``start_ns``."""
        if not self._smoothed:
            self._smoothed = [
                statistics.median(self.kernel_ns[max(0, index - NEIGHBOURS):index + NEIGHBOURS + 1])
                for index in range(len(self.kernel_ns))
            ]
        index = min(bisect.bisect_left(self.starts, start_ns), len(self.starts) - 1)
        return elapsed * REFERENCE_KERNEL_NS / self._smoothed[index]

    def scale_interval(self, start_ns: int, end_ns: int, elapsed: float) -> float:
        """``elapsed`` scaled by the kernel's median over ``[start_ns, end_ns]`` and its neighbours."""
        low = max(0, bisect.bisect_left(self.starts, start_ns) - NEIGHBOURS)
        high = bisect.bisect_left(self.starts, end_ns) + NEIGHBOURS
        return elapsed * REFERENCE_KERNEL_NS / statistics.median(self.kernel_ns[low:high])
