"""The machine's speed, sampled while the program runs.

The benchmark runs on VMs shared with other tenants. Their load changes the
speed of the VM's CPUs from one second to the next, by up to 1.7 times in
process time as well as wall time, so a run that spends more of its time in
slow stretches reports a slower program. To take that out, the worker
interrupts itself every PERIOD_S of its CPU time (SIGPROF) and times a tiny
fixed kernel: small numpy calls and a dict loop, the kinds of work that
dominate gibbsline's own time. The kernel uses only numpy and the standard
library, never gibbsline code, so no change to the program can change it.

A CPU time taken from `start` to `end` is then reported multiplied by
REF_KERNEL_S over the mean kernel time sampled in that interval (widened by
PAD_S on each side): CPU seconds on a machine on which the kernel takes
REF_KERNEL_S. On a 2-vCPU VM the n = 12 custom `zerotemp` took 21.6 s to
29.6 s of CPU time in five runs, and 11.3 to 12.3 kernel-normalized units.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

# Mean kernel time on a 2-vCPU x86-64 Linux VM on a fast stretch, so that
# reported times are close to CPU seconds there.
REF_KERNEL_S = 2.0e-4
PERIOD_S = 0.02  # CPU seconds between samples; the kernel adds about 1%
PAD_S = 0.5
WARM_UP_RUNS = 20

_SMALL = np.linspace(-1.0, 0.0, 12)


def _kernel() -> None:
    v = _SMALL
    for _ in range(12):
        m = v.max()
        v = np.log(np.exp(v - m).sum()) + _SMALL * 0.5 - m * 1e-3
    table: dict[int, int] = {}
    for i in range(300):
        table[i % 7] = table.get(i % 7, 0) + i


class Sampler:
    """Kernel CPU times sampled every PERIOD_S of the process's CPU time."""

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter() at each sample
        self.cost: list[float] = []  # kernel seconds of each sample

    def _sample(self, _signum, _frame) -> None:
        # wall time: the kernel is too short to be descheduled often, and the
        # process's CPU clock does not advance inside a SIGPROF handler here
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.cost.append(t1 - t0)
        self.at.append(t1)

    def start(self) -> None:
        for _ in range(WARM_UP_RUNS):
            _kernel()
        self._sample(None, None)  # so that there is always a sample
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """What a CPU time taken from start to end (perf_counter times) is multiplied by."""
        i = bisect.bisect_left(self.at, start - PAD_S)
        j = bisect.bisect_right(self.at, end + PAD_S)
        costs = self.cost[i:j] or self.cost
        return REF_KERNEL_S / statistics.fmean(costs)
