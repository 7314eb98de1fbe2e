"""Machine speed during each timed operation, from a fixed reference kernel.

On a shared machine the same operation can take 40% longer in one minute than
in the next, because other tenants slow the processor down. The slow and fast
periods last a minute or more, so no run is long enough to average them out,
and runs of one workload differ by more than the bounds of ``BENCHMARK.json``.

While a run measures, a timer interrupts it every ``INTERVAL_S`` and times
one call of a fixed kernel: small numpy calls on a 14 x 400 array, the call
pattern of the package's modal right-hand side, sharing no code with the
package. An operation's time is scaled by ``REFERENCE_S`` over the mean
kernel time of the samples taken during it: seconds at the reference speed.
A change to the program moves the operation and not the kernel, so it shows
in the scaled time as in the raw one. The kernel takes about 2% of a run, the
same on every commit, and every run prints its raw times too.

The kernel is timed in wall time, so it must run in the process that does the
work: in a process that only waits for pool workers it reads about 18% slower
for the same machine speed. Every workload therefore runs its timed work in
the benchmark's own process, the sweep's cells included; the sweep's pooled
round runs only in the traced run, with pacing off. Set-up times are left as
measured: a set-up is mostly imports, which the kernel does not track.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.02
# Fixes the unit, not the measurement: a round figure inside the range of
# kernel means seen on the 2-vCPU machine of bench/README.md (300 to 870 us).
REFERENCE_S = 4.0e-4

_RNG = np.random.default_rng(0)
_M = _RNG.standard_normal((14, 400))
_Q = np.full(400, 1.0 / 400)
_Y0 = _RNG.standard_normal(14)


def kernel() -> float:
    """Wall time of one call of the reference kernel."""
    start = time.perf_counter()
    y = _Y0
    for _ in range(30):
        u = y @ _M
        v = np.sqrt(1.0 + u * u)
        s = float(_Q @ v)
        y = 0.5 * np.tanh(_M @ (_Q * u / v) + s * 1e-3)
    return time.perf_counter() - start


@dataclass
class Timed:
    raw: float = 0.0  # seconds as measured
    seconds: float = 0.0  # seconds at the reference speed


class Pace:
    """Samples the kernel while active; ``Pace(enabled=False)`` leaves times as measured."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []

    def __enter__(self) -> Pace:
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(kernel()))
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def timed(self):
        """Time the block; on exit ``.raw`` and ``.seconds`` of the yielded record are set."""
        record, first = Timed(), len(self.samples)
        start = time.perf_counter()
        try:
            yield record
        finally:
            record.raw = time.perf_counter() - start
            during = self.samples[first:] or self.samples[-1:]
            record.seconds = record.raw * REFERENCE_S * len(during) / sum(during) if during else record.raw
