"""A yardstick for the host's speed while the benchmark runs.

The reference host is a shared 2-core VM.  Two things it does are far
larger than any bound in ``BENCHMARK.json`` and last for whole runs, so
that no statistic inside one run can remove them:

* its single-thread speed drifts by up to 1.8x over tens of seconds
  (neighbours on the same physical cores);
* after about an hour of sustained load the hypervisor withholds 40-80 %
  of the CPU time the guest asks for ("steal").

Both are common to everything the process does and neither can be moved
by a change to the program, so they are measured and divided out:

* *speed*: a fixed single-thread dgemm owned by the harness is timed, in
  thread CPU time, between the measured calls; the factor is the median
  reading over the reference reading;
* *availability*: from ``/proc/stat``, the CPU time the guest demanded
  (busy + stolen) over the time it was granted (busy) in the same
  interval; 1 where the file does not report steal.

Every gated time is scaled to a host with the yardstick at its reference
speed and no steal (``adjust`` below).  Stolen time arrives in bursts, so
it lengthens a few calls a lot instead of every call a little; a call's
own thread CPU time, which excludes it, is therefore the floor of its
adjusted time, while its wall time divided by the availability covers
calls that wait for other threads or processes.  Raw readings and the
factors of every round are kept in the result.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter, thread_time

import numpy as np

#: The yardstick on the reference host (2.1 GHz Xeon VM) when it is quiet.
REFERENCE_S = 0.75e-3
#: Measured calls run at least this long between two yardstick readings.
INTERVAL_S = 0.05


def _cpu_ticks():
    """``(busy, stolen)`` clock ticks of the whole guest so far, or ``None``."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[1:9])
    return user + nice + system + irq + softirq, steal


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random((96, 384))
        self._b = rng.random((384, 384))
        self.readings: list = []  # thread CPU seconds per yardstick call
        self.spent = 0.0  # wall seconds inside the yardstick, kept out of wall times
        self._last = 0.0
        for _ in range(5):  # first calls pay for cold caches
            self._a @ self._b

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            wall = perf_counter()
            cpu = thread_time()
            self._a @ self._b
            self.readings.append(thread_time() - cpu)
            self._last = perf_counter()
            self.spent += self._last - wall

    def sample_if_due(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def mark(self):
        """Start of an interval whose slowdown will be asked for."""
        return len(self.readings), _cpu_ticks()

    def slowdown(self, since) -> tuple:
        """``(speed, availability)`` of the interval that began at *since*."""
        first, ticks_then = since
        speed = median(self.readings[first:]) / REFERENCE_S
        ticks_now = _cpu_ticks()
        availability = 1.0
        if ticks_then is not None and ticks_now is not None:
            busy = ticks_now[0] - ticks_then[0]
            stolen = ticks_now[1] - ticks_then[1]
            if busy > 0:
                availability = (busy + stolen) / busy
        return speed, availability


def adjust(wall: float, cpu: float, slowdown: tuple) -> float:
    """Seconds the interval would have taken on the quiet reference host.

    *cpu* is the calling thread's CPU time over the interval.
    """
    speed, availability = slowdown
    return max(cpu, wall / availability) / speed
