"""CPU time rescaled to a reference machine speed.

On a shared virtual machine the speed of a core changes by a factor of two
within minutes, in CPU time as well as in wall time, because neighbours
contend for the same physical cores and caches.  A fixed pure-Python kernel
timed next to the work slows down with it.  On a 2-vCPU host, five runs of
the ``confluence`` pass spread by 0.33 in CPU time (interquartile range over
median); on this clock, ten runs of each workload's pass stayed within 0.05.

``SpeedClock`` re-times the kernel every ``PERIOD`` wall seconds from a
SIGALRM handler, and before each task (``resample``).  The clock advances
by the CPU time spent since the last sample (this process and its reaped
children) times ``REFERENCE / kernel time``.  Its seconds are CPU seconds
at the speed where the kernel takes ``REFERENCE`` seconds, close to plain
CPU seconds on that host.  Only one clock may run at a time, on the main
thread.
"""

from __future__ import annotations

import resource
import signal
from time import process_time

PERIOD = 0.05  # wall seconds between speed samples
REFERENCE = 0.0005  # CPU seconds the kernel takes at reference speed
KERNEL_ROUNDS = 1000


def cpu_now():
    """CPU seconds used by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _kernel():
    # dict, tuple, str and call traffic, the mix the package itself runs on
    table = {}
    for i in range(KERNEL_ROUNDS):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + len(str(i))
    return len(table)


def kernel_seconds():
    t0 = process_time()
    _kernel()
    return process_time() - t0


class SpeedClock:
    def __init__(self):
        self._state = (0.0, cpu_now(), self._factor())  # (clock, cpu at last sample, factor)
        self._previous = None

    @staticmethod
    def _factor(factor=None):
        # The mean, not the minimum, of three timings: the work being timed
        # pays for the short stalls of a busy host too.
        kernel = sum(kernel_seconds() for _ in range(3)) / 3
        return REFERENCE / kernel if kernel > REFERENCE / 100 else factor

    def _sample(self, signum, frame):
        clock, cpu_then, factor = self._state
        clock += (cpu_now() - cpu_then) * factor
        self._state = (clock, cpu_now(), self._factor(factor))

    def now(self):
        clock, cpu_then, factor = self._state  # one read: the handler swaps the tuple
        return clock + (cpu_now() - cpu_then) * factor

    def resample(self):
        """Re-time the kernel now, so that a short task that follows is
        scaled by the speed at its start, not by one up to PERIOD old."""
        self._sample(None, None)
        return self.now()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
