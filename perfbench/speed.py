"""A host-speed reference timed inside every unit, between the
workload's own steps.

A shared host can run the same code up to twice as slowly for minutes
at a time, and CPU time accounting does not remove it: the process
really executes slower.  :class:`SpeedProbe` therefore runs a fixed
reference load, :func:`reference_load`, at every ``EVERY``-th start of
a garbage-collector pass while the unit runs, and times it.  A pass
starts after a fixed number of net container allocations, so for a
deterministic workload the samples fall at the same points of its
execution in every unit, and they sample the host's speed over the
same stretch of time the workload runs in.

The unit's speed factor is the mean reference time over
``REFERENCE_S``, the reference's time on an uncontended host.  The
benchmark divides the unit's CPU times by it, so they read as CPU
seconds on that host.  The reference never imports ``repro``: a change
to the program cannot change it.  Its own CPU time is kept out of the
unit's times by :meth:`SpeedProbe.work_time`.
"""

import statistics
import time

#: Mean CPU seconds of one :func:`reference_load` on an uncontended
#: host (a 2-vCPU x86-64 Xeon VM, CPython 3.11).
REFERENCE_S = 470e-6

#: The reference runs at every EVERY-th garbage-collector pass.
EVERY = 4

_TABLE = [(i, str(i)) for i in range(64)]


def reference_load():
    """A fixed ~0.5 ms of generator, tuple and dict work."""
    table = {}

    def steps(n):
        for i in range(n):
            yield i

    for k in range(80):
        for i in steps(48):
            key, text = _TABLE[(i * 7 + k) & 63]
            table[key] = table.get(key, 0) + len(text)
    return len(table)


class SpeedProbe:
    """Times :func:`reference_load` from a ``gc.callbacks`` hook."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._passes = 0

    def __call__(self, phase, info):
        if phase != "start":
            return
        self._passes += 1
        if self._passes % EVERY:
            return
        started = time.process_time()
        reference_load()
        took = time.process_time() - started
        self.samples.append(took)
        self.spent_s += took

    def work_time(self):
        """Process CPU time, less the time spent in the reference."""
        return time.process_time() - self.spent_s

    def factor(self):
        """How many times slower than the uncontended host this unit
        ran (1.0 when there were no samples)."""
        if not self.samples:
            return 1.0
        return statistics.fmean(self.samples) / REFERENCE_S
