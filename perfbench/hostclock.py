"""Host time corrected for how fast the shared host runs at the moment.

On a host shared with other tenants the same interpreter work takes
from 0.8x to 1.4x its usual CPU time from one second to the next, and
the average drifts over minutes.  CPU time alone does not remove that:
the slowdown comes from contention inside the CPU, not from waiting.

:class:`HostClock` therefore runs a fixed *calibration kernel* -- a small
event loop shaped like the simulator's (:class:`_Kernel`) -- every
:data:`PERIOD_S` CPU seconds, from a ``SIGPROF`` interval timer.  The
kernel touches no program state; its table adds a few MB to the
process's memory.
Times are read from the thread CPU clock: the run is one thread, and
the process CPU clock turns tick-coarse while an interval timer is armed.
A host interval is then reported in *reference seconds*: its CPU time
without the kernel runs, scaled by ``REFERENCE_KERNEL_S / k`` where
``k`` is the median kernel time inside the interval.  A faster program
shows in full; a host that is 20% slower for a while does not.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time

#: CPU seconds between two kernel runs.
PERIOD_S = 0.1
#: CPU seconds one kernel run takes on the reference host (2 vCPU Linux
#: VM, Python 3.11.7), so reference seconds read close to CPU seconds there.
REFERENCE_KERNEL_S = 0.0027
#: Fewest kernel runs a correction rests on; a shorter interval borrows
#: the runs just before and after it.
MIN_SAMPLES = 5


class _Row:
    __slots__ = ("key", "refs", "attrs")

    def __init__(self, key):
        self.key = key
        self.refs = [key]
        self.attrs = {"key": key}


class _Kernel:
    """A fixed amount of interpreter work shaped like a DES run: a heap
    of timed events, generator resumes, and lookups scattered over a
    table of a few MB, so that it meets the same cache and memory
    contention as the simulator."""

    ROWS = 15_000
    PROCESSES = 64
    STEPS = 16

    def __init__(self):
        rows = [_Row(i) for i in range(self.ROWS)]
        self.rows = rows
        self.table = {i * 7919 % (4 * self.ROWS): rows[i]
                      for i in range(self.ROWS)}
        rng = random.Random(3)
        self.keys = [rng.randrange(4 * self.ROWS)
                     for __ in range(self.PROCESSES * self.STEPS)]

    def _process(self, pid, state):
        rows, table, keys = self.rows, self.table, self.keys
        total = 0
        for step in range(self.STEPS):
            key = keys[pid * self.STEPS + step]
            row = table.get(key)
            if row is not None:
                total += row.key + row.refs[0]
            total += rows[key * 31 % self.ROWS].attrs["key"]
            state[pid] = state.get(pid, 0) + 1
            yield (pid * 7 + step * 13) % 97 + 1
        return total

    def __call__(self) -> int:
        state = {}
        queue = []
        procs = [self._process(pid, state)
                 for pid in range(self.PROCESSES)]
        for pid, proc in enumerate(procs):
            heapq.heappush(queue, (next(proc), pid))
        events = 0
        while queue:
            due, pid = heapq.heappop(queue)
            events += 1
            try:
                delay = procs[pid].send(due)
            except StopIteration:
                continue
            heapq.heappush(queue, (due + delay, pid))
        return events


class HostClock:
    """Marks and reference-second intervals of this process's host time."""

    def __init__(self):
        #: CPU seconds of each kernel run, in order.
        self.samples: list = []
        self._kernel = None
        self._saved_handler = None

    def start(self) -> None:
        self._kernel = _Kernel()
        self._kernel()  # warm the kernel's code paths once, untimed
        for __ in range(MIN_SAMPLES):
            self._tick(None, None)
        self._saved_handler = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        if self._saved_handler is not None:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, self._saved_handler)
            self._saved_handler = None

    def _tick(self, signum, frame) -> None:
        # No cyclic collection inside the kernel: it frees everything it
        # allocates, so the program's collections fall where they would
        # without it.
        enabled = gc.isenabled()
        gc.disable()
        began = time.thread_time()
        self._kernel()
        ended = time.thread_time()
        if enabled:
            gc.enable()
        self.samples.append(ended - began)

    def mark(self) -> tuple:
        """(CPU time, kernel runs so far), read without a kernel run
        falling between the two."""
        while True:
            count = len(self.samples)
            now = time.thread_time()
            if len(self.samples) == count:
                return now, count

    def seconds(self, start: tuple, end: tuple) -> float:
        """Reference seconds between two marks."""
        work = end[0] - start[0] - sum(self.samples[start[1]:end[1]])
        lo, hi = start[1], end[1]
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.samples)):
            lo, hi = max(0, lo - 1), min(len(self.samples), hi + 1)
        kernel = statistics.median(self.samples[lo:hi])
        return work * REFERENCE_KERNEL_S / kernel

    def speed(self) -> float:
        """Host speed over the whole run, relative to the reference."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)
