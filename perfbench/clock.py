"""CPU clocks and the host-speed sampling that scales the timed metrics.

The benchmark's times are CPU seconds, which leave out the time the host
gives the virtual CPU to someone else.  That is not enough on a shared host:
the speed of the CPU time itself moves with what the neighbours run (one
cold compile took 3.8-6.7 CPU seconds in one process over two minutes on a
2-vCPU VM).  So while a timed window is open, a sampler thread runs a short
fixed pure-Python kernel every ``PERIOD_S`` seconds, and once more when the
window closes.  The window's CPU time, less the sampler's, is divided by the
host's slowdown: the slices' mean CPU time over ``REFERENCE_S``.  The result
is CPU seconds at the reference host speed.

The sampler and the timed code must share a CPU for the slices to see the
speed the timed code saw, so single-process workloads pin their worker to
one CPU (``pin_to_one_cpu``); on the VM above that took the spread of the
scaled cold compile to 0.10 against 0.24 unscaled.  The kernel uses nothing
from the program, so a change to the program cannot change its speed.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import List, Optional

#: CPU seconds of one slice at the reference host speed (its typical time on
#: the 2-vCPU Xeon VM the bounds were set on).
REFERENCE_S = 0.0045
#: Seconds between slices while a window is open.
PERIOD_S = 0.1
#: Kernel iterations in one slice.
_SLICE = 15_000


def process_cpu_s(pid: Optional[int] = None) -> float:
    """CPU seconds used so far by all threads of this process, or of ``pid``
    (Linux: the scheduler CPU clock that ``clock_getcpuclockid`` names)."""
    if pid is None:
        return time.process_time()
    return time.clock_gettime(((~pid) << 3) | 2)


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads and processes it starts later, on
    the lowest CPU it may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _kernel(n: int) -> int:
    table: dict = {}
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFF
        key = acc & 1023
        table[key] = table.get(key, 0) + i
    return sorted(table.values())[-1]


def calibrate() -> float:
    """CPU seconds of one slice on the calling thread."""
    start = time.thread_time()
    _kernel(_SLICE)
    return time.thread_time() - start


class HostSpeed:
    """Samples the host's speed on a thread while a timed window is open.

    ``start()`` when the window opens, ``stop()`` when it closes (before the
    window's CPU time is read: ``thread_cpu`` is the sampler's share of it),
    then ``slowdown()``.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.thread_cpu = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        start = time.thread_time()
        while True:
            self.samples.append(calibrate())
            if self._stop.wait(PERIOD_S):
                break
        self.thread_cpu = time.thread_time() - start

    def start(self) -> "HostSpeed":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self) -> float:
        """Mean slice time over the reference, with one more slice taken
        now, outside the window."""
        self.samples.append(calibrate())
        return statistics.fmean(self.samples) / REFERENCE_S
