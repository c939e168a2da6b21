"""Host-speed calibration: a frozen reference kernel sampled during a pass.

The benchmark's host is shared.  Its speed flips between a fast and a
slow mode (about 2x apart) on time scales from milliseconds to minutes,
as other tenants load the same cores; CPU time moves exactly as wall
time does, so no choice of timer removes it.  ``HostClock`` measures the
host's speed *while the measured code runs*: a ``SIGALRM`` interval
timer interrupts the main thread every ``INTERVAL_S`` and runs one slice
of a frozen reference kernel (a tiny generator/heap event simulation in
the style of ``repro.sim``).  The slices' mean duration says how fast
the host was during the pass; :meth:`HostClock.rescale` rescales a
measured time to a host on which one slice takes ``NOMINAL_SLICE_S``.

The time spent in slices is taken out of a timed window before it is
rescaled.  The kernel lives here and is never edited by a change to
``repro``, so a faster simulator reads as fewer nominal seconds and a
faster host does not.

Pool workers forked while a clock is installed sample their own cores
and add their totals to a shared block the parent reads
(``HostClock.fork_workers``); a pooled window is rescaled by the speed
of the worker that did the most work, since the window waits for it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from collections import deque
from heapq import heappop, heappush
from itertools import count
from time import perf_counter, process_time
from typing import List, Tuple

#: Seconds between two reference slices.
INTERVAL_S = 0.05
#: Events one slice simulates: about 3.6 ms on an uncontended vCPU of a
#: 2.0 GHz Sapphire Rapids Xeon (Python 3.11), about twice that when
#: another tenant shares its core.
SLICE_EVENTS = 4000
#: Slice duration of the nominal host that reported seconds refer to;
#: near the mean slice of that Xeon over a day.
NOMINAL_SLICE_S = 0.005
#: Shared-memory slots for forked workers' totals.  Forked processes
#: take slots in turn, so live workers never share one.
WORKER_SLOTS = 64


def reference_slice(events: int = SLICE_EVENTS) -> float:
    """A fixed M/M/1-style station simulation with 32 generator clients.

    Frozen: it is the yardstick of host speed, so it must not change.
    """
    heap, seq = [], count()
    queue, busy, served = deque(), [False], [0]
    state = [12345]

    def draw(scale):
        state[0] = (1103515245 * state[0] + 12345) % 2147483648
        return scale * (state[0] / 2147483648.0 + 0.05)

    def client(cid):
        while True:
            yield draw(2e-3)
            if busy[0]:
                queue.append(cid)
            else:
                busy[0] = True
                yield draw(1e-3)
                served[0] += 1
                busy[0] = bool(queue) and queue.popleft() is not None

    procs = [client(i) for i in range(32)]
    now = 0.0
    for i, proc in enumerate(procs):
        heappush(heap, (next(proc), next(seq), i))
    for _ in range(events):
        now, _, i = heappop(heap)
        heappush(heap, (now + next(procs[i]), next(seq), i))
    return now


class HostClock:
    """Samples host speed in the main thread while installed."""

    def __init__(self) -> None:
        #: Reference slices run, the seconds they took, and this
        #: process's CPU seconds up to its last slice.
        self.slices = 0
        self.slice_s = 0.0
        self.cpu_s = 0.0
        #: The same three totals per slot of forked pool workers.
        self._workers = None
        self._forks = 0
        #: This process's slot (index of its slice count), if forked.
        self._slot = None
        self._previous = None
        self._busy = False

    # ------------------------------------------------------------ sampling
    def _tick(self, signum, frame) -> None:
        if self._busy:  # a slice overran the interval: skip, never nest
            return
        self._busy = True
        start = perf_counter()
        reference_slice()
        elapsed = perf_counter() - start
        self._busy = False
        cpu, self.cpu_s = self.cpu_s, process_time()
        self.slices += 1
        self.slice_s += elapsed
        if self._slot is not None:
            self._workers[self._slot] += 1
            self._workers[self._slot + 1] += elapsed
            self._workers[self._slot + 2] += self.cpu_s - cpu

    def install(self, sample: bool = True, interval: float = INTERVAL_S) -> None:
        """Start sampling every ``interval`` seconds; with ``sample``
        False only forked workers sample (a parent that waits on its
        pool would compete with it)."""
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        if sample:
            signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def fork_workers(self) -> None:
        """Let processes forked from now on sample their own core.

        Interval timers are not inherited across ``fork``; this restarts
        one in every child forked while the clock is installed, and each
        child adds its totals to its own slot of a shared block.
        """
        self._workers = multiprocessing.RawArray("d", 3 * WORKER_SLOTS)
        os.register_at_fork(before=self._count_fork, after_in_child=self._restart_in_child)

    def _count_fork(self) -> None:
        self._forks += 1

    def _restart_in_child(self) -> None:
        self._slot = 3 * ((self._forks - 1) % WORKER_SLOTS)
        self.cpu_s = 0.0  # a new process starts with no CPU time
        if signal.getsignal(signal.SIGALRM) == self._tick:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    # ------------------------------------------------------------- reading
    def mark(self) -> List[Tuple[float, float, float]]:
        """Totals so far, ``(slices, slice seconds, CPU seconds)``: this
        process's, then each worker slot's."""
        marks = [(self.slices, self.slice_s, self.cpu_s)]
        if self._workers is not None:
            totals = list(self._workers)
            marks += [tuple(totals[i:i + 3]) for i in range(0, len(totals), 3)]
        return marks

    @staticmethod
    def busiest(since, until) -> Tuple[float, float]:
        """``(slices, slice seconds)`` between two marks of the process
        that did the most work besides slices.  Its core's speed governs
        a window that waits for it (the window's own process, or the
        pool worker that finishes last)."""
        deltas = [[b - a for a, b in zip(x, y)] for x, y in zip(since, until)]
        slices, slice_s, _ = max(deltas, key=lambda d: (d[0] > 0, d[2] - d[1]))
        return slices, slice_s

    @staticmethod
    def rescale(measured: float, slices: float, slice_s: float) -> float:
        """``measured`` host seconds rescaled to the nominal host, given
        the slices sampled meanwhile."""
        return measured * NOMINAL_SLICE_S * slices / slice_s if slices else measured
