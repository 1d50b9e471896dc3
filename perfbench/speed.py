"""Campaign time at a fixed reference speed of the machine.

On a shared host the same pure-Python campaign runs at very different
speeds from one second to the next (identical passes of one run differ by
20%, runs drift by a third), and the CPU time moves with the wall clock,
so ``process_time`` is no steadier.  A :class:`Speedometer` therefore
samples the machine while a phase runs: every ``INTERVAL_S`` a timer
signal runs a short fixed probe on the main thread, the thread that drives
the phase.  Each probe gives the speed at that moment relative to the
reference speed (``REFERENCE_PROBE_S`` per probe), and

    reference seconds = (wall time - probe time) * mean(reference / probe)

is the time the phase's work would have taken at the reference speed.  A
faster program still reads faster by the same factor; a busier host no
longer reads as a slower program.

The probe is fixed code that never changes with the program: object
creation, a method call, tuple and frozenset hashing, dict and set updates
and a subset test, the operations the mining layers spend their time in.
It runs cold: 20 ms of the phase's work have evicted its code and data, so
it pays cache misses as the program does, and neighbours that crowd the
host's shared caches slow both.  Over thirty identical travel campaigns
(threshold 0.4) on a busy 2-vCPU VM the quartile spread over the median
was 0.17-0.27 in wall seconds, 0.08-0.11 scaled by a bare arithmetic loop
and 0.05-0.06 scaled by this probe; over sixteen travel campaigns at 0.2
it was 0.17 in wall seconds, 0.03 with this probe cold and 0.04 with it
run twice and only the warm second run timed.  See ``README.md``,
"Reference seconds".
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable, List, Optional

clock = time.perf_counter

#: iterations of the probe body per probe
PROBE_LOOPS = 100
#: seconds one probe takes at the reference speed.  This fixes the unit:
#: a reference second is a second of a machine on which the probe takes
#: 130 µs between stretches of program work, about the average on a shared
#: 2-vCPU Xeon (Sapphire Rapids class) VM under CPython 3.11
REFERENCE_PROBE_S = 130e-6
#: seconds between probes; the overhead is under 1% and is subtracted
INTERVAL_S = 0.02


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight

    def scaled(self, factor: int) -> int:
        return self.key + self.weight * factor


_SETS = [frozenset((index, index + 1, index * 7 % 13)) for index in range(64)]


def probe_seconds(timer: Callable[[], float] = clock) -> float:
    """Seconds (of ``timer``) the fixed probe takes right now."""
    sets = _SETS
    started = timer()
    counts: dict = {}
    seen = set()
    total = 0
    for index in range(PROBE_LOOPS):
        item = _Item(index, index + 1)
        total += item.scaled(index)
        key = (index & 31, sets[index & 63])
        counts[key] = counts.get(key, 0) + 1
        if sets[index & 63] <= sets[(index + 1) & 63] or key in seen:
            total += 1
        seen.add(key)
    return timer() - started


class Speedometer:
    """Times one phase in wall and in reference seconds.

    Use as a context manager on the main thread; the phase may start
    threads and processes (the timer belongs to this process and is not
    inherited by children).  Python runs signal handlers on the main
    thread only, so the probe runs there, between two bytecodes of
    whatever the main thread is doing, or when a blocking call it is in
    returns.  ``probe_s`` is the wall time the probes took; a caller that
    times a call inside the phase subtracts the part spent there.

    ``timer`` times each probe.  The wall clock (the default) also counts
    the moments the host takes the CPU away.  Where the phase's own worker
    processes compete with the main thread for the CPUs, pass
    ``time.thread_time``: a probe preempted by the program's own workers
    would otherwise read as a slow machine.
    """

    def __init__(self, interval: float = INTERVAL_S,
                 reference: float = REFERENCE_PROBE_S,
                 timer: Callable[[], float] = clock) -> None:
        self.timer = timer
        self.interval = interval
        self.reference = reference
        #: probe durations, seconds
        self.samples: List[float] = []
        #: wall seconds spent inside probes during the phase
        self.probe_s = 0.0
        self.wall_s = 0.0
        self._started = 0.0
        self._previous: Any = None

    def _tick(self, signum: int, frame: Optional[Any]) -> None:
        entered = clock()
        self.samples.append(probe_seconds(self.timer))
        self.probe_s += clock() - entered

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._started = clock()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall_s = clock() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a phase shorter than one interval
            self.samples.append(probe_seconds(self.timer))

    @property
    def speed(self) -> float:
        """Mean speed over the phase; 1.0 is the reference speed."""
        return statistics.fmean(self.reference / sample for sample in self.samples)

    @property
    def reference_s(self) -> float:
        """The phase's own work, in seconds at the reference speed."""
        return (self.wall_s - self.probe_s) * self.speed
