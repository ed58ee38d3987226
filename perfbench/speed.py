"""The host CPU's speed, sampled while a measurement runs.

On a shared host the speed of one core swings by up to ~1.8x within seconds:
a fixed piece of Python takes either about its usual time or much longer, as
other tenants come and go.  A short reference kernel timed now and then
during a measurement tells how fast the CPU was while it ran, so its host
seconds can be expressed as seconds on a CPU of reference speed.

``SpeedSampler`` runs ``probe_kernel`` from a ``SIGPROF`` handler every
``INTERVAL_S`` of the process's CPU time.  The kernel is pure Python of the
simulator's kind (a heap of events and a dict of counters) and no code of the
program, so a change to the program does not change the kernel.  The samples
are evenly spaced in CPU time, so the CPU seconds a phase would have taken on
the reference CPU are its CPU seconds times the mean of
``PROBE_REFERENCE_S / probe time``.  The time spent in the handler is counted
and taken out of the phase's CPU seconds.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time

#: CPU seconds between two probes.
INTERVAL_S = 0.02
#: Loop iterations of one probe (about 1 ms).
PROBE_ITERATIONS = 1_000
#: CPU seconds of one probe on the reference CPU (about its time on one core
#: of a 2-vCPU x86-64 cloud VM under CPython 3, when other tenants are idle).
PROBE_REFERENCE_S = 0.0008


def probe_kernel(iterations: int = PROBE_ITERATIONS) -> int:
    """Fixed event-loop-like work: push and pop a bounded heap, count in a dict."""
    rng = random.Random(5)
    events: list[tuple[float, int]] = []
    counters: dict[int, int] = {}
    for i in range(iterations):
        heapq.heappush(events, (rng.random(), i))
        counters[i % 97] = counters.get(i % 97, 0) + i
        if len(events) > 50:
            heapq.heappop(events)
    return len(events) + len(counters)


class SpeedSampler:
    """Probes the CPU's speed during phases of one process's work.

    ``start()`` arms the timer; each ``phase()`` returns the probes and the
    handler's CPU seconds since the previous call; ``stop()`` disarms it.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self._probes: list[float] = []
        self._spent = 0.0
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        # The thread's clock: while a profiling timer is armed, the process's
        # CPU clock advances only at scheduler ticks, too coarse for a probe.
        start = time.thread_time()
        probe_kernel()
        took = time.thread_time() - start
        self._probes.append(took)
        self._spent += time.thread_time() - start

    def start(self) -> None:
        probe_kernel()  # warm-up, untimed
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def phase(self) -> tuple[list[float], float]:
        """Probe times and handler CPU seconds since the last call."""
        if not self._probes:  # a phase shorter than one interval
            self._probe()
        probes, spent = self._probes, self._spent
        self._probes, self._spent = [], 0.0
        return probes, spent


def reference_scale(probes: list[float]) -> float:
    """Reference-CPU seconds per CPU second of the sampled phase."""
    return PROBE_REFERENCE_S / statistics.harmonic_mean(probes)
