"""How fast the repetition's CPU runs, sampled while the repetition runs.

The shared VM this benchmark was built on changes the speed of each of
its CPUs by up to 2x from one second to the next, independently per
CPU.  At times the change shows as steal time; often nothing shows it:
a fixed pure-Python loop timed every half second took 0.39 s, then
0.74 s, then 0.41 s, of CPU time as of wall time.  A reference task
timed before or after a sweep therefore says little about the sweep's
own speed.

A :class:`SpeedProbe` samples the speed during each phase instead: it
times :func:`probe_work`, a fixed piece of interpreter work shorter
than the interpreter's thread switch interval, so no other Python
thread runs inside a probe.  ``rep.py`` divides each phase's time by
the phase's :meth:`SpeedProbe.slowdown`, which gives seconds on a CPU
that runs the probe in exactly :data:`REFERENCE_S`.
"""

from __future__ import annotations

import heapq
import statistics
import threading
import time
from typing import List, Tuple

#: Seconds between two probes of the background thread.  A probe takes
#: about REFERENCE_S, so probing costs about 1% of a phase.
PERIOD_S = 0.05

#: Seconds :func:`probe_work` takes on a fast CPU of the host the
#: benchmark was built on.  It only sets the scale of reported times.
REFERENCE_S = 4.3e-4


def probe_work() -> float:
    """A fixed piece of interpreter work: a heap, a dict, float arithmetic."""
    heap: List[Tuple[int, int]] = []
    table = {}
    total = 0.0
    for i in range(600):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        slot = i & 127
        table[slot] = table.get(slot, 0.0) * 0.5 + i
        total += (i * 1.0001) % 7.0
    while heap:
        total += heapq.heappop(heap)[0]
    return total


class SpeedProbe:
    """The probe samples of one repetition.

    As a context manager it probes from a daemon thread every
    :data:`PERIOD_S`.  :meth:`sample` probes on the caller's thread, for
    a phase whose own timings a probing thread would disturb.
    """

    def __init__(self) -> None:
        #: (perf_counter at the start, seconds) of every probe.
        self._samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._probe_periodically, name="speed-probe", daemon=True
        )

    def sample(self) -> None:
        started = time.perf_counter()
        probe_work()
        self._samples.append((started, time.perf_counter() - started))

    def _probe_periodically(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than REFERENCE_S the probes of ``[start, end)`` ran.

        The probes sample the CPU's speed at even intervals, and a phase
        is stretched by the inverse of its mean speed: the harmonic mean
        of the probe times.  A phase too short to hold a probe takes the
        probe nearest to its middle.
        """
        samples = list(self._samples)
        inside = [took for at, took in samples if start <= at < end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return statistics.harmonic_mean(inside) / REFERENCE_S
