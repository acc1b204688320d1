"""Host-speed probe: pass times that do not move with the vCPU's speed.

On a small shared VM a vCPU runs at one of two speeds, and switches
between them every second or so: the same deterministic pass takes
anywhere from 1x to 2x its fastest time, and the share of slow time in a
30 s run varies from run to run.  Wall and CPU time move together, so the
process is not waiting; the vCPU runs slower.  Medians over passes or
longer runs do not remove this (WORKLOADS.md, "Noise").

What does remove it is reading the speed of the vCPU the pass is on, at
the moment the pass runs there.  `Sampler` runs a fixed pure-Python kernel
(`probe`, a 60x60 big-integer convolution, about 0.5 ms at full speed) in
the pass's own thread every INTERVAL_S, from a SIGALRM handler, and records
when it ran and how long it took.  `Sampler.adjusted_s` then gives the
pass's time as if every probe had read REF_PROBE_S: each stretch of the
pass between two probes is weighted by REF_PROBE_S over the mean of the
two probes.  The probes' own time is left out of both the raw and the
adjusted time.  `reading` does the same for the short set-up, from probes
taken just before and just after it.
"""

from __future__ import annotations

import os
import signal
import time

INTERVAL_S = 0.05          # one probe per 50 ms of a pass: about 1-2 % of its time
REF_PROBE_S = 0.0005       # the probe's time at full speed on a 2-vCPU Xeon VM

_TERMS = {i: (i * 7919 + 1) ** 3 for i in range(60)}


def probe() -> float:
    """CPU seconds one run of the fixed kernel takes now.

    CPU time rather than wall time, so that a probe that waits for a pool
    worker on its vCPU still reads the vCPU's speed.
    """
    started = time.thread_time()
    out: dict = {}
    for i, x in _TERMS.items():
        for j, y in _TERMS.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return time.thread_time() - started


def reading() -> float:
    """The probe's time now: the fastest of three runs after a warm-up run."""
    probe()
    return min(probe() for _ in range(3))


class Sampler:
    """Probes the vCPU every INTERVAL_S of wall time while a pass runs.

    With `spread=True` (passes with pool workers, which run on every vCPU)
    the probes take the vCPUs in turn: each probe moves the pass's main
    thread to the next vCPU, and the thread's affinity is restored after
    it, so workers forked later still get every vCPU.
    """

    def __init__(self, spread: bool = False):
        self.samples: list = []    # (wall start, wall end, probe CPU seconds)
        self._previous = None
        self._cpus = sorted(os.sched_getaffinity(0)) if spread else []

    def _tick(self, signum=None, frame=None) -> None:
        if self._cpus:
            allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {self._cpus[len(self.samples) % len(self._cpus)]})
        started = time.perf_counter()
        cpu = probe()
        self.samples.append((started, time.perf_counter(), cpu))
        if self._cpus:
            os.sched_setaffinity(0, allowed)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def _stretches(self):
        """(wall seconds between two probes, mean CPU seconds of the two)."""
        return [(s1 - e0, (c0 + c1) / 2)
                for (_, e0, c0), (s1, _, c1) in zip(self.samples, self.samples[1:])]

    def raw_s(self) -> float:
        """Wall time from the first probe to the last, without the probes."""
        return sum(wall for wall, _ in self._stretches())

    def probe_cpu_s(self) -> float:
        """CPU time of the probes between the first one and the last one."""
        return sum(cpu for _, _, cpu in self.samples[1:-1])

    def adjusted_s(self) -> float:
        """The raw time, with each stretch scaled to the reference probe time."""
        return sum(wall * REF_PROBE_S / cpu for wall, cpu in self._stretches())
