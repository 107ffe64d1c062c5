"""Host-speed correction of the benchmark's times.

The benchmark runs on a shared host whose speed drifts: the same round of
the same workload takes 1.0 s in one minute and 2.0 s a few minutes later,
as other tenants load the machine. A run's median over its own rounds
cannot remove a slow spell that lasts the whole run, so ten runs spread
over half an hour spread as much as the host does.

Every timed piece of work (a round, a set-up) is therefore bracketed by two
calls of a fixed reference kernel, and its time is scaled by REF_S over the
mean of the two reference times: a time in "reference seconds", the time
the work would take on a host where one reference call takes REF_S. The
kernel is the benchmark's own code, not the program's, and does a fixed mix
of what the program does: interpreter loops over a dict, numpy calls on
small arrays, a sort of a 2.4 MB array and matrix products. A change to
the program moves the work's time and leaves the reference untouched.
"""
from __future__ import annotations

import time

import numpy as np

REF_S = 0.05   # reference seconds per reference call, by definition


def reference() -> float:
    """The fixed reference work; returns a checksum so none of it is
    skipped."""
    rng = np.random.default_rng(0)
    a = rng.random(300_000)
    for _ in range(3):
        np.sort(a)
    d: dict[int, int] = {}
    for i in range(60_000):
        d[i % 997] = d.get(i % 997, 0) + i
    x = rng.random((200, 200))
    for _ in range(5):
        x = np.tanh(x @ x / 200.0)
    s = 0.0
    for piece in np.array_split(a, 2000):
        s += float(piece.std())
    return s + float(x[0, 0]) + len(d)


def probe() -> float:
    """Wall time of one reference call, in seconds."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def warm_up() -> None:
    """The first reference calls of a process run cold (allocation, page
    faults) and read up to 50 % slow; call this before the first probe."""
    for _ in range(3):
        reference()


class Stopwatch:
    """Wall and CPU time of one piece of work, in host seconds and in
    reference seconds. The work may be cut into segments by ``mark``; each
    segment is scaled by the probes at its own two ends, so that a long
    piece of work follows the host's speed more closely. The probes' own
    time is not counted."""

    def __init__(self):
        self.wall = self.cpu = self.wall_ref = self.cpu_ref = 0.0
        self._ref = probe()
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()

    def mark(self) -> None:
        """End the current segment and start the next."""
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        ref = probe()
        scale = REF_S / (0.5 * (self._ref + ref))
        self.wall += wall
        self.cpu += cpu
        self.wall_ref += wall * scale
        self.cpu_ref += cpu * scale
        self._ref = ref
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()
