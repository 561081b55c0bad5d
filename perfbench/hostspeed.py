"""Host speed probe, so timings from a drifting shared host can be compared.

On a few cores of a shared host the speed of the same code drifts by 20 %
or more for tens of seconds at a time, as neighbouring jobs start and
stop.  The probe is a short fixed kernel in the style of the package's
interval vectors (small numpy arrays, outward rounding with ``nextafter``)
that the package cannot change.  While a ``Clock`` runs, an interval timer
interrupts the measured work every ``EVERY_S`` seconds and the signal
handler runs the probe, in the same thread, so the probe sees the speed
the work is getting at that moment, also in the middle of one long call.
Each stretch of work between two probes is rescaled by ``REF_S`` over the
mean of those two probe times: the time the stretch would have taken on a
host where one probe takes ``REF_S``.  A change to the package moves the
rescaled times as it moves wall time; a change in the host's speed moves
both the stretch and its probes, and cancels.  Probe time is not work.
Child processes that start an interpreter are rescaled by a bare
interpreter start instead (``timed_start``).
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# reference times; on a 2-core share of a busy x86-64 host one probe took
# 0.013 to 0.03 s and a bare interpreter start 0.05 to 0.1 s
REF_S = 0.025
START_REF_S = 0.075
EVERY_S = 0.25  # seconds of work between two probes
_ROUNDS = 3000


def probe() -> float:
    """Seconds taken by one run of the fixed kernel."""
    a = np.linspace(0.5, 1.5, 64)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        b = np.nextafter(a * 1.0001, np.inf)
        acc += float((np.minimum(a, b) + np.maximum(a, b)).sum())
    dt = time.perf_counter() - t0
    if not acc > 0:
        raise AssertionError("probe kernel went wrong")
    return dt


def timed_start(argv: list[str], reps: int) -> tuple[float, float]:
    """Median wall seconds of running ``argv`` as a child process, and that rescaled.

    Starting an interpreter and importing modules maps libraries and reads
    files as much as it computes, and does not follow the compute probe:
    on a 2-core share of a busy host, import times stayed within 5 % while
    the probe moved by 20 %.  So each run of ``argv`` follows a run of a bare interpreter, the
    median of their ratios is scaled by ``START_REF_S``, and the children
    are waited for.
    """
    bare = [sys.executable, "-c", "pass"]
    walls, ratios = [], []
    for _ in range(reps):
        b = _child_s(bare)
        w = _child_s(argv)
        walls.append(w)
        ratios.append(w / b)
    return statistics.median(walls), START_REF_S * statistics.median(ratios)


def _child_s(argv: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Clock:
    """Wall time of the work between ``start`` and ``stop``, and that time rescaled.

    ``wall_s`` and ``scaled_s`` are the totals of the last start/stop
    phase, probe time excluded.  With
    ``probing=False`` no timer is set and ``scaled_s`` is the wall time,
    for the traced run, whose spans must cover all of it.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self.probes: list[float] = []
        self.wall_s = self.scaled_s = 0.0
        self._mark = 0.0
        self._previous = None

    def start(self) -> None:
        self.wall_s = self.scaled_s = 0.0
        if self.probing:
            if not self.probes:
                self.probes.append(probe())
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S)
        self._mark = time.perf_counter()

    def stop(self) -> None:
        if not self.probing:
            self.wall_s = self.scaled_s = time.perf_counter() - self._mark
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._close()

    def _on_alarm(self, signum, frame) -> None:
        self._close()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)

    def _close(self) -> None:
        work = time.perf_counter() - self._mark
        p = probe()
        self.wall_s += work
        self.scaled_s += work * REF_S / ((self.probes[-1] + p) / 2)
        self.probes.append(p)
        self._mark = time.perf_counter()
