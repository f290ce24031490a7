"""How fast the CPU under this thread is running right now.

The shared 2-core machine this benchmark was written on changes speed by
up to 40 % from one minute to the next: a fixed pure-Python loop swings
between two levels, in CPU time as much as in wall time, so the cause is
the core slowing down, not the process waiting.  Raw wall times of
identical runs therefore spread by about 30 %.

``Sampler`` runs a small fixed probe on a timer signal in the measuring
thread itself, about every 50 ms, while a pass runs.  The mean probe
time around an interval says how slow the core was during it, and
``scale`` turns the interval into seconds at a fixed reference speed
(where one probe takes ``REFERENCE_PROBE_S``).  The probe does the same
kind of work as the engine (dict lookups, tuples, small Fractions) and
uses no diffalg code, so a change to the engine cannot move it.  Time
spent in the signal handler is taken out of every measured interval.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Mean probe time at the reference speed: the usual level of the machine
# the baselines in trajectory.json were measured on.
REFERENCE_PROBE_S = 0.0005

INTERVAL_S = 0.05

# A single probe, or a few, varies more than the speed does, so even a
# short op is scaled by the probes of the two seconds around it.
WINDOW_S = 1.0


def probe() -> float:
    """Seconds one fixed unit of interpreter work takes now."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = Fraction(0)
    for i in range(1, 120):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i * i
        acc += Fraction(i, i + 1)
    return time.perf_counter() - t0


def probe_now(n: int = 20) -> float:
    """Median of n probes in a row, for use outside a sampled interval."""
    return statistics.median(probe() for _ in range(n))


class Sampler:
    """Probes on SIGALRM while active; ``spent`` is handler time so far.

    ``samples`` holds (time, probe seconds) pairs; the time is on the
    perf_counter clock with earlier handler time already taken out, the
    same clock the measured intervals use.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._old = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0 - self.spent, probe()))
        self.spent += time.perf_counter() - t0

    def slowness(self, start: float, end: float) -> float:
        """Mean probe time over [start, end] widened by WINDOW_S on each
        side, or over all probes if none fell there."""
        near = [d for t, d in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S]
        return statistics.fmean(near or [d for _, d in self.samples])

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


def scale(mean_probe_s: float) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_PROBE_S / mean_probe_s
