"""Host-speed reference, sampled while the program runs.

On a shared VM the speed of one vCPU drifts by up to 2x over seconds, and the
two vCPUs drift independently; steal time does not show it, and CPU time
inflates with it.  So every few milliseconds a timer signal interrupts the
program and times a fixed pure-Python kernel (``spin``: the field row update
at the heart of the elimination loops, through method calls as the program
makes them).  An op's time divided by the
mean spin time around it, times ``NOMINAL_SPIN_S``, is the op's time at the
reference speed: the speed at which ``spin`` takes ``NOMINAL_SPIN_S``.

The spin is fixed benchmark code, so a change to the program moves the
normalized time exactly as it moves the clock time.  Clock times are
reported beside the normalized ones.
"""

from __future__ import annotations

import bisect
import signal
import time

P62 = (1 << 62) - 57
_ROW = [(i * 2654435761) % P62 for i in range(48)]


class _Field:
    """Method-call arithmetic, as in taylorpade's PrimeField."""

    def __init__(self, p: int):
        self.p = p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def is_zero(self, a: int) -> bool:
        return a == 0


_FIELD = _Field(P62)

# Fastest spin measured on a 2-core x86-64 VM with CPython 3.11.
NOMINAL_SPIN_S = 2.0e-5


def _update(row: list, fld: _Field, f: int):
    for _ in range(2):
        for j in range(48):
            if not fld.is_zero(row[j]):
                row[j] = fld.sub(row[j], fld.mul(f, _ROW[j]))


def spin() -> float:
    """Seconds for two field row updates of length 48 (the reference work).

    The work runs twice and only the second run is timed, so the caches the
    program just used do not count: the probe measures the core's speed, not
    the program's memory footprint.
    """
    perf = time.perf_counter
    _update(_ROW[:], _FIELD, 1234567)
    row = _ROW[:]
    t0 = perf()
    _update(row, _FIELD, 1234567)
    return perf() - t0


class SpeedProbe:
    """Samples ``spin`` every ``interval`` seconds of wall time (SIGALRM)."""

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.times: list = []  # sample timestamps (perf_counter)
        self.spins: list = []  # timed spin seconds, in the same order
        self.cost: list = []  # seconds each sample took, warm-up run included
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        d = spin()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.spins.append(d)
        self.cost.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the probe itself took inside [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        return sum(self.cost[lo:hi])

    def slowdown(self, t0: float, t1: float, margin: float = 0.25) -> float:
        """Mean spin time around [t0, t1] over ``NOMINAL_SPIN_S``."""
        lo = bisect.bisect_left(self.times, t0 - margin)
        hi = bisect.bisect_right(self.times, t1 + margin)
        window = self.spins[lo:hi]
        if not window:
            raise RuntimeError("no speed samples around the interval")
        return sum(window) / len(window) / NOMINAL_SPIN_S
