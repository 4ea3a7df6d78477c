"""Machine-speed probe used to express timings at a fixed reference speed.

The hosts this benchmark runs on are shared.  The speed of one
single-threaded Python loop switches between about 1x, 1/2x and 1/3.5x every
few milliseconds to few hundred milliseconds, and the mix drifts between runs
minutes apart (CPU time tracks wall time, so the process is not descheduled:
each instruction just takes longer).  Raw seconds therefore cannot be
compared between two sets of runs.

The probe is a fixed loop of standard-library work shaped like idop's inner
loops (Fraction products and sums, tuple keys, dict accumulation, wide-integer
products); it never touches idop, so no change to the program moves it.  The
benchmark probes right after every operation (SpeedMeter), and every 50 ms
inside an operation (InOpSampler), and divides the operation's duration by
the mean speed of the probes during and around it.  Results are in
"reference seconds": seconds on a machine where one probe unit takes
UNIT_REF_S.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

# One probe unit takes about this long on the reference machine (a quiet
# period of the host the baseline was taken on); it only sets the scale.
UNIT_REF_S = 0.0016

# A probe between operations lasts PROBE_SHARE of the time since the
# previous probe ended, and at least PROBE_MIN_S, so that probing costs about
# a fixed share of a phase whatever the length of its operations.
PROBE_MIN_S = 0.003
PROBE_SHARE = 0.3

_MASK = (1 << 160) - 1


def _probe_units(min_s: float) -> tuple:
    """Run whole probe units for at least `min_s`; return (units, start, end)."""
    units = 0
    # A collection would walk the workload's heap and make the probe
    # measure heap size instead of machine speed.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        while True:
            probe_unit()
            units += 1
            end = time.perf_counter()
            if end - start >= min_s:
                return units, start, end
    finally:
        if gc_was_enabled:
            gc.enable()


def probe_unit() -> int:
    acc: dict = {}
    big = 0x9E3779B97F4A7C15
    for i in range(1, 300):
        c = Fraction(i % 7 + 1, i % 5 + 1) * Fraction(i % 3 + 1, i % 4 + 2)
        key = (i % 13, i % 11)
        acc[key] = acc.get(key, 0) + c
        big = (big * (i | 1) + i) & _MASK
    return len(acc) + big.bit_length()


class SpeedMeter:
    """Probes the machine between operations and converts durations."""

    def __init__(self):
        self.times: list[float] = []  # midpoint of each probe
        self.factors: list[float] = []  # reference seconds per raw second
        self.last_end: float | None = None

    def probe(self) -> None:
        target = PROBE_MIN_S
        if self.last_end is not None:
            target = max(target, PROBE_SHARE * (time.perf_counter() - self.last_end))
        units, start, end = _probe_units(target)
        self.times.append((start + end) / 2)
        self.factors.append(units * UNIT_REF_S / (end - start))
        self.last_end = end

    def factor_at(self, t0: float, t1: float) -> float:
        """Mean factor of the last probe before t0 and the first probe after t1."""
        i = bisect.bisect_right(self.times, t0) - 1
        j = bisect.bisect_left(self.times, t1)
        picks = [self.factors[k] for k in (i, j) if 0 <= k < len(self.factors)]
        if not picks:
            raise RuntimeError("no speed probe brackets the interval")
        return sum(picks) / len(picks)


class InOpSampler:
    """Samples speed inside long operations from a SIGALRM handler.

    An operation of a few seconds spans many speed switches that the probes
    around it cannot see.  While armed, a real-time interval timer runs one
    probe unit every PERIOD_S seconds in the main thread, between bytecodes
    of the operation: no thread or process is started.  The samples are
    uniform in time, so their mean is the operation's mean speed, and their
    own duration is taken out of the operation's.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.starts: list = []
        self.samples: list = []  # (duration, factor), in the order of starts
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        units, start, end = _probe_units(0.0)
        self.starts.append(start)
        self.samples.append((end - start, units * UNIT_REF_S / (end - start)))

    def __enter__(self) -> "InOpSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        self.disarm()
        signal.signal(signal.SIGALRM, self._previous)

    def arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def within(self, t0: float, t1: float) -> tuple:
        """(factors, total duration) of the samples taken inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = [(d, f) for s, (d, f) in zip(self.starts[lo:hi], self.samples[lo:hi]) if s + d <= t1]
        return [f for _, f in inside], sum(d for d, _ in inside)
