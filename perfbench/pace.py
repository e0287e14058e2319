"""Paced timing: call times corrected for the machine's speed at the time.

On a shared virtual machine the processor's speed for plain Python
arithmetic drifts by up to 1.7x within seconds to minutes, with process
CPU time equal to wall time (nothing is stolen that the guest could see).
So the benchmark runs a fixed calibration loop, `unit()`, next to the
program's calls: once before and once after each call, and, for calls
that run in the benchmark process itself, every PERIOD_S seconds during
the call from a SIGALRM handler, whose time is taken out of the call's.
A call's paced time is

    paced_s = net_s * REF_S / pace_s

where net_s is its wall time minus the handler's time and pace_s is the
harmonic mean of the durations of the loop samples taken around and
during it (so that REF_S / pace_s is the mean speed over the call): the
seconds the call would take on a machine where `unit()` takes REF_S.
It uses only the standard library (integers, Fraction, dict), never the
program, so a faster or slower program moves paced times as it moves
wall times.
"""

from __future__ import annotations

import gc
import signal
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

REF_S = 0.010
PERIOD_S = 0.1
_MOD = 1 << 600


def unit() -> float:
    """Seconds taken by a fixed mix of big-integer, Fraction and dict
    work, about REF_S on the reference machine."""
    start = perf_counter()
    x, acc, d = 1, Fraction(0), {}
    for i in range(1, 1500):
        x = (x * 1000003 + i) % _MOD
        acc += Fraction(i, i + 7)
        d[i & 255] = d.get(i & 255, 0) + x
    return perf_counter() - start


@dataclass
class Timing:
    wall_s: float          # wall time of the call, handler included
    net_s: float           # wall time minus the handler's time
    samples: list[float]   # unit() durations around and during the call
    end: float             # perf_counter() when the call returned

    @property
    def pace_s(self) -> float:
        return statistics.harmonic_mean(self.samples)

    @property
    def paced_s(self) -> float:
        return self.net_s * REF_S / self.pace_s


def pooled(call: Timing, parts: list[Timing]) -> Timing:
    """The timing of a call whose work ran in `parts` in other processes
    (on this machine, so their clocks agree), each timed there with
    interleaved samples: the handler time of the part that ended last
    comes off the call's time, and the pace is taken over every sample."""
    last = max(parts, key=lambda t: t.end)
    return Timing(call.wall_s, call.wall_s - (last.wall_s - last.net_s),
                  call.samples + [d for t in parts for d in t.samples], call.end)


class Meter:
    """Times calls with unit() samples around them and, when asked,
    interleaved with them."""

    def __init__(self):
        self._samples: list[float] = []
        self._spent = 0.0
        self._active = False

    def _on_alarm(self, signum, frame):
        if not self._active:
            return
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._samples.append(unit())
        finally:
            if enabled:
                gc.enable()
        self._spent += perf_counter() - start

    def time(self, fn, *args, interleave: bool = True):
        """(result, Timing) of fn(*args).  Interleave only calls whose
        work runs in this process: while a call waits for other
        processes, the handler would compete with them (see pooled())."""
        self._samples = [unit()]
        self._spent = 0.0
        if interleave:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            self._active = True
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            end = perf_counter()
            if interleave:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self._active = False
                signal.signal(signal.SIGALRM, previous)
        wall = end - start
        samples = self._samples
        samples.append(unit())
        return result, Timing(wall, wall - self._spent, samples, end)
