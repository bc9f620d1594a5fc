"""Machine-speed probe: scales each measured time to one reference speed.

The 2-vCPU KVM guest this benchmark was defined on switched between a fast
and a slow phase, about 1.75x apart, for seconds to minutes at a time. That
moved the median of a 20-second run by up to 25% between runs. A fixed,
benchmark-owned probe that does the same kind of work as bellsim (64-bit
integer mixing in the interpreter and numpy products on 4-element arrays)
slowed down by the same factor: the ratio of a bellsim call to the probe
beside it stayed within 4% while the call's own time moved by 20%.

So every timed stretch is divided by the host's slowness measured by the
probe at its two ends. The probe is benchmark code, so a change to bellsim
cannot move it, and both commits of a comparison are scaled to the same
reference.
"""
from __future__ import annotations

import os
import signal
import statistics
from time import perf_counter, process_time

import numpy as np

# Median probe time in the fast phase of the host the benchmark was defined on.
REFERENCE_PROBE_S = 0.0005

_MASK64 = (1 << 64) - 1
_MATRIX = np.eye(4, dtype=complex)
_VECTOR = np.full(4, 0.5, dtype=complex)


def probe() -> int:
    """Fixed work shaped like bellsim's: splitmix-style mixing and 4x4 products."""
    x = 0x9E3779B97F4A7C15
    for _ in range(750):
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    w = _VECTOR
    for _ in range(150):
        w = _MATRIX @ w
        x ^= int(np.vdot(w, w).real)
    return x


def slowness(probes: int = 15) -> float:
    """The host's current slowness: median probe wall time over REFERENCE_PROBE_S."""
    times = []
    for _ in range(probes):
        start = perf_counter()
        probe()
        times.append(perf_counter() - start)
    return statistics.median(times) / REFERENCE_PROBE_S


def cpu_time() -> float:
    """CPU seconds of every thread of this process and of its reaped children."""
    times = os.times()
    return process_time() + times.children_user + times.children_system


def _clocks() -> tuple[float, float]:
    return perf_counter(), cpu_time()


class Clock:
    """Times calls and scales each time to the reference machine speed.

    The host's slowness is the probe time over ``REFERENCE_PROBE_S``, taken
    on each clock. A probe runs after every call and, through a SIGALRM
    interval timer, every ``TICK_S`` inside a long call: a phase switch in
    the middle of a 1-second ``bellsim verify`` call otherwise mis-scales the
    whole call (NOTES.md gives the spreads with and without it). Each stretch
    between two probes is divided by the mean slowness at its two ends.
    Probe time itself is left out of both the raw and the scaled time.
    """

    TICK_S = 0.05

    def __init__(self):
        self._active = False
        self._raw = self._scaled = (0.0, 0.0)
        self._mark = _clocks()
        self._slowness = self._probe()

    def _probe(self) -> tuple[float, float]:
        start = _clocks()
        probe()
        self._mark = _clocks()
        return tuple((done - began) / REFERENCE_PROBE_S for done, began in zip(self._mark, start))

    def _close_stretch(self, *_signal) -> None:
        if self._active:
            self._account(_clocks())

    def _account(self, now) -> None:
        spent = tuple(t - m for t, m in zip(now, self._mark))
        before, self._slowness = self._slowness, self._probe()
        after = self._slowness
        self._raw = tuple(r + d for r, d in zip(self._raw, spent))
        self._scaled = tuple(sc + 2 * d / (b + a) for sc, d, b, a in zip(self._scaled, spent, before, after))

    def measure(self, fn):
        """Run ``fn()``; return (result, raw (wall, cpu), scaled (wall, cpu)) seconds."""
        self._raw = self._scaled = (0.0, 0.0)
        previous = signal.signal(signal.SIGALRM, self._close_stretch)
        self._mark = _clocks()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        try:
            result = fn()
        finally:
            self._active = False
            now = _clocks()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._account(now)
        return result, self._raw, self._scaled
