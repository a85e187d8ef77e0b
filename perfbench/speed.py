"""Machine-speed reference for timings on a shared, drifting CPU.

On a shared virtual machine the same Python code can run 20-60 % slower for
tens of seconds at a time (the host's other tenants), and neither medians
nor minima within one run hide a slowdown that covers the whole run.  So
every timing the benchmark reports is scaled to a fixed reference speed: a
short pure-Python loop is timed next to the timed work, and the work's
duration is multiplied by ``REFERENCE_S / r``, with ``r`` the loop's time
(a median of a few timings) measured

* right before and right after each untraced entry-point call (``Speed``,
  ``r`` the mean of the two),
* every few rows of each replay (``r`` the median over the run), and
* inside each set-up child, right after it is ready.

A duration therefore reads in seconds at the speed at which the loop takes
``REFERENCE_S``: its median time in a quiet stretch on the 2-vCPU Xeon
virtual machine the baseline was taken on.  The unscaled durations are
printed next to the scaled ones.

The loop does what the program's inner loops do: float math through the
``math`` module, function calls and small tuples.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

REFERENCE_S = 1.8e-4
LOOP_REPEATS = 7


def _loop() -> float:
    acc = 0.0
    for i in range(700):
        x, y = math.cos(i * 1e-3), math.sin(i * 1e-3)
        acc += _hypot2((x, y))
    return acc


def _hypot2(p: tuple[float, float]) -> float:
    return p[0] * p[0] + p[1] * p[1]


def loop_time() -> float:
    """One timing of the reference loop, in seconds."""
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0


def reference_time() -> float:
    """Median of a few timings of the reference loop, in seconds."""
    return statistics.median(loop_time() for _ in range(LOOP_REPEATS))


class Speed:
    """Scales durations to the reference speed, probing around each one.

    Create it (or ``restart`` it) right before the first timed call; then
    pass each call's raw duration to ``scale`` right after the call returns.
    The probe taken by one ``scale`` is the "before" probe of the next call.
    """

    def __init__(self) -> None:
        self._last = reference_time()
        self.factors: list[float] = []

    def restart(self) -> None:
        """Re-probe after untimed work, so the next call's 'before' is fresh."""
        self._last = reference_time()

    def scale(self, raw_seconds: float) -> float:
        """``raw_seconds`` at reference speed; the probe also serves the next call."""
        now = reference_time()
        factor = REFERENCE_S / (0.5 * (self._last + now))
        self._last = now
        self.factors.append(factor)
        return raw_seconds * factor
