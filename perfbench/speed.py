"""Machine-speed probe: a fixed unit of reference work, timed between the
program's calls.

The machines this benchmark runs on may change speed while it runs: on
the 2-vCPU virtual machine of the README a core ran at 51-100 % of its
best rate, in stretches from under a second to tens of seconds, with CPU
time tracking wall time throughout.  Times measured in one run then
differ from those of another by the machine's state, not the program's.

A ``Probe`` runs a fixed unit of single-threaded reference work (an
interpreter loop, an FFT and a matrix product, none of them from the
program) for a fixed share of every measured interval, right after it.
Its rate over a run, against ``REF_UNITS_PER_S``, is the machine's speed
during that run; the benchmark reports program seconds scaled to that
reference speed.  The probe's time is never part of a measured interval.
"""

from __future__ import annotations

import time

import numpy as np

# units per second of the probe at the fast state of the README's machine;
# a fixed constant, so scaled seconds read as seconds at that speed
REF_UNITS_PER_S = 1000.0
DUTY = 0.2  # probe seconds per measured second

_rng = np.random.default_rng(12345)
_FFT_IN = _rng.random((128, 128))
_MAT = _rng.random((128, 128))
_VEC = _rng.random(1 << 16)


def unit() -> float:
    """One unit of reference work; returns a value so nothing is skipped."""
    acc = 0
    for i in range(6000):
        acc += i * i & 7
    back = np.fft.irfft2(np.fft.rfft2(_FFT_IN), _FFT_IN.shape)
    prod = _MAT @ _MAT
    mixed = float(np.dot(np.cumsum(_VEC), _VEC))
    return acc + float(back[0, 0]) + float(prod[0, 0]) + mixed


class Probe:
    """Runs reference work after each measured interval and keeps totals."""

    def __init__(self, duty: float = DUTY):
        self.duty = duty
        self.units = 0
        self.seconds = 0.0

    def after(self, measured_s: float) -> None:
        """Run units for ``duty`` x ``measured_s``."""
        self.run(self.duty * measured_s)

    def run(self, budget: float) -> None:
        """Run units for ``budget`` seconds, and at least one."""
        start = time.perf_counter()
        n = 0
        while True:
            unit()
            n += 1
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                break
        self.units += n
        self.seconds += elapsed

    def speed(self) -> float:
        """The machine's speed during the probes, as a share of the reference."""
        return self.units / self.seconds / REF_UNITS_PER_S

    def scaled(self, seconds: float) -> float:
        """``seconds`` of the program, as seconds at the reference speed."""
        return seconds * self.speed()


class Stopwatch:
    """Sums stretches of the program's time from ``start`` on; the probe
    runs after each stretch and is left out of the sum."""

    def __init__(self, start: float):
        self.probe = Probe()
        self.last = start
        self.seconds = 0.0

    def mark(self) -> None:
        """End the current stretch here, probe, and start the next."""
        stretch = time.monotonic() - self.last
        self.seconds += stretch
        self.probe.after(stretch)
        self.last = time.monotonic()

    def scaled(self) -> float:
        return self.probe.scaled(self.seconds)
