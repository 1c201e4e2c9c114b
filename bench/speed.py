"""Host speed, from a fixed calibration kernel timed next to each op.

On the shared 2-vCPU machine this benchmark was written on, one op's wall
time moves between levels up to 1.7x apart, over stretches from under a
second to a minute.  The load behind it is outside the guest: the guest's
CPUs are idle apart from the benchmark, and the op's CPU time equals its
wall time, so the op runs slower rather than waiting.  A fixed kernel of
small numpy calls, BLAS and LAPACK work, timed between ops, slows down by
about the same factor, so

    scaled latency = wall latency * REFERENCE_S / kernel time near the op

moves far less.  In one 60-75 s run per workload, split into windows of
about 6 s of op time, window medians of wall latency ranged over 0.74-1.31
of the run's median and those of scaled latency over 0.93-1.13.  The
kernel is benchmark code, so a change to the program moves scaled and wall
latency alike.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's wall time that scaled figures refer to: its time on the
# baseline machine at the faster of its levels, so scaled figures read as
# the milliseconds an op takes there on a quiet host.
REFERENCE_S = 1.5e-3


class Kernel:
    """The calibration kernel: fixed inputs, timed on demand."""

    def __init__(self):
        rng = np.random.default_rng(1991)
        self._a = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self._b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._h = (self._a[:64, :64] + self._a[:64, :64].conj().T) / 2
        self.seconds()

    def seconds(self) -> float:
        start = time.perf_counter()
        x = self._b
        for _ in range(100):
            x = self._b @ x
            x = x / np.abs(x).max()
            float(x.trace().real)
        self._a @ self._a
        np.linalg.eigvalsh(self._h)
        return time.perf_counter() - start


def scale(wall: list[float], kernel: list[float]) -> list[float]:
    """Wall times at reference speed.  Op j ran between kernel timings j and
    j+1; it is scaled by the median of timings j-1 to j+2, which damps the
    kernel's own jitter and still follows the host's changes of level."""
    return [d * REFERENCE_S / statistics.median(kernel[max(j - 1, 0):j + 3])
            for j, d in enumerate(wall)]
