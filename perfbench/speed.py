"""Machine-speed reference for the timed runs.

On a shared machine the same code can run up to twice as slowly for minutes
at a time, because other tenants load the host.  Process CPU time slows just
as much, so it does not help.  The benchmark therefore runs a fixed reference
kernel between operations.  The kernel does the same kinds of work as the
workloads: small FFTs, numpy calls on small arrays, interpreter arithmetic,
and float formatting and parsing.  It uses no frogkit code, so no change to
the library can move it.

Each operation's time is scaled by REF_NOMINAL_S over the median reference
time around that operation.  The result reads as the time on a machine where
the kernel takes REF_NOMINAL_S.  On a 2-core x86-64 machine under changing
outside load, this cut the spread between 30-second runs from 10-20% to
3-6%.  The info line keeps the raw times.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_NOMINAL_S = 0.004  # about the kernel's median time on that machine
REF_EVERY_S = 0.25  # sample the kernel at most this often between operations
REF_WINDOW_S = 1.0  # samples this close to an operation describe its speed

_A = np.random.default_rng(0).standard_normal((24, 24)) + 0j


def reference_kernel() -> float:
    """Run the fixed reference work once; returns its duration in seconds."""
    t = perf_counter()
    acc = 0.0
    for _ in range(200):
        acc += float(np.abs(np.fft.fft(_A, axis=0)).sum())
    text = ",".join("%.17g" % v for v in _A.real.ravel())
    acc += sum(float(tok) for tok in text.split(","))
    for i in range(16000):
        acc += i * 0.5
    return perf_counter() - t


class SpeedLog:
    """Reference-kernel samples taken between operations."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time taken, duration)
        self._last: float | None = None

    def sample(self, force: bool = False):
        """Run the kernel if REF_EVERY_S has passed since the last sample:
        once for every REF_EVERY_S that passed, up to four times."""
        if self._last is None:
            due = 1
        else:
            due = max(int(force), min(4, int((perf_counter() - self._last) / REF_EVERY_S)))
        for _ in range(due):
            self.samples.append((perf_counter(), reference_kernel()))
        if due:
            self._last = perf_counter()

    def scale(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the median reference time near [start, end]."""
        near = [d for t, d in self.samples if start - REF_WINDOW_S <= t <= end + REF_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return REF_NOMINAL_S / statistics.median(near)


def warm_up():
    for _ in range(3):
        reference_kernel()


def median_scale(samples: int = 5) -> float:
    """REF_NOMINAL_S over the median of a few kernel runs made now."""
    return REF_NOMINAL_S / statistics.median(reference_kernel() for _ in range(samples))
