"""A gauge of the machine's speed, read next to every timed operation.

The virtual machines the benchmark runs on change speed by up to ~1.5x
for seconds to tens of seconds at a time, CPU time included. A fixed
kernel slows by about as much as the library does (its memory-bound
parts somewhat less), so the
benchmark reads :class:`Gauge` before and after every timed operation,
and every few dozen queries, and reports each time scaled to the speed at
which the kernel takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / (median reading within WINDOW_S of it)

A scaled time is in seconds of a machine running at the reference speed.
The kernel is fixed here and calls no ``mapml`` code, so a change to the
library cannot move a reading. Raw times are kept in the run's JSON file.
"""

import time

import numpy as np

# A reading at the full speed of the 2-vCPU x86_64 virtual machine the
# bounds were set on (numpy 2.4, OpenBLAS, 1 thread): about the 5th
# percentile of its readings over a set of runs.
REFERENCE_S = 0.00205
REPS = 5  # kernel calls per reading; a reading is the fastest
# Readings taken this long before an operation starts or after it ends
# still count towards its scale.
WINDOW_S = 1.0


class Gauge:
    """Times a fixed kernel shaped like the library's work.

    The kernel mixes what dominates the workloads: a masked broadcast
    difference over a 100 x 900 block (the triplet scans), a product
    against a 1000 x 64 block (pairwise distances), a partial selection
    over 10k scores and over a sweep of a 10k x 64 block (kNN queries),
    and a short Python loop (per-call overhead).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal(100)
        self._b = rng.standard_normal(900)
        self._metric = rng.standard_normal((64, 64))
        self._block = rng.standard_normal((1_000, 64))
        self._refs = rng.standard_normal((10_000, 64))
        self._query = rng.standard_normal(64)
        self.times = []  # perf_counter midpoint of each reading
        self.readings = []
        self._kernel()  # fault in the kernel's pages before the first reading

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(4):
            mask = (self._b[None, :] - self._a[:, None]) < 0.5
            total += float(mask.sum())
        total += float((self._block @ self._metric).sum())
        scores = self._refs @ self._query
        total += float(scores[np.argpartition(scores, 3)[:3]].sum())
        total += float(np.einsum("ij,ij->i", self._refs - self._query, self._refs).sum())
        for i in range(500):
            total += i * 0.5
        return total

    def read(self) -> float:
        """Fastest of REPS kernel calls, in seconds; kept with its time."""
        start = time.perf_counter()
        reading = float("inf")
        for _ in range(REPS):
            t0 = time.perf_counter()
            self._kernel()
            reading = min(reading, time.perf_counter() - t0)
        self.times.append(0.5 * (start + time.perf_counter()))
        self.readings.append(reading)
        return reading

    def scaled(self, intervals) -> np.ndarray:
        """Lengths of ``(start, end)`` perf_counter intervals, scaled.

        Each is scaled by the median of the readings taken within WINDOW_S
        of it, or by the nearest reading if there is none.
        """
        times = np.asarray(self.times)
        readings = np.asarray(self.readings)
        iv = np.asarray(intervals, dtype=float).reshape(-1, 2)
        lo = np.searchsorted(times, iv[:, 0] - WINDOW_S)
        hi = np.searchsorted(times, iv[:, 1] + WINDOW_S)
        out = np.empty(iv.shape[0])
        for j, ((start, end), a, b) in enumerate(zip(iv, lo, hi)):
            if b > a:
                local = np.median(readings[a:b])
            else:
                local = readings[np.argmin(np.abs(times - 0.5 * (start + end)))]
            out[j] = (end - start) * REFERENCE_S / local
        return out
