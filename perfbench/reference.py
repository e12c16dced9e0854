"""Machine-speed reference for the end-to-end times.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, so two runs of the same code can read far
apart.  A fixed reference kernel that uses no toepcov code is timed every
``interval_s`` seconds between operations; its median over the run, against
the kernel's nominal time, is the run's speed index, and every end-to-end
time is reported divided by it: the time the run would have taken at the
nominal speed.  The raw times and the index are kept in the result file.

The kernel has four parts, for the kinds of work the workloads do:
interpreted Python, dense BLAS/LAPACK at P = 128 on one thread, whole-array
numpy arithmetic on a 128 x 128 array, and many numpy calls on vectors of
length 128.  No one part follows the host's drift in every kind of work, so
the index is the geometric mean of the four parts' slowdowns.  Timing the
same operations over and over for six minutes, the 40 s medians of a Monte
Carlo cell, a ``frob`` fit and an ``em`` fit drifted with log standard
deviations of 0.12, 0.13 and 0.10; divided by this index, 0.05, 0.08 and
0.04.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Nominal time of each part of the kernel (s): the medians measured on a
#: 2-vCPU Intel Xeon guest with numpy on OpenBLAS pinned to one thread.
NOMINAL_S = {"python": 0.0075, "blas": 0.006, "array": 0.003, "vector": 0.0055}

_RNG = np.random.default_rng(20231124)
_A = _RNG.standard_normal((128, 128))
_SPD = _A @ _A.T + 128.0 * np.eye(128)
_V = _RNG.standard_normal(128)


def _python():
    acc = 0.0
    for i in range(60000):
        acc += (i * 0.5) % 7.0
    return acc


def _blas():
    s = 0.0
    for _ in range(12):
        s += float(np.linalg.cholesky(_SPD)[-1, -1])
        s += float(np.linalg.solve(_SPD, _A[:, 0])[0])
        s += float((_A @ _A)[0, 0])
    return s


def _array():
    s = 0.0
    for _ in range(30):
        c = np.cumsum(_A, axis=0)
        d = _A * c + 0.5
        s += float(np.sum(d * d))
    return s


def _vector():
    x = _V.copy()
    s = 0.0
    for _ in range(600):
        y = np.convolve(x, x[:7], mode="same")
        x = 0.5 * x + 0.01 * y[::-1]
        s += float(x @ y)
    return s


PARTS = {"python": _python, "blas": _blas, "array": _array, "vector": _vector}


class SpeedProbe:
    """Times the reference kernel at most every ``interval_s`` seconds."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.samples = {name: [] for name in PARTS}
        self._last = -math.inf

    def sample(self) -> None:
        for name, part in PARTS.items():
            start = time.perf_counter()
            part()
            self.samples[name].append(time.perf_counter() - start)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.interval_s:
            self.sample()

    def medians(self) -> dict:
        return {name: statistics.median(times) for name, times in self.samples.items()}

    def index(self) -> float:
        """Geometric mean over the parts of median time / nominal time;
        above 1 when the machine ran slower than nominal."""
        medians = self.medians()
        return math.exp(statistics.fmean(math.log(medians[n] / NOMINAL_S[n]) for n in PARTS))
