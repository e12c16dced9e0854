"""Ground-truth stationary processes for benchmarking: AR, MA, ARMA(1,1),
and fractional Brownian motion increments.

Sampling is exact (covariance coloring of white noise), so there is no
burn-in transient; every draw is deterministic in the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .likelihood import SampleSet
from .toeplitz import HermitianToeplitz, NotPositiveDefiniteError, ar_to_autocov

__all__ = ["ProcessSpec", "true_cm", "coloring", "sample", "nmse"]

_KINDS = ("ar", "ma", "arma", "fbm")


@dataclass(frozen=True)
class ProcessSpec:
    """One stationary process pinned down by kind, parameters, and window size."""

    kind: str
    p: int
    a: tuple = ()
    b: tuple = ()
    sigma2: float = 1.0
    h: float = 0.5

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown process kind {self.kind!r}")
        if self.p < 1:
            raise ValueError("dimension must be positive")
        object.__setattr__(self, "a", tuple(float(x) for x in np.atleast_1d(self.a)) if np.size(self.a) else ())
        object.__setattr__(self, "b", tuple(float(x) for x in np.atleast_1d(self.b)) if np.size(self.b) else ())
        if self.kind in ("ar", "ma", "arma") and self.sigma2 <= 0:
            raise ValueError("innovation variance must be positive")
        if self.kind == "arma" and (len(self.a) != 1 or len(self.b) != 1):
            raise ValueError("arma supports exactly one AR and one MA coefficient")
        if self.kind == "fbm" and not 0.5 <= self.h <= 1.0:
            raise ValueError("Hurst parameter must lie in [0.5, 1]")


def _ma_autocov(b, sigma2, p):
    taps = np.concatenate(([1.0], np.asarray(b, dtype=float)))
    c = np.zeros(p)
    for k in range(min(p, taps.size)):
        c[k] = sigma2 * np.dot(taps[: taps.size - k], taps[k:])
    return c


def _arma11_autocov(a, b, sigma2, p):
    # closed-form lag-0/1, geometric continuation with ratio a
    denom = 1.0 - a * a
    if denom <= 0:
        raise ValueError(f"AR coefficient {a} is not stable")
    c = np.zeros(p)
    c[0] = sigma2 * (1.0 + 2.0 * a * b + b * b) / denom
    if p > 1:
        c[1] = sigma2 * (1.0 + a * b) * (a + b) / denom
        for k in range(2, p):
            c[k] = a * c[k - 1]
    return c


def _fbm_autocov(h, p):
    d = np.arange(p, dtype=float)
    return 0.5 * ((d + 1.0) ** (2 * h) - 2.0 * d ** (2 * h) + np.abs(d - 1.0) ** (2 * h))


def true_cm(spec: ProcessSpec) -> HermitianToeplitz:
    """Exact covariance of one P-window of the process."""
    if spec.kind == "ar":
        return ar_to_autocov(np.asarray(spec.a), spec.sigma2, spec.p)
    if spec.kind == "ma":
        return HermitianToeplitz(_ma_autocov(spec.b, spec.sigma2, spec.p))
    if spec.kind == "arma":
        return HermitianToeplitz(_arma11_autocov(spec.a[0], spec.b[0], spec.sigma2, spec.p))
    return HermitianToeplitz(_fbm_autocov(spec.h, spec.p))


def coloring(spec: ProcessSpec) -> np.ndarray:
    """Cholesky factor of the process covariance, which colors white noise;
    raises :class:`NotPositiveDefiniteError` where that is singular."""
    try:
        return np.linalg.cholesky(true_cm(spec).dense())
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"process covariance is not positive definite: {exc}")


def sample(spec: ProcessSpec, n: int, seed: int) -> SampleSet:
    """Draw ``n`` exact stationary samples, deterministic in the seed."""
    if n < 1:
        raise ValueError("need at least one sample")
    chol = coloring(spec)
    rng = np.random.default_rng(seed)
    white = rng.standard_normal((n, spec.p))
    return SampleSet(white @ chol.T)


def nmse(estimate, truth) -> float:
    """Squared-Frobenius error of the estimate normalized by the truth."""
    estimate = np.asarray(estimate)
    truth = np.asarray(truth)
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth must have the same shape")
    denom = np.linalg.norm(truth) ** 2
    if denom == 0:
        raise ValueError("truth has zero norm")
    return float(np.linalg.norm(estimate - truth) ** 2 / denom)
