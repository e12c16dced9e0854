"""Baseline covariance estimators: SCM, diagonal averaging, banding and
tapering with cross-validated bandwidth, circulant maximum likelihood, EM
over a circulant embedding, and shrinkage toward structured targets.

Everything Toeplitz or circulant here reads a matrix through its diagonal
(lag) sums, one O(P^2) pass, and moves between lags and spectra with FFTs;
only EM's P x P inverse and products are cubic.  Banded and tapered
estimates expose a covariance-only surface; none of the estimators here
guarantees an invertible result except where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .toeplitz import HermitianToeplitz, lag_sums, toeplitz_from_lags

__all__ = [
    "MaskSpec",
    "sample_cov",
    "toeplitz_avg",
    "mask_apply",
    "band_estimate",
    "cv_tune_mask",
    "circulant_mle",
    "em_toeplitz",
    "shrink",
    "shrink_coefficient",
]


def sample_cov(samples) -> np.ndarray:
    """Sample covariance of mean-zero data, one sample per row."""
    x = np.atleast_2d(np.asarray(samples))
    if x.shape[0] < 1:
        raise ValueError("need at least one sample")
    return x.T @ np.conj(x) / x.shape[0]


def toeplitz_avg(scm, max_lag: int | None = None) -> HermitianToeplitz:
    """Toeplitzified covariance: each lag is the mean of its diagonal.

    Unbiased for Toeplitz truth but not necessarily positive semidefinite.
    ``max_lag`` limits the averaged lags (the rest are zero).
    """
    scm = np.asarray(scm)
    p = scm.shape[0]
    last = p - 1 if max_lag is None else min(max_lag, p - 1)
    c = np.zeros(p, dtype=np.result_type(scm.dtype, np.float64))
    c[: last + 1] = lag_sums(scm, last)[last:] / np.arange(p, p - last - 1, -1)
    return HermitianToeplitz(c)


@dataclass(frozen=True)
class MaskSpec:
    """Lag mask: hard banding cutoff or trapezoid taper."""

    kind: str
    k: int

    def __post_init__(self):
        if self.kind not in ("banding", "tapering"):
            raise ValueError(f"unknown mask kind {self.kind!r}")
        if self.k < 0:
            raise ValueError("mask bandwidth must be nonnegative")

    def weights(self, p: int) -> np.ndarray:
        return _lag_weights(self.kind, self.k, p)


def _lag_weights(kind: str, k, p: int) -> np.ndarray:
    """Mask weights of lags 0..P-1; an array of bandwidths ``k`` broadcasts."""
    q = np.arange(p, dtype=float)
    if kind == "banding":
        return (q <= k).astype(float)
    # flat up to k/2, then linear decay hitting zero at lag k; bandwidth zero
    # keeps lag 0 alone, as bandwidth one does
    return np.clip(2.0 - 2.0 * q / np.maximum(k, 1), 0.0, 1.0)


def mask_apply(t: HermitianToeplitz, spec: MaskSpec) -> HermitianToeplitz:
    """Down-weight lags of a Toeplitz estimate according to the mask."""
    w = spec.weights(t.dim)
    return HermitianToeplitz(t.first_col * w)


def band_estimate(scm, spec: MaskSpec) -> HermitianToeplitz:
    """Masked diagonal-average estimate computed only on the needed lags."""
    return mask_apply(toeplitz_avg(scm, max_lag=spec.k), spec)


_CV_FOLDS = 4


def _cv_risks(samples, kind: str) -> np.ndarray:
    """Summed held-out Frobenius risk of every bandwidth 0..P-1.

    Per fold, ``||M_k - S_val||^2`` of the masked Toeplitz average ``M_k``
    (lags ``w_k(l) c_l``) splits by lag into ``sum_l w_k(l)^2 mass_l -
    2 w_k(l) cross_l`` plus ``||S_val||^2``, with ``mass_l`` the squared
    mass of lag ``l`` in the unmasked average and ``cross_l`` its inner
    product with the lag-``l`` diagonals of ``S_val``.  All bandwidths then
    cost one O(P^2) product.
    """
    x = np.atleast_2d(np.asarray(samples))
    n, p = x.shape
    if n < _CV_FOLDS:
        raise ValueError(f"cross validation needs at least {_CV_FOLDS} samples, got {n}")
    weights = _lag_weights(kind, np.arange(p)[:, None], p)  # row k: bandwidth k
    count = p - np.arange(p)  # entries on diagonal l, and on diagonal -l
    risks = np.zeros(p)
    for val in np.array_split(np.arange(n), _CV_FOLDS):
        train = np.setdiff1d(np.arange(n), val)
        c = toeplitz_avg(sample_cov(x[train])).first_col
        s_val = sample_cov(x[val])
        sums = lag_sums(s_val)
        mass = 2.0 * count * np.abs(c) ** 2
        cross = np.real(np.conj(c) * sums[p - 1 :] + c * sums[p - 1 :: -1])
        mass[0] /= 2.0  # lag 0 is one diagonal, every other lag two
        cross[0] /= 2.0
        risks += weights**2 @ mass - 2.0 * (weights @ cross) + np.linalg.norm(s_val) ** 2
    return risks


def cv_tune_mask(samples, kind: str = "banding") -> MaskSpec:
    """Pick the mask bandwidth by four-fold cross validation.

    Risk of a candidate is the Frobenius distance between the masked
    diagonal-average estimate of the training folds and the raw sample
    covariance of the held-out fold, summed over folds; the smallest
    bandwidth of least risk wins.  Every bandwidth is scored from the lag
    sums of each fold, in O(P^2) per fold.
    """
    return MaskSpec(kind, int(np.argmin(_cv_risks(samples, kind))))


def _circular_spectrum(q, g: int) -> np.ndarray:
    """Diagonal of ``F E q E^T F^H`` for the unitary G-point DFT ``F``, with
    ``E`` placing the P x P matrix ``q`` in the top-left corner: the DFT of
    the lag sums folded modulo G, over G."""
    p = q.shape[0]
    sums = lag_sums(q)
    folded = np.zeros(g, dtype=sums.dtype)
    folded[:p] = sums[p - 1 :]
    folded[g - p + 1 :] += sums[: p - 1]  # lags -(P-1) .. -1
    return np.fft.fft(folded).real / g


def _circulant_block(spec, p: int, real: bool) -> np.ndarray:
    """Top-left P x P block of the circulant with eigenvalues ``spec``."""
    col = np.fft.ifft(spec)[:p]
    col = col.real if real else col
    return toeplitz_from_lags(np.concatenate((np.conj(col[:0:-1]), col)))


def circulant_mle(scm) -> np.ndarray:
    """Closed-form Gaussian MLE over circulant covariance matrices.

    The spectrum is the DFT of the circular lag sums of the sample
    covariance, clipped at zero; one inverse FFT gives the circulant.
    Exact on circulant input; O(P^2).
    """
    scm = np.asarray(scm)
    p = scm.shape[0]
    spec = np.maximum(_circular_spectrum(scm, p), 0.0)
    return _circulant_block(spec, p, not np.iscomplexobj(scm))


def _relative_change(new, old) -> float:
    step = new - old
    return math.sqrt(step @ step) / max(math.sqrt(old @ old), 1e-300)


def _em_iterates(scm, g: int, max_iter: int, tol: float, ridge: float):
    """Yield (spectrum, covariance-block) per EM iteration."""
    scm = np.asarray(scm)
    p = scm.shape[0]
    real = not np.iscomplexobj(scm)
    scale = float(np.real(np.trace(scm))) / p
    # the embedded SCM pads the unobserved diagonal with the mean variance
    spec = np.maximum(_circular_spectrum(scm, g) + (g - p) * scale / g, 0.0)
    for _ in range(max_iter):
        cp = _circulant_block(spec, p, real)
        try:
            cp_inv = np.linalg.inv(cp)
        except np.linalg.LinAlgError:
            cp = cp + ridge * scale * np.eye(p)
            cp_inv = np.linalg.inv(cp)
        yield spec, cp
        # E-step moments t_data - t_model, with t_data from cp^-1 S cp^-1 and
        # t_model from cp^-1 = cp^-1 cp cp^-1: one spectrum of their difference
        new_spec = spec + spec**2 * _circular_spectrum(cp_inv @ (scm - cp) @ cp_inv, g)
        new_spec = np.maximum(new_spec, 0.0)
        change = _relative_change(new_spec, spec)
        spec = new_spec
        if change < tol:
            break
    yield spec, _circulant_block(spec, p, real)


def em_toeplitz(scm, g: int | None = None, max_iter: int = 200, tol: float = 1e-7,
                *, work: dict | None = None) -> np.ndarray:
    """EM estimate of a Toeplitz covariance via a larger circulant model.

    The observed window is treated as a partial view of a ``g``-periodic
    process; the circulant spectrum is re-estimated until its relative
    change drops below ``tol``.  Returns the upper-left P x P covariance
    block.  An iteration costs one P x P inverse, two P x P products and
    FFTs of lag sums.  A ``work`` dict receives ``iterations`` (spectrum
    updates made) and ``converged`` (whether the last one met ``tol``).
    """
    scm = np.asarray(scm)
    p = scm.shape[0]
    if g is None:
        g = 2 * p
    if g < p:
        raise ValueError("embedding size must be at least the sample dimension")
    iterations, prev, spec = -1, None, None
    for new_spec, last in _em_iterates(scm, g, max_iter, tol, ridge=1e-10):
        iterations, prev, spec = iterations + 1, spec, new_spec
    if work is not None:
        converged = prev is not None and _relative_change(spec, prev) < tol
        work.update(iterations=iterations, converged=bool(converged))
    return last


def _const_offdiag_target(scm) -> np.ndarray:
    p = scm.shape[0]
    h = np.ones((p, p)) - np.eye(p)
    mu = np.real(np.trace(scm)) / p
    off = np.real(np.sum(scm * h.T)) / (p * (p - 1)) if p > 1 else 0.0
    return mu * np.eye(p) + off * h


def _shrink_target(scm, target) -> np.ndarray:
    if isinstance(target, str):
        if target == "avg":
            return toeplitz_avg(scm).dense()
        if target == "const":
            return _const_offdiag_target(scm)
        if target == "identity":
            return np.real(np.trace(scm)) / scm.shape[0] * np.eye(scm.shape[0])
        raise ValueError(f"unknown shrinkage target {target!r}")
    return np.asarray(target)


def shrink_coefficient(scm, target, samples) -> float:
    """Plug-in convex weight: estimated SCM variance over squared bias.

    Uses the unbiased per-entry sampling variance of the SCM; with a single
    sample the variance is not estimable and the weight defaults to one.
    """
    x = np.atleast_2d(np.asarray(samples))
    n = x.shape[0]
    if n < 2:
        return 1.0
    scm = np.asarray(scm)
    t = _shrink_target(scm, target)
    # sum over samples of ||x x^H - S||_F^2, expanded so that no P x P outer
    # product is formed: ||x||^4 - 2 Re x^H S x + ||S||_F^2
    sq = np.sum(np.abs(x) ** 2, axis=1)
    quad = np.sum((np.conj(x) @ scm) * x, axis=1).real
    num = (np.sum(sq**2) - 2.0 * np.sum(quad) + n * np.linalg.norm(scm) ** 2) / (n * (n - 1))
    den = np.linalg.norm(scm - t) ** 2
    if den <= 0:
        return 1.0
    return float(np.clip(num / den, 0.0, 1.0))


def shrink(scm, target="const", rho: float | None = None, samples=None) -> np.ndarray:
    """Convex combination of the sample covariance with a structured target.

    ``target`` is one of ``"avg"`` (diagonal-averaged Toeplitz), ``"const"``
    (scaled identity plus constant off-diagonal), ``"identity"``, or an
    explicit matrix.  Without ``rho`` the plug-in coefficient is estimated
    from ``samples``.
    """
    scm = np.asarray(scm)
    t = _shrink_target(scm, target)
    if rho is None:
        if samples is None:
            raise ValueError("either rho or samples must be provided")
        rho = shrink_coefficient(scm, target, samples)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"shrinkage weight must lie in [0, 1], got {rho}")
    return (1.0 - rho) * scm + rho * t
