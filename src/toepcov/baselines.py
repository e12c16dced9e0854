"""Baseline covariance estimators: SCM, diagonal averaging, banding and
tapering with cross-validated bandwidth, circulant maximum likelihood, EM
over a circulant embedding, and shrinkage toward structured targets.

Banded and tapered estimates expose a covariance-only surface; none of the
estimators here guarantees an invertible result except where noted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .toeplitz import HermitianToeplitz

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
    ``max_lag`` limits the averaged lags (the rest are zero), which keeps
    banded estimates at O(P * max_lag) cost.
    """
    scm = np.asarray(scm)
    p = scm.shape[0]
    last = p - 1 if max_lag is None else min(max_lag, p - 1)
    c = np.zeros(p, dtype=scm.dtype)
    for q in range(last + 1):
        c[q] = np.mean(np.diagonal(scm, offset=-q))
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
        q = np.arange(p, dtype=float)
        if self.kind == "banding":
            return (q <= self.k).astype(float)
        if self.k == 0:
            return (q == 0).astype(float)
        # flat up to k/2, then linear decay hitting zero at lag k
        return np.clip(2.0 - 2.0 * q / self.k, 0.0, 1.0)


def mask_apply(t: HermitianToeplitz, spec: MaskSpec) -> HermitianToeplitz:
    """Down-weight lags of a Toeplitz estimate according to the mask."""
    w = spec.weights(t.dim)
    return HermitianToeplitz(t.first_col * w)


def band_estimate(scm, spec: MaskSpec) -> HermitianToeplitz:
    """Masked diagonal-average estimate computed only on the needed lags."""
    return mask_apply(toeplitz_avg(scm, max_lag=spec.k), spec)


_CV_FOLDS = 4


def cv_tune_mask(samples, kind: str = "banding") -> MaskSpec:
    """Pick the mask bandwidth by four-fold cross validation.

    Risk of a candidate is the Frobenius distance between the masked
    diagonal-average estimate of the training folds and the raw sample
    covariance of the held-out fold, averaged over folds.
    """
    x = np.atleast_2d(np.asarray(samples))
    n, p = x.shape
    if n < _CV_FOLDS:
        raise ValueError(f"cross validation needs at least {_CV_FOLDS} samples, got {n}")
    fold_idx = np.array_split(np.arange(n), _CV_FOLDS)
    risks = np.zeros(p)
    for val in fold_idx:
        train = np.setdiff1d(np.arange(n), val)
        s_train = sample_cov(x[train])
        s_val = sample_cov(x[val])
        avg = toeplitz_avg(s_train)
        for k in range(p):
            masked = mask_apply(avg, MaskSpec(kind, k)).dense()
            risks[k] += np.linalg.norm(masked - s_val) ** 2
    return MaskSpec(kind, int(np.argmin(risks)))


def _unitary_dft(g: int) -> np.ndarray:
    return np.fft.fft(np.eye(g), norm="ortho")


def circulant_mle(scm) -> np.ndarray:
    """Closed-form Gaussian MLE over circulant covariance matrices.

    Conjugates the sample covariance into the Fourier basis, keeps the
    (nonnegative) diagonal, and maps back; exact on circulant input.
    """
    scm = np.asarray(scm)
    p = scm.shape[0]
    f = _unitary_dft(p)
    d = np.real(np.einsum("ij,jk,ik->i", f, scm, np.conj(f)))
    d = np.maximum(d, 0.0)
    est = f.conj().T @ (d[:, None] * f)
    return est.real if not np.iscomplexobj(scm) else est


def _em_iterates(scm, g: int, max_iter: int, tol: float, ridge: float):
    """Yield (spectrum, covariance-block) per EM iteration."""
    scm = np.asarray(scm)
    p = scm.shape[0]
    f = _unitary_dft(g)
    ft = f[:, :p]
    scale = float(np.real(np.trace(scm))) / p
    s_emb = np.zeros((g, g), dtype=complex)
    s_emb[:p, :p] = scm
    idx = np.arange(p, g)
    s_emb[idx, idx] = scale
    spec = np.maximum(np.real(np.einsum("ij,jk,ik->i", f, s_emb, np.conj(f))), 0.0)
    for _ in range(max_iter):
        cp = ft.conj().T @ (spec[:, None] * ft)
        cp = 0.5 * (cp + cp.conj().T)
        try:
            cp_inv = np.linalg.inv(cp)
        except np.linalg.LinAlgError:
            cp = cp + ridge * scale * np.eye(p)
            cp_inv = np.linalg.inv(cp)
        yield spec, cp
        x = ft @ cp_inv  # (G, P)
        t_data = np.real(np.einsum("ij,ij->i", x @ scm, np.conj(x)))
        t_model = np.real(np.einsum("ij,ij->i", x, np.conj(ft)))
        new_spec = spec**2 * t_data + spec - spec**2 * t_model
        new_spec = np.maximum(new_spec, 0.0)
        change = np.linalg.norm(new_spec - spec) / max(np.linalg.norm(spec), 1e-300)
        spec = new_spec
        if change < tol:
            break
    cp = ft.conj().T @ (spec[:, None] * ft)
    yield spec, 0.5 * (cp + cp.conj().T)


def em_toeplitz(scm, g: int | None = None, max_iter: int = 200, tol: float = 1e-7) -> np.ndarray:
    """EM estimate of a Toeplitz covariance via a larger circulant model.

    The observed window is treated as a partial view of a ``g``-periodic
    process; the circulant spectrum is re-estimated until its relative
    change drops below ``tol``.  Returns the upper-left P x P covariance
    block.
    """
    scm = np.asarray(scm)
    p = scm.shape[0]
    if g is None:
        g = 2 * p
    if g < p:
        raise ValueError("embedding size must be at least the sample dimension")
    last = None
    for _, cp in _em_iterates(scm, g, max_iter, tol, ridge=1e-10):
        last = cp
    return last.real if not np.iscomplexobj(scm) else last


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
    num = 0.0
    for row in x:
        w = np.outer(row, np.conj(row))
        num += np.linalg.norm(w - scm) ** 2
    num /= n * (n - 1)
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
