"""Baseline covariance estimators: SCM, diagonal averaging, banding and
tapering with cross-validated bandwidth, circulant maximum likelihood, EM
over a circulant embedding, and shrinkage toward structured targets.

Everything Toeplitz or circulant here reads a matrix through its diagonal
(lag) sums, one O(P^2) pass, and moves between lags and spectra with FFTs;
only EM is cubic in P: per iteration one LU solve, a Gohberg-Semencul
pair and two products, each product on half the rows, because the model
block's persymmetry mirrors the other half, and the pair on the nonzero
H x H corner of its lower triangular factors.  Banded and tapered
estimates expose a covariance-only surface; none of the estimators here
guarantees an invertible result except where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


def _pow2_above(value) -> float:
    """The power of two above ``|value|`` (one for zero): dividing by it is exact."""
    return math.ldexp(1.0, math.frexp(float(value))[1])


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
    sums of each fold, in O(P^2) per fold, at unit scale, where no risk
    overflows or underflows: that scales them all by one power of two.
    """
    x = np.asarray(samples)
    return MaskSpec(kind, int(np.argmin(_cv_risks(x / _pow2_above(np.abs(x).max(initial=0.0)), kind))))


def _circular_spectrum(rows, g: int) -> np.ndarray:
    """Diagonal of ``F E q E^T F^H`` for the unitary G-point DFT ``F``, with
    ``E`` placing the P x P matrix ``q`` in the top-left corner: the DFT of
    the lag sums folded modulo G, over G.  ``rows`` is ``q``, or its top
    rows where the caller accounts for the others; entry ``[i, j]`` adds to
    slot ``(i - j) mod G``, all in one ``bincount``."""
    slots = _circular_slots(*rows.shape, g)
    folded = np.bincount(slots, rows.real.ravel(), g)
    if np.iscomplexobj(rows):
        folded = folded + 1j * np.bincount(slots, rows.imag.ravel(), g)
    return np.fft.fft(folded).real / g


@lru_cache(maxsize=8)
def _circular_slots(h: int, p: int, g: int) -> np.ndarray:
    """Slot ``(i - j) mod G`` of each entry ``[i, j]`` of the top ``h`` rows
    of a P x P matrix, row-major."""
    i = np.arange(p)
    slots = ((i[:h, None] - i) % g).ravel()
    slots.flags.writeable = False
    return slots


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
    """Yield (spectrum, covariance-block) per EM iteration.

    Each iteration does its dense work on the top ``H = ceil(P/2)`` rows.
    The model block ``cp`` is Hermitian Toeplitz, so it and its inverse are
    persymmetric: ``J conj(cp^-1) J = cp^-1`` with ``J`` the exchange matrix.
    A circular spectrum is the real part of a DFT of lag sums, which does
    not change under ``M -> J conj(M) J``; so the E-step may read the data
    through ``sbar = (S + J conj(S) J) / 2``, and then its matrix
    ``M = cp^-1 (sbar - cp) cp^-1`` is persymmetric too.  Its rows below
    ``H`` mirror those above, so the spectrum of ``M`` is twice that of its
    top rows, the middle row of odd P weighted by one half (exactly).

    The products take ``P^3 / 2`` multiply-adds for the Gohberg-Semencul
    pair, which reads only the first ``H`` columns of its lower triangular
    factors, and ``P^3`` for the two E-step products: ``3 P^3`` flops per
    iteration.  They go into arrays allocated once per fit; every yielded
    spectrum and block is a new array.
    """
    scm = np.asarray(scm)
    p = scm.shape[0]
    h = (p + 1) // 2
    real = not np.iscomplexobj(scm)
    scale = float(np.real(np.trace(scm))) / p
    e0 = np.eye(p, 1).ravel()
    # cp^-1 by Gohberg-Semencul from its first column x: (L(x) L(x)^H -
    # L(y) L(y)^H) / x_0 with y = (0, conj x_{P-1}, ..., conj x_1), the
    # factors of gs_factor_b and gs_factor_z.  Both are strided views on one
    # buffer [0 (P-1), x, 0 (P)]: `lower` reads it forward from x_0, `mirror`
    # backward from past x_{P-1}, which is conj(L(y)).  Building them with
    # LowerTriToeplitz(...).dense() instead cost 10 us per iteration at
    # P = 16, a fifth of an `em` fit there.  gs_assemble is not used: at
    # full order it loops over the P diagonals in Python, which took 1.4 ms
    # against 0.2 ms for the two products at P = 128 on one BLAS thread; it
    # stays the banded route for low-order GS estimates.  Only the top H
    # rows of the pair are formed, each factor's H x H corner times its
    # first H columns, since the factors are zero above the diagonal; the
    # rest of `cp_inv` is their flipped conjugate.
    gs = np.zeros(3 * p - 1, np.result_type(scm.dtype, np.float64))
    step = gs.itemsize
    lower = np.ndarray((p, p), gs.dtype, gs, (p - 1) * step, (step, -step))
    mirror = np.ndarray((p, p), gs.dtype, gs, (2 * p - 1) * step, (-step, step))
    cp_inv = np.empty((p, p), gs.dtype)
    top_inv, bottom_inv, flipped = cp_inv[:h], cp_inv[h:], cp_inv[: p - h][::-1, ::-1]
    lower_corner, lower_cols = lower[:h, :h], lower[:, :h]
    mirror_corner, mirror_cols = mirror[:h, :h], mirror[:, :h]
    pair, diff, half, top = (np.empty(shape, gs.dtype) for shape in ((h, p), (p, p), (h, p), (h, p)))
    sbar = (scm + scm[::-1, ::-1].conj()) / 2
    # the embedded SCM pads the unobserved diagonal with the mean variance
    spec = np.maximum(_circular_spectrum(scm, g) + (g - p) * scale / g, 0.0)
    for _ in range(max_iter):
        cp = _circulant_block(spec, p, real)
        try:
            x = np.linalg.solve(cp, e0)
        except np.linalg.LinAlgError:
            cp = cp + ridge * scale * np.eye(p)
            x = np.linalg.solve(cp, e0)
        yield spec, cp
        gs[p - 1 : 2 * p - 1] = x
        np.matmul(lower_corner, lower_cols.conj().T, out=top_inv)
        np.matmul(mirror_corner, mirror_cols.conj().T, out=pair)
        np.subtract(top_inv, pair.conj(), out=top_inv)
        np.divide(top_inv, x[0].real, out=top_inv)
        np.conjugate(flipped, out=bottom_inv)
        # E-step moments t_data - t_model, with t_data from cp^-1 S cp^-1 and
        # t_model from cp^-1 = cp^-1 cp cp^-1: one spectrum of their
        # difference, twice that of the top rows of M
        np.subtract(sbar, cp, out=diff)
        np.matmul(top_inv, diff, out=half)
        np.matmul(half, cp_inv, out=top)
        if p % 2:
            top[-1] *= 0.5
        new_spec = spec + spec**2 * (2 * _circular_spectrum(top, g))
        new_spec = np.maximum(new_spec, 0.0)
        change = _relative_change(new_spec, spec)
        spec = new_spec
        if change < tol:
            break
    yield spec, _circulant_block(spec, p, real)


# em's definition, with G = 2P: the iteration cap and the relative spectrum change that stops it early
_EM_MAX_ITER = 200
_EM_TOL = 1e-7


def em_toeplitz(scm, *, work: dict | None = None) -> np.ndarray:
    """EM estimate of a Toeplitz covariance via a larger circulant model.

    The observed window is treated as a partial view of a ``2P``-periodic
    process, whose circulant spectrum is re-estimated at most 200 times,
    stopping early below a relative change of 1e-7.  That almost never
    happens (all 200 fits of the criterion-10 benchmark ran the full 200
    iterations), so the cap, not convergence, sets the estimate: the
    upper-left P x P covariance block.  An iteration costs one LU solve for
    the first column of the model block's inverse, a Gohberg-Semencul
    product that assembles the inverse from it, two products for the E-step
    and FFTs of lag sums; the solve and the products are cubic in P.  The
    block is persymmetric, and so are its inverse and the E-step matrix once
    the data is averaged with its flipped conjugate, so every product forms
    only the top half of its rows, and the Gohberg-Semencul pair, whose
    factors are lower triangular, only the nonzero ``H x H`` corner of those
    rows, with ``H = ceil(P/2)`` (``3 P^3`` flops of matrix products per
    iteration, not ``8 P^3``).  A ``work`` dict receives ``iterations``
    (spectrum updates made) and ``converged`` (whether the last one met the
    tolerance).  It iterates at unit mean variance, where no square or
    inverse overflows.
    """
    scm = np.asarray(scm)
    p = scm.shape[0]
    unit = _pow2_above(np.real(np.trace(scm)) / p)
    iterations, prev, spec = -1, None, None
    for new_spec, last in _em_iterates(scm / unit, 2 * p, _EM_MAX_ITER, _EM_TOL, ridge=1e-10):
        iterations, prev, spec = iterations + 1, spec, new_spec
    if work is not None:
        converged = prev is not None and _relative_change(spec, prev) < _EM_TOL
        work.update(iterations=iterations, converged=bool(converged))
    return last * unit


def _const_offdiag_target(scm) -> np.ndarray:
    p = scm.shape[0]
    mu = np.real(np.trace(scm)) / p
    off_diag = np.array(scm)
    np.fill_diagonal(off_diag, 0.0)
    off = np.real(np.sum(off_diag)) / (p * (p - 1)) if p > 1 else 0.0
    target = np.full((p, p), off)
    np.fill_diagonal(target, mu)
    return target


def _shrink_target(scm, target: str) -> np.ndarray:
    if target == "avg":
        return toeplitz_avg(scm).dense()
    if target == "const":
        return _const_offdiag_target(scm)
    raise ValueError(f"unknown shrinkage target {target!r}; known: avg, const")


def shrink_coefficient(scm, target: str, samples) -> float:
    """Plug-in convex weight: estimated SCM variance over squared bias.

    Uses the unbiased per-entry sampling variance of the SCM; with a single
    sample the variance is not estimable and the weight defaults to one.
    The weight is scale-free, so it is computed at unit scale, where no
    fourth power overflows or underflows.
    """
    x = np.atleast_2d(np.asarray(samples))
    n = x.shape[0]
    if n < 2:
        return 1.0
    unit = _pow2_above(np.abs(x).max())
    x, scm = x / unit, np.asarray(scm) / unit / unit  # unit**2 may underflow
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


def shrink(scm, target: str, rho: float) -> np.ndarray:
    """Convex combination ``(1 - rho) S + rho T`` of the sample covariance
    ``S`` with a structured target ``T``.

    ``target`` is ``"avg"`` (diagonal-averaged Toeplitz) or ``"const"``
    (scaled identity plus constant off-diagonal); the registry's weight is
    :func:`shrink_coefficient`'s plug-in estimate.
    """
    scm = np.asarray(scm)
    t = _shrink_target(scm, target)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"shrinkage weight must lie in [0, 1], got {rho}")
    return (1.0 - rho) * scm + rho * t
