"""Gaussian log-likelihood of GS-parameterized precision matrices.

At order w the data enter only through the (w+1)^2 + w^2 corner entries of
the sample covariance's partial diagonal sum table, the lagged-product
sufficient statistic of an exact AR(w) likelihood (Box, Jenkins & Reinsel,
Time Series Analysis).  The table is built once per context in O(P^2).
After that a value costs O(w^2) beyond O(P) bookkeeping: the
log-determinant comes from the step-down prediction errors, the trace term
from the two corners.  A gradient entry costs O(w) more: the same corners
of the implied covariance's table, built from its first max(support, w) + 1
lags.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .baselines import sample_cov
from .toeplitz import (
    GsParams,
    PartialDiagSums,
    _step_down,
    ar_to_autocov,
    gs_assemble,
    gs_factor_b,
    gs_factor_z,
    gs_to_ar,
    toeplitz_partial_sums,
)

__all__ = ["DegenerateDataError", "SampleSet", "LikelihoodContext", "loglik", "grad", "GsObjective"]


class DegenerateDataError(ValueError):
    """Data with zero power: no positive definite estimate exists."""


class SampleSet:
    """N samples of dimension P with cached derived statistics."""

    def __init__(self, samples):
        samples = np.atleast_2d(np.asarray(samples))
        if samples.ndim != 2:
            raise ValueError("samples must be a 2-d array (one sample per row)")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite (found NaN or infinity)")
        if not np.any(samples):
            raise DegenerateDataError("samples are all zero")
        self.samples = samples
        self.n, self.p = samples.shape

    @cached_property
    def scm(self) -> np.ndarray:
        return sample_cov(self.samples)

    def context(self) -> "LikelihoodContext":
        return LikelihoodContext(self.scm, self.n)


class LikelihoodContext:
    """Sample covariance plus its partial diagonal sum table ``scm_sums``,
    the statistic every likelihood value and gradient reads."""

    def __init__(self, scm, n: int):
        scm = np.asarray(scm)
        if scm.ndim != 2 or scm.shape[0] != scm.shape[1]:
            raise ValueError("sample covariance must be square")
        if n < 1:
            raise ValueError("sample count must be at least 1")
        trace = float(np.real(np.trace(scm)))
        if not np.isfinite(trace):
            raise ValueError("sample covariance trace is not finite")
        if trace <= 0:
            raise DegenerateDataError(f"sample covariance trace {trace:.6g} is not positive")
        self.scm = scm
        self.n = int(n)
        self.p = scm.shape[0]
        self.trace_scale = trace / self.p

    @cached_property
    def scm_sums(self) -> PartialDiagSums:
        return PartialDiagSums.from_matrix(self.scm)


def _evaluate(ctx: LikelihoodContext, alpha: GsParams) -> tuple:
    """``(log-likelihood, tr(Gamma S))`` at ``alpha``."""
    if alpha.dim != ctx.p:
        raise ValueError("parameter dimension does not match the context")
    a, sigma2 = gs_to_ar(alpha)
    # Stability of the implied AR model is exactly positive definiteness of
    # the assembled matrix; the step-down prediction errors then give the
    # log-determinant in closed form (errors are flat beyond the AR order).
    _, _, pe = _step_down(a, sigma2)
    w = a.size
    p = ctx.p
    logdet_cov = float(np.sum(np.log(pe[:w])) + (p - w) * np.log(sigma2))
    # alpha0 tr(Gamma S) = b^H T b - z^H T z over the two corners of the table
    # that the nonzero entries of the GS factors reach.
    b, z = _factor_heads(alpha, w)
    table = ctx.scm_sums.table
    quad = np.vdot(b, table[: w + 1, : w + 1] @ b) - np.vdot(z, table[p - w :, p - w :] @ z)
    trace_sg = float(np.real(quad)) / alpha.alpha0
    return -logdet_cov - trace_sg, trace_sg


def _factor_heads(alpha, w):
    """Nonzero parts of the GS factors' first columns at order ``w``:
    ``b = (alpha_0, ..., alpha_w)`` and ``z = conj(alpha_w, ..., alpha_1)``,
    entries P-w..P-1 of the first column of :func:`gs_factor_z`."""
    rest = alpha.alpha_rest[:w]
    return np.concatenate(([alpha.alpha0], rest)), np.conj(rest[::-1])


def loglik(ctx: LikelihoodContext, alpha: GsParams) -> float:
    """Exact Gaussian log-likelihood (up to constants) in GS coordinates.

    Raises when the assembled matrix is not positive definite; feasibility
    is the caller's business via the constraints module.
    """
    return _evaluate(ctx, alpha)[0]


def grad(ctx: LikelihoodContext, alpha: GsParams, support=None, dense: bool = False):
    """Analytic gradient of the log-likelihood over the given support.

    ``support`` is an iterable of coordinate indices (0 selects the scale
    parameter); defaults to all coordinates.  Real parameters get real
    partial derivatives; complex trailing parameters get the packed
    ``d/dRe + i d/dIm`` form.  ``dense=True`` switches to the O(P^3) dense
    cross-check path.
    """
    trace_sg = _evaluate(ctx, alpha)[1]
    if dense:
        return _grad_dense(ctx, alpha, _support_indices(ctx.p, support))
    return _grad(ctx, alpha, trace_sg, support)


def _support_indices(p, support):
    idx = np.arange(p) if support is None else np.array([int(i) for i in support], dtype=int)
    if np.any((idx < 0) | (idx >= p)):
        raise ValueError("support indices out of range")
    return idx


def _grad(ctx, alpha, trace_sg, support):
    """Gradient from the table corners of the data and of the model.

    Entry i is 2/alpha0 [(T_C - T)[i, :w+1] b - conj((T_C - T)[P-i, P-w:] z)],
    where T is the data's table and T_C that of the implied covariance C;
    entry 0 differentiates the scale instead.
    """
    p = ctx.p
    idx = _support_indices(p, support)
    a, sigma2 = gs_to_ar(alpha)
    w = a.size
    b, z = _factor_heads(alpha, w)
    # the rows and columns read below reach lags up to max(support, w) of C
    acov = ar_to_autocov(a, sigma2, max(w, idx.max(initial=0)) + 1).first_col
    table = ctx.scm_sums.table
    tb = (toeplitz_partial_sums(acov, idx, np.arange(w + 1), p) - table[idx, : w + 1]) @ b
    shifted = idx != 0
    rows_z = p - idx[shifted]
    tz = (toeplitz_partial_sums(acov, rows_z, np.arange(p - w, p), p) - table[rows_z, p - w :]) @ z
    tb[shifted] -= np.conj(tz)  # leaves the scale entries as they are
    g = 2.0 / alpha.alpha0 * tb
    g[~shifted] = (2.0 * np.real(tb[~shifted]) - (p - trace_sg)) / alpha.alpha0
    return g if np.iscomplexobj(alpha.alpha_rest) else np.real(g)


def _grad_dense(ctx, alpha, support):
    """Dense-matrix gradient used to cross-check the fast kernels."""
    p = ctx.p
    a0 = alpha.alpha0
    a, sigma2 = gs_to_ar(alpha)
    cov = ar_to_autocov(a, sigma2, p).dense()
    m = cov - ctx.scm
    b = gs_factor_b(alpha).dense()
    z = gs_factor_z(alpha).dense()
    gamma = gs_assemble(alpha)
    shift = np.eye(p, k=-1)
    complex_out = np.iscomplexobj(alpha.full)
    out = np.zeros(len(support), dtype=np.complex128 if complex_out else np.float64)
    for pos, i in enumerate(support):
        if i == 0:
            out[pos] = np.real(np.trace(m @ (b + b.conj().T - gamma))) / a0
        else:
            ei = np.linalg.matrix_power(shift, i)
            ep = np.linalg.matrix_power(shift, p - i)
            tb = np.trace(m @ b @ ei.T)
            tz = np.trace(m @ z @ ep.T)
            if complex_out:
                out[pos] = 2.0 / a0 * (tb - np.conj(tz))
            else:
                out[pos] = 2.0 / a0 * np.real(tb - tz)
    return out


class GsObjective:
    """Log-likelihood objective with a tiny per-parameter evaluation cache.

    Optimizers evaluate a point during line search and then ask for the
    gradient at the accepted point; the cache keeps the last few
    ``(value, tr(Gamma S))`` pairs, so the gradient reuses the trace and the
    stability check of its point.
    """

    _CACHE_SIZE = 4

    def __init__(self, ctx: LikelihoodContext):
        self.ctx = ctx
        self._cache: list = []

    def _lookup(self, alpha: GsParams):
        key = (alpha.alpha0, alpha.alpha_rest.tobytes())
        for k, found in self._cache:
            if k == key:
                return found
        found = _evaluate(self.ctx, alpha)
        self._cache.append((key, found))
        if len(self._cache) > self._CACHE_SIZE:
            self._cache.pop(0)
        return found

    def value(self, alpha: GsParams) -> float:
        return self._lookup(alpha)[0]

    def gradient(self, alpha: GsParams, support=None):
        return _grad(self.ctx, alpha, self._lookup(alpha)[1], support)
