"""Gaussian log-likelihood of GS-parameterized precision matrices.

The likelihood value and its full analytic gradient are both evaluated in
O(P^2) total: the inverse of the assembled matrix comes from the step-down
recursion, the log-determinant from Levinson prediction errors, and every
gradient coordinate from the two O(P) shifted-trace kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baselines import sample_cov
from .toeplitz import (
    GsParams,
    PartialDiagSums,
    _step_down,
    ar_to_autocov,
    gs_assemble,
    gs_factor_z,
    gs_to_ar,
    trace_toep_tri_shift,
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
    """Sample covariance plus the precomputed tables the gradient needs."""

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

    @cached_property
    def scm_superdiags(self) -> tuple:
        return tuple(np.ascontiguousarray(np.diagonal(self.scm, offset=k)) for k in range(self.p))


class _Evaluation:
    """Everything loglik and grad share for one parameter vector.

    The inverse's first column (needed by the gradient only) and the dense
    assembled matrix (debug path only) are computed lazily.
    """

    __slots__ = ("alpha", "trace_sg", "value", "_acov", "_gamma")

    def __init__(self, alpha, trace_sg, value):
        self.alpha = alpha
        self.trace_sg = trace_sg
        self.value = value
        self._acov = None
        self._gamma = None

    @property
    def acov(self) -> np.ndarray:
        if self._acov is None:
            a, sigma2 = gs_to_ar(self.alpha)
            self._acov = ar_to_autocov(a, sigma2, self.alpha.dim).first_col
        return self._acov

    @property
    def gamma(self) -> np.ndarray:
        if self._gamma is None:
            self._gamma = gs_assemble(self.alpha)
        return self._gamma


def _evaluate(ctx: LikelihoodContext, alpha: GsParams) -> _Evaluation:
    if alpha.dim != ctx.p:
        raise ValueError("parameter dimension does not match the context")
    a, sigma2 = gs_to_ar(alpha)
    # Stability of the implied AR model is exactly positive definiteness of
    # the assembled matrix; the step-down prediction errors then give the
    # log-determinant in closed form (errors are flat beyond the AR order).
    _, _, pe = _step_down(a, sigma2)
    w = a.size
    logdet_cov = float(np.sum(np.log(pe[:w])) + (ctx.p - w) * np.log(sigma2))
    # tr(Gamma S) through the nonzero diagonals of the assembled matrix;
    # the k-th one pairs with the k-th superdiagonal of S.
    a_full = alpha.full
    z_col = gs_factor_z(alpha).first_col
    p = ctx.p
    trace_sg = 0.0
    for k in range(alpha.order + 1):
        d = np.cumsum(a_full[k:] * np.conj(a_full[: p - k])) - np.cumsum(
            z_col[k:] * np.conj(z_col[: p - k])
        )
        pair = np.dot(d, ctx.scm_superdiags[k])
        trace_sg += np.real(pair) if k == 0 else 2.0 * np.real(pair)
    trace_sg = float(trace_sg) / alpha.alpha0
    value = -logdet_cov - trace_sg
    return _Evaluation(alpha, trace_sg, value)


def loglik(ctx: LikelihoodContext, alpha: GsParams) -> float:
    """Exact Gaussian log-likelihood (up to constants) in GS coordinates.

    Raises when the assembled matrix is not positive definite; feasibility
    is the caller's business via the constraints module.
    """
    return _evaluate(ctx, alpha).value


def grad(ctx: LikelihoodContext, alpha: GsParams, support=None, dense: bool = False):
    """Analytic gradient of the log-likelihood over the given support.

    ``support`` is an iterable of coordinate indices (0 selects the scale
    parameter); defaults to all coordinates.  Real parameters get real
    partial derivatives; complex trailing parameters get the packed
    ``d/dRe + i d/dIm`` form.  ``dense=True`` switches to the O(P^3) dense
    cross-check path.
    """
    ev = _evaluate(ctx, alpha)
    return _grad_from_eval(ctx, ev, support, dense)


def _grad_from_eval(ctx, ev, support=None, dense=False):
    p = ctx.p
    if support is None:
        support = range(p)
    support = tuple(int(i) for i in support)
    if any(i < 0 or i >= p for i in support):
        raise ValueError("support indices out of range")
    if dense:
        return _grad_dense(ctx, ev, support)
    alpha = ev.alpha
    a0 = alpha.alpha0
    b_col = alpha.full
    z_col = gs_factor_z(alpha).first_col
    acov = ev.acov
    table = ctx.scm_sums.table
    complex_out = np.iscomplexobj(b_col)
    rest = [i for i in support if i != 0]
    out = np.zeros(len(support), dtype=np.complex128 if complex_out else np.float64)
    if rest:
        shifts_b = np.array(rest)
        shifts_z = p - shifts_b
        tb = trace_toep_tri_shift(acov, b_col, shifts_b) - table[shifts_b, :] @ b_col
        tz = trace_toep_tri_shift(acov, z_col, shifts_z) - table[shifts_z, :] @ z_col
        vals = (tb - np.conj(tz)) if np.iscomplexobj(b_col) else np.real(tb - tz)
        vals = 2.0 / a0 * vals
        pos = 0
        for j, i in enumerate(support):
            if i != 0:
                out[j] = vals[pos]
                pos += 1
    if 0 in support:
        tb0 = trace_toep_tri_shift(acov, b_col, 0) - np.dot(table[0, :], b_col)
        g0 = (2.0 * np.real(tb0) - (p - ev.trace_sg)) / a0
        out[support.index(0)] = g0
    return out


def _grad_dense(ctx, ev, support):
    """Dense-matrix gradient used to cross-check the fast kernels."""
    from .toeplitz import HermitianToeplitz, gs_factor_b

    alpha = ev.alpha
    p = ctx.p
    a0 = alpha.alpha0
    cov = HermitianToeplitz(ev.acov).dense()
    m = cov - ctx.scm
    b = gs_factor_b(alpha).dense()
    z = gs_factor_z(alpha).dense()
    shift = np.eye(p, k=-1)
    complex_out = np.iscomplexobj(alpha.full)
    out = np.zeros(len(support), dtype=np.complex128 if complex_out else np.float64)
    for pos, i in enumerate(support):
        if i == 0:
            out[pos] = np.real(np.trace(m @ (b + b.conj().T - ev.gamma))) / a0
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
    gradient at the accepted point; caching the last few evaluations keeps
    the shared O(P^2) work single-pass.
    """

    _CACHE_SIZE = 4

    def __init__(self, ctx: LikelihoodContext):
        self.ctx = ctx
        self._cache: list = []

    def _lookup(self, alpha: GsParams):
        key = (alpha.alpha0, alpha.alpha_rest.tobytes())
        for k, ev in self._cache:
            if k == key:
                return ev
        ev = _evaluate(self.ctx, alpha)
        self._cache.append((key, ev))
        if len(self._cache) > self._CACHE_SIZE:
            self._cache.pop(0)
        return ev

    def value(self, alpha: GsParams) -> float:
        return self._lookup(alpha).value

    def gradient(self, alpha: GsParams, support=None):
        ev = self._lookup(alpha)
        return _grad_from_eval(self.ctx, ev, support)
