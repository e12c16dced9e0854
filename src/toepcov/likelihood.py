"""Gaussian log-likelihood of GS-parameterized precision matrices.

At order w the data enter only through the (w+1)^2 + w^2 corner entries of
the sample covariance's partial diagonal sum table, the lagged-product
sufficient statistic of an exact AR(w) likelihood (Box, Jenkins & Reinsel,
Time Series Analysis).  The table is built once per context in O(P^2).
After that a value costs O(w^2) beyond O(P) bookkeeping: the
log-determinant comes from the step-down prediction errors, the trace term
from the two corners.  A gradient entry costs O(w) more: the same corners
of the implied covariance's table, built from its first max(support, w) + 1
lags, taken from the value's step-down recursion.  :class:`ProfiledObjective`
maximizes the scale out, with exact derivatives in the coefficient ratios.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .baselines import sample_cov
from .constraints import EPS0
from .toeplitz import (
    GsParams,
    PartialDiagSums,
    _autocov_lags,
    _step_down,
    ar_to_autocov,
    gs_assemble,
    gs_factor_b,
    gs_factor_z,
    gs_to_ar,
    toeplitz_from_lags,
    toeplitz_partial_sums,
)

__all__ = ["DegenerateDataError", "SampleSet", "LikelihoodContext", "loglik", "grad", "GsObjective",
           "ProfiledObjective"]


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
    """``(log-likelihood, tr(Gamma S), step-down output)`` at ``alpha``."""
    if alpha.dim != ctx.p:
        raise ValueError("parameter dimension does not match the context")
    a, sigma2 = gs_to_ar(alpha)
    # Stability of the implied AR model is exactly positive definiteness of
    # the assembled matrix; the step-down prediction errors then give the
    # log-determinant in closed form (errors are flat beyond the AR order).
    steps = _step_down(a, sigma2)
    pe = steps[2]
    w = a.size
    p = ctx.p
    logdet_cov = float(np.sum(np.log(pe[:w])) + (p - w) * np.log(sigma2))
    # alpha0 tr(Gamma S) = b^H T b - z^H T z over the two corners of the table
    # that the nonzero entries of the GS factors reach.
    b, z = _factor_heads(alpha, w)
    table = ctx.scm_sums.table
    quad = np.vdot(b, table[: w + 1, : w + 1] @ b) - np.vdot(z, table[p - w :, p - w :] @ z)
    trace_sg = float(np.real(quad)) / alpha.alpha0
    return -logdet_cov - trace_sg, trace_sg, steps


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
    evaluation = _evaluate(ctx, alpha)
    if dense:
        return _grad_dense(ctx, alpha, _support_indices(ctx.p, support))
    return _grad(ctx, alpha, evaluation, support)


def _support_indices(p, support):
    idx = np.arange(p) if support is None else np.array([int(i) for i in support], dtype=int)
    if np.any((idx < 0) | (idx >= p)):
        raise ValueError("support indices out of range")
    return idx


def _grad(ctx, alpha, evaluation, support):
    """Gradient from the table corners of the data and of the model.

    Entry i is 2/alpha0 [(T_C - T)[i, :w+1] b - conj((T_C - T)[P-i, P-w:] z)],
    where T is the data's table and T_C that of the implied covariance C;
    entry 0 differentiates the scale instead.  C's lags come from the
    step-down output in ``evaluation``, :func:`_evaluate` at ``alpha``.
    """
    p = ctx.p
    idx = _support_indices(p, support)
    _, trace_sg, steps = evaluation
    w = alpha.order
    b, z = _factor_heads(alpha, w)
    # the rows and columns read below reach lags up to max(support, w) of C
    acov = _autocov_lags(steps, max(w, idx.max(initial=0)) + 1)
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
    gradient at the accepted point; the cache keeps the last few ``(value,
    tr(Gamma S), step-down output)``, so the gradient reuses the trace, the
    stability check and the step-down recursion of its point.
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
        return _grad(self.ctx, alpha, self._lookup(alpha), support)


class ProfiledObjective:
    """Order-w log-likelihood with the scale maximized out in closed form.

    Works on the real vector ``x`` of the ratios ``u = alpha_rest / alpha_0``
    (real, then imaginary parts for complex data).  With ``v = (1, u)``,
    ``tr(Gamma S) = alpha_0 q`` for a quadratic form ``q = v^H K v`` on the
    SCM table's corners, and ``log det Gamma = P log alpha_0 + h`` with
    ``h = log det G`` for the (w+1)-square GS assembly ``G = B B^H - Z Z^H``
    of ``v``.  The best scale ``a* = max(P / q, EPS0)`` leaves the exact
    concentrated AR(w) likelihood (Box, Jenkins & Reinsel)
    ``L_c = P log a* + h - a* q``, with ``grad L_c = grad h - a* grad q``,
    ``hess L_c = hess h - a* hess q + (a*^2 / P) grad q grad q^T`` (the last
    term dropped on the floor), ``d_r h = tr(R d_r G)`` and ``d_rs h =
    -tr(R d_r G R d_s G) + tr(R d_rs G)`` for ``R = G^-1``, the Toeplitz
    matrix of lags 0..w of the unit-innovation AR autocovariance.
    """

    def __init__(self, ctx: LikelihoodContext, order: int):
        if not 1 <= order <= ctx.p - 1:
            raise ValueError(f"order must lie in [1, {ctx.p - 1}], got {order}")
        table = ctx.scm_sums.table
        self.p, self.order, w = ctx.p, order, order
        self.is_complex = np.iscomplexobj(table)
        eye = np.eye(w)
        self._jac = np.hstack((eye, 1j * eye)) if self.is_complex else eye  # du/dx
        # K: v^H K v = v^H T[:w+1, :w+1] v - z^H T[P-w:, P-w:] z, z = conj(u reversed)
        self._form = table[: w + 1, : w + 1].copy()
        self._form[1:, 1:] -= np.conj(table[-w:, -w:][::-1, ::-1])
        self._hess_q = 2.0 * np.real(self._jac.conj().T @ self._form[1:, 1:] @ self._jac)
        # B, Z and their derivatives along x are lower triangular Toeplitz,
        # picked from their first columns by one index
        i, j = np.indices((w + 1, w + 1))
        self._lower = np.where(i >= j, i - j, w + 1)
        pad = np.zeros((1, self._jac.shape[1]))
        self._d_b = np.moveaxis(self._tri(np.vstack((pad, self._jac))), -1, 0)
        self._d_z = np.moveaxis(self._tri(np.vstack((pad, np.conj(self._jac[::-1])))), -1, 0)
        self._last = (None, None)

    def _tri(self, col):
        """Lower triangular Toeplitz matrices with first columns ``col`` (axis 0)."""
        return np.concatenate((col, np.zeros_like(col[:1])))[self._lower]

    def _terms(self, x):
        """``(u, v, q, a*, h, step-down output)``; the last point is kept for
        the derivatives at the point a line search accepted."""
        if self._last[0] != x.tobytes():
            u = self._jac @ x
            v = np.append(1.0, u)
            q = float(np.real(np.vdot(v, self._form @ v)))
            steps = _step_down(-u, 1.0)
            h = -float(np.sum(np.log(steps[2][:-1])))
            self._last = (x.tobytes(), (u, v, q, max(self.p / q, EPS0), h, steps))
        return self._last[1]

    def params(self, x) -> GsParams:
        """GS parameters ``(a*, a* u)`` at ``x``, zero-padded."""
        u, _, _, a0, _, _ = self._terms(x)
        return GsParams(a0, np.concatenate((a0 * u, np.zeros(self.p - 1 - self.order))))

    def value(self, x) -> float:
        """``L_c`` at ``x``; raises where ``G`` is not positive definite."""
        _, _, q, a0, h, _ = self._terms(x)
        return self.p * np.log(a0) + h - a0 * q

    def derivatives(self, x):
        """Gradient and Hessian of ``L_c`` in ``x``."""
        u, v, q, a0, _, steps = self._terms(x)
        m = x.size
        grad_q = 2.0 * np.real(self._jac.conj().T @ (self._form[1:] @ v))
        lags = _autocov_lags(steps, self.order + 1)
        r = toeplitz_from_lags(np.concatenate((np.conj(lags[:0:-1]), lags)))
        z = self._tri(np.append(0.0, np.conj(u[::-1])))
        half = self._d_b @ self._tri(v).conj().T - self._d_z @ z.conj().T
        d_g = half + half.conj().swapaxes(1, 2)  # d_r G
        r_dg = r @ d_g
        grad = np.real(d_g.reshape(m, -1) @ r.T.ravel()) - a0 * grad_q  # tr(R d_r G)
        # tr(R d_r G R d_s G), and tr(R d_rs G) = 2 Re tr(R (d_r B d_s B^H - d_r Z d_s Z^H))
        second = r_dg.reshape(m, -1) @ r_dg.swapaxes(1, 2).reshape(m, -1).T
        curv = (r @ self._d_b).reshape(m, -1) @ self._d_b.reshape(m, -1).conj().T
        curv -= (r @ self._d_z).reshape(m, -1) @ self._d_z.reshape(m, -1).conj().T
        hess = np.real(2.0 * curv - second) - a0 * self._hess_q
        if self.p / q >= EPS0:
            hess += a0**2 / self.p * np.outer(grad_q, grad_q)
        return grad, hess
