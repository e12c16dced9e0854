"""Gaussian log-likelihood of GS-parameterized precision matrices.

At order w the data enter only through the (w+1)^2 + w^2 corner entries of
the sample covariance's partial diagonal sum table, the lagged-product
sufficient statistic of an exact AR(w) likelihood (Box, Jenkins & Reinsel,
Time Series Analysis).  The table is built once per context in O(P^2).
After that a value costs O(w^2) beyond O(P) bookkeeping: the
log-determinant comes from the step-down prediction errors, the trace term
from the two corners.  A gradient entry costs O(w) more: the same corners
of the implied covariance's table, built from its first max(support, w) + 1
lags, taken from the value's step-down recursion.  :func:`loglik` and
:func:`grad` are the public references at P-length parameters.
:class:`GsObjective` is the one objective the iterative fits climb: it
maximizes the scale out, with exact derivatives in the coefficient ratios,
and gives each fit's reported log-likelihood and gradient at its end.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .baselines import sample_cov
from .toeplitz import (
    GsParams,
    NotPositiveDefiniteError,
    PartialDiagSums,
    _autocov_lags,
    _step_down,
    gs_to_ar,
    toeplitz_from_lags,
    toeplitz_partial_sums,
)

__all__ = ["DegenerateDataError", "SampleSet", "LikelihoodContext", "loglik", "grad", "GsObjective"]


class DegenerateDataError(ValueError):
    """Data with zero power, or with power beyond the float range: no
    positive definite estimate exists."""


class SampleSet:
    """N samples of dimension P and their sample covariance ``scm``.

    The SCM is formed here, so data whose squares leave the float range
    (the SCM's trace is zero or infinite, while the samples are finite and
    not all zero, or its mean is below the smallest normal float, whose
    reciprocal overflows) raise one :class:`DegenerateDataError` before any
    estimator runs, and no overflow warning.
    """

    def __init__(self, samples):
        samples = np.atleast_2d(np.asarray(samples))
        if samples.ndim != 2:
            raise ValueError("samples must be a 2-d array (one sample per row)")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite (found NaN or infinity)")
        if not np.any(samples):
            raise DegenerateDataError("samples are all zero")
        with np.errstate(over="ignore", invalid="ignore"):
            self.scm = sample_cov(samples)
        if not np.finfo(float).tiny <= float(np.real(np.trace(self.scm))) / samples.shape[1] < np.inf:
            raise DegenerateDataError("the samples' squares leave the float range; rescale the samples")
        self.samples = samples
        self.n, self.p = samples.shape

    def context(self) -> "LikelihoodContext":
        return LikelihoodContext(self.scm, self.n)


class LikelihoodContext:
    """Sample covariance plus its partial diagonal sum table ``scm_sums``,
    the statistic every likelihood value and gradient reads, the order-w
    :class:`GsObjective` on it (:meth:`objective`) and the order-w
    conditional moments of ``pls`` (:meth:`moments`)."""

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
        self._objectives: dict = {}
        self._moments: dict = {}

    @cached_property
    def scm_sums(self) -> PartialDiagSums:
        return PartialDiagSums.from_matrix(self.scm)

    def objective(self, order: int) -> "GsObjective":
        """The order-w :class:`GsObjective`, built on first use.  It is a pure
        function of the context and the order, so every fit at that order
        shares it (its closed-form start)."""
        if order not in self._objectives:
            self._objectives[order] = GsObjective(self, order)
        return self._objectives[order]

    def moments(self, order: int) -> np.ndarray:
        """The order-w :func:`_conditional_moments` of the SCM, built on first
        use, so every ``pls`` fit at that order shares them (callers do not
        write to them)."""
        if order not in self._moments:
            self._moments[order] = _conditional_moments(self.scm, order)
        return self._moments[order]


def _conditional_moments(scm: np.ndarray, order: int) -> np.ndarray:
    """(order+1)-square matrix of trailing diagonal partial sums of the SCM.

    Entry (j, l) sums ``S[t-l, t-j]`` over the modeled rows t = order..P-1.
    """
    p = scm.shape[0]
    out = np.zeros((order + 1, order + 1), dtype=scm.dtype)
    for j in range(order + 1):
        for l in range(j + 1):
            r = j - l
            diag = np.diagonal(scm, offset=-r)
            seg = diag[order - j : p - j]
            val = np.sum(seg)
            out[j, l] = val
            if l != j:
                out[l, j] = np.conj(val)
    return out


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


def grad(ctx: LikelihoodContext, alpha: GsParams, support=None):
    """Analytic gradient of the log-likelihood over the given support.

    ``support`` is an iterable of coordinate indices (0 selects the scale
    parameter); defaults to all coordinates.  Real parameters get real
    partial derivatives; complex trailing parameters get the packed
    ``d/dRe + i d/dIm`` form.
    """
    return _grad(ctx, alpha, _evaluate(ctx, alpha), support)


def _grad(ctx, alpha, evaluation, support):
    """Gradient from the table corners of the data and of the model.

    Entry i is 2/alpha0 [(T_C - T)[i, :w+1] b - conj((T_C - T)[P-i, P-w:] z)],
    where T is the data's table and T_C that of the implied covariance C;
    entry 0 differentiates the scale instead.  C's lags come from the
    step-down output in ``evaluation``, :func:`_evaluate` at ``alpha``.
    """
    p = ctx.p
    idx = np.arange(p) if support is None else np.array([int(i) for i in support], dtype=int)
    if np.any((idx < 0) | (idx >= p)):
        raise ValueError("support indices out of range")
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


class _GsFactors:
    """Derivatives through the n-square GS assembly ``G = B B^H - Z Z^H`` of
    ``(1, u)``, in the real vector ``x`` of the order-w ratios ``u = J x``
    (``J = jac``; real, then imaginary parts).  ``B`` and ``Z`` are lower
    triangular Toeplitz with first columns ``(1, u, 0, ..., 0)`` and ``(0,
    ..., 0, conj(u_w), ..., conj(u_1))``, so their derivatives ``d_r B``,
    ``d_r Z`` are constant.  n = w + 1 serves the likelihood and the
    Frobenius gain, n = P the eigenvalue barrier.
    """

    def __init__(self, n: int, order: int, is_complex: bool):
        eye = np.eye(order)
        self.jac = jac = np.hstack((eye, 1j * eye)) if is_complex else eye
        self._pad = n - order  # the zeros that lead Z's first column
        i, j = np.indices((n, n))
        self._lower = np.where(i >= j, i - j, n)  # picks a triangular Toeplitz from its first column
        self.d_b = np.moveaxis(self._tri(np.eye(n, order, -1) @ jac), -1, 0)
        self.d_z = np.moveaxis(self._tri(np.eye(n, order, -self._pad) @ np.conj(jac[::-1])), -1, 0)

    def _tri(self, col):
        """Lower triangular Toeplitz matrices with first columns ``col`` (axis 0)."""
        return np.concatenate((col, np.zeros_like(col[:1])))[self._lower]

    def factors(self, u):
        """``(B, Z)`` at the ratios ``u``."""
        b = self._tri(np.concatenate(([1.0], u, np.zeros(self._pad - 1))))
        return b, self._tri(np.concatenate((np.zeros(self._pad), np.conj(u[::-1]))))

    def logdet_derivatives(self, u, r):
        """Gradient and Hessian in ``x`` of ``log det(G - c I)``, any constant ``c``, from
        ``R = (G - c I)^-1``: ``tr(R d_r G)`` and ``-tr(R d_r G R d_s G) + 2 Re tr(R (d_r B
        d_s B^H - d_r Z d_s Z^H))`` (Boyd & Vandenberghe, Convex Optimization, A.4)."""
        m = self.d_b.shape[0]
        b, z = self.factors(u)
        half = self.d_b @ b.conj().T - self.d_z @ z.conj().T
        d_g = half + half.conj().swapaxes(1, 2)  # d_r G
        r_dg = r @ d_g
        second = r_dg.reshape(m, -1) @ r_dg.swapaxes(1, 2).reshape(m, -1).T
        curv = (r @ self.d_b).reshape(m, -1) @ self.d_b.reshape(m, -1).conj().T
        curv -= (r @ self.d_z).reshape(m, -1) @ self.d_z.reshape(m, -1).conj().T
        return np.real(d_g.reshape(m, -1) @ r.T.ravel()), np.real(2.0 * curv - second)

    def gain_hessian(self, u):
        """Hessian in ``x`` of ``|M|_F^2``, ``M = B^-1 Z`` (the squared Frobenius
        gain of ``(1, u)`` at n = w + 1): with ``N_r = d_r M = B^-1 (d_r Z -
        d_r B M)``, ``2 Re tr(N_r N_s^H - (B^-1 d_s B N_r + B^-1 d_r B N_s) M^H)``."""
        m = self.d_b.shape[0]
        b, z = self.factors(u)
        b_inv = np.linalg.inv(b)
        mm = b_inv @ z
        p_b = b_inv @ self.d_b  # B^-1 d_r B
        nn = b_inv @ self.d_z - p_b @ mm  # N_r
        cross = p_b.reshape(m, -1) @ (nn @ mm.conj().T).swapaxes(1, 2).reshape(m, -1).T
        return 2.0 * np.real(nn.reshape(m, -1) @ nn.reshape(m, -1).conj().T - cross - cross.T)


class GsObjective:
    """Order-w log-likelihood with the scale maximized out in closed form.

    Works on the real vector ``x`` of the ratios ``u = alpha_rest / alpha_0``
    (real, then imaginary parts for complex data).  With ``v = (1, u)``,
    ``tr(Gamma S) = alpha_0 q`` for a quadratic form ``q = v^H K v`` on the
    SCM table's corners, and ``log det Gamma = P log alpha_0 + h`` with
    ``h = log det G`` for the (w+1)-square GS assembly ``G`` of ``v``
    (``factors``).  The best scale ``a* = P / q`` leaves the exact
    concentrated AR(w) likelihood (Box, Jenkins & Reinsel) ``L_c = P log a* +
    h - a* q``, with ``grad L_c = grad h - a* grad q`` and ``hess L_c = hess h
    - a* hess q + (a*^2 / P) grad q grad q^T``; ``R = G^-1`` is the Toeplitz
    matrix of lags 0..w of the unit-innovation AR autocovariance.  ``q > 0``
    wherever ``G`` is positive definite and the SCM positive semidefinite;
    ``q <= 0`` (an SCM that is not, where ``L_c`` is unbounded in the scale)
    counts as infeasible.  :meth:`loglik` is ``L_c``, equal to :func:`loglik`
    at :meth:`params`.  :meth:`value` is ``L_c(x) - L_c(0)``, the increase
    over white noise: it drops the ``-2 P log c`` that ``L_c`` carries at
    data scale ``c``, so its rounding, and a fit that compares its values,
    do not depend on the scale.  :meth:`gradient` differentiates both.  One
    memo holds the last point's terms and, once :meth:`gradient` asks for
    them, its derivatives; a new point replaces both, so the point a line
    search accepted and where a fit reads its report cost no second pass.
    :attr:`start` is where ``q`` is stationary, the box fit's start, and
    :attr:`loglik_bound` bounds ``L_c`` above at every stable point.
    """

    def __init__(self, ctx: LikelihoodContext, order: int):
        if not 1 <= order <= ctx.p - 1:
            raise ValueError(f"order must lie in [1, {ctx.p - 1}], got {order}")
        table = ctx.scm_sums.table
        self.p, self.order, w = ctx.p, order, order
        self.is_complex = np.iscomplexobj(table)
        # K: v^H K v = v^H T[:w+1, :w+1] v - z^H T[P-w:, P-w:] z, z = conj(u reversed)
        self._form = table[: w + 1, : w + 1].copy()
        self._form[1:, 1:] -= np.conj(table[-w:, -w:][::-1, ::-1])
        self._q0 = float(np.real(self._form[0, 0]))  # q and a* at white noise, x = 0
        self._a0 = self.p / self._q0
        self._memo = (None, None, None)  # the last point's bytes, terms and derivatives

    @cached_property
    def factors(self) -> _GsFactors:
        """The (w+1)-square GS factors of ``h``; their ``jac`` is ``du/dx``.
        Built on first use: :attr:`loglik_bound` does not need them."""
        return _GsFactors(self.order + 1, self.order, self.is_complex)

    @cached_property
    def _hess_q(self) -> np.ndarray:
        jac = self.factors.jac
        return 2.0 * np.real(jac.conj().T @ self._form[1:, 1:] @ jac)

    @cached_property
    def start(self) -> np.ndarray:
        """``x`` of ``u* = -K[1:, 1:]^-1 K[1:, 0]``, where ``q(1, u)`` is
        stationary (its minimizer where ``K[1:, 1:]`` is positive definite);
        white noise, ``x = 0``, where ``K[1:, 1:]`` is singular.  It ignores
        ``h``, so it is a start, not the fit."""
        try:
            u = -np.linalg.solve(self._form[1:, 1:], self._form[1:, 0])
        except np.linalg.LinAlgError:
            return np.zeros(self.order * (2 if self.is_complex else 1))
        return np.concatenate((u.real, u.imag)) if self.is_complex else u

    @cached_property
    def loglik_bound(self) -> float:
        """``B = P log(P / q*) - P`` for the least ``q`` (at :attr:`start`),
        ``q* = K00 - K10^H K11^-1 K10``: the Schur complement of ``K11`` in
        ``K``, the squared last diagonal entry of the Cholesky factor of ``K``
        with its first row and column moved last.  +inf where that
        factorization fails (``K11`` not positive definite, or ``q* <= 0``).
        ``L_c = P log(P / q) + h - P``, and at every stable point ``h <= 0``
        (the step-down prediction errors of ``G^-1`` are at least 1) and ``q
        >= q*``, so ``L_c <= B`` there: no positive definite GS estimate of
        this order has a higher log-likelihood."""
        try:
            chol = np.linalg.cholesky(np.roll(self._form, -1, axis=(0, 1)))
        except np.linalg.LinAlgError:
            return np.inf
        return self.p * (np.log(self.p) - 2.0 * np.log(np.abs(chol[-1, -1])) - 1.0)

    def _terms(self, x):
        """``(u, v, q, a*, h, step-down output)``, from the memo at its point."""
        if self._memo[0] != x.tobytes():
            u = self.ratios(x)
            v = np.append(1.0, u)
            q = float(np.real(np.vdot(v, self._form @ v)))
            if not q > 0:
                raise NotPositiveDefiniteError(f"tr(Gamma S) / alpha_0 = {q:.6g} is not positive")
            steps = _step_down(-u, 1.0)
            h = -float(np.sum(np.log(steps[2][:-1])))
            self._memo = (x.tobytes(), (u, v, q, self.p / q, h, steps), None)
        return self._memo[1]

    def ratios(self, x) -> np.ndarray:
        """The ratios ``u`` (complex for complex data) of the real vector ``x``."""
        return self.factors.jac @ x

    def params(self, x) -> GsParams:
        """GS parameters ``(a*, a* u)`` at ``x``, zero-padded."""
        u, _, _, a0, _, _ = self._terms(x)
        return GsParams(a0, np.concatenate((a0 * u, np.zeros(self.p - 1 - self.order))))

    def loglik(self, x) -> float:
        """``L_c`` at ``x``; raises where ``G`` is not positive definite or ``q <= 0``."""
        _, _, q, a0, h, _ = self._terms(x)
        return float(self.p * np.log(a0) + h - a0 * q)

    def value(self, x) -> float:
        """``L_c(x) - L_c(0)``, as ``P log(a* / a*_0) + h - a* q + a*_0 q_0``."""
        _, _, q, a0, h, _ = self._terms(x)
        return self.p * np.log(a0 / self._a0) + h - a0 * q + self._a0 * self._q0

    def gradient(self, x):
        """Gradient and Hessian of :meth:`value`, and of ``L_c``, in ``x``
        (shared arrays: callers do not write to them)."""
        self._terms(x)  # puts x in the memo
        if self._memo[2] is None:
            self._memo = (*self._memo[:2], self._derivatives_at(x))
        return self._memo[2]

    def _derivatives_at(self, x):
        u, v, _, a0, _, steps = self._terms(x)
        grad_q = 2.0 * np.real(self.factors.jac.conj().T @ (self._form[1:] @ v))
        lags = _autocov_lags(steps, self.order + 1)
        r = toeplitz_from_lags(np.concatenate((np.conj(lags[:0:-1]), lags)))
        grad_h, hess_h = self.factors.logdet_derivatives(u, r)
        scaled = a0 * grad_q  # a* and grad q scale inversely: their product is scale-free
        hess = hess_h - a0 * self._hess_q + np.outer(scaled, scaled) / self.p
        return grad_h - scaled, hess
