"""Positive-definiteness guaranteed likelihood estimators in GS coordinates.

Four fitting routes share one contract (the returned parameters always
assemble to a positive definite matrix):

* active-set projected Newton ascent inside certified box constraints,
* order-sized log-barrier interior point under the Frobenius surrogate,
* log-barrier interior point under exact eigenvalue constraints (small P
  only),
* a closed-form conditional-likelihood least-squares fit projected onto the
  box.

Every constraint set is a condition on the coefficient ratios
``u = alpha_rest / alpha_0`` alone, so the first three are one Newton fit
over ``u`` with the scale maximized in closed form and exact derivatives
(the likelihood's and both barriers' from one GS-factor kernel): one
active-set Newton loop per barrier round, with an eigenvalue-floored step
and an Armijo backtracking line search.

Order selection (BIC) and bound-family selection wrappers sit on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    DEFAULT_FAMILIES,
    EIG_DIM_LIMIT,
    EPS_EIG,
    EPS_F,
    BoxSpec,
    box_spec_for,
    frob_constraint,
    frobenius_gain_sq,
    project_box,
)
from .likelihood import GsObjective, LikelihoodContext, _GsFactors, loglik
from .toeplitz import (
    GsParams,
    HermitianToeplitz,
    NotPositiveDefiniteError,
    UnstableARError,
    ar_to_autocov,
    gs_assemble,
    gs_to_ar,
)

__all__ = [
    "EstimationReport",
    "PgdOptions",
    "BarrierOptions",
    "estimate_pgd",
    "estimate_frob",
    "estimate_eig",
    "estimate_pls",
    "tune_order",
    "tune_box_family",
    "best_family_fit",
    "white_noise_report",
]

_INFEASIBLE = (NotPositiveDefiniteError, UnstableARError)

# Backtracking line search of every fit: the step halves until the Armijo
# sufficient-increase rule holds, at most this many times.
_ARMIJO_SHRINK = 0.5
_ARMIJO_C1 = 1e-4
_ARMIJO_MAX_BACKTRACKS = 40
# Smallest curvature the Newton step may use, relative to the largest.
_CURVATURE_FLOOR = 1e-8
# Stop rule of every Newton round: a step gains less than _REL_TOL max(1, |f|)
# at a point whose projected gradient is below _STAT_TOL (1 + |f|), where f is
# the objective: the likelihood's gain over white noise, plus any barrier.
_REL_TOL = 1e-8
_STAT_TOL = 1e-5
# Barrier weight of the first outer round and its factor per round.
_MU0 = 1.0
_MU_SHRINK = 0.1
# BIC order scan: candidates in a row without improvement before it stops.
_PATIENCE = 5


@dataclass
class EstimationReport:
    """Result of one estimator run; the GS parameters are canonical.

    ``grad_norm`` is the stationarity measure of the fitted likelihood: for
    the Newton fits, its projected gradient mapping norm in the coefficient
    ratios (the scale is maximized out); for the white-noise fit, the
    derivative in the scale; NaN for the closed-form ``pls`` fit.
    """

    alpha: GsParams
    order: int
    loglik: float
    iterations: int
    converged: bool
    family_id: str | None = None
    grad_norm: float = np.nan
    extras: dict = field(default_factory=dict)

    def icm_dense(self) -> np.ndarray:
        """Dense precision (inverse covariance) estimate."""
        return gs_assemble(self.alpha)

    def cm(self) -> HermitianToeplitz:
        """Implied Toeplitz covariance estimate."""
        a, sigma2 = gs_to_ar(self.alpha)
        return ar_to_autocov(a, sigma2, self.alpha.dim)


@dataclass(frozen=True)
class PgdOptions:
    max_iter: int = 500
    track_iterates: bool = False


@dataclass(frozen=True)
class BarrierOptions:
    outer_iters: int = 8
    inner_max_iter: int = 150


def white_noise_report(ctx: LikelihoodContext) -> EstimationReport:
    """Closed-form order-zero fit: inverse of the average diagonal power."""
    trace = ctx.trace_scale * ctx.p
    a0 = ctx.p / trace
    return EstimationReport(
        alpha=GsParams(a0, np.zeros(ctx.p - 1)),
        order=0,
        loglik=float(ctx.p * np.log(a0) - a0 * trace),
        iterations=0,
        converged=True,
        grad_norm=abs(ctx.p / a0 - trace),
    )


def _newton_step(hess, g):
    """Newton ascent direction for gradient ``g`` and Hessian ``hess``.

    The Hessian is symmetrized and the eigenvalues of its negation floored,
    so the step is an ascent direction even where the objective is not
    concave.
    """
    lam, vec = np.linalg.eigh(-0.5 * (hess + hess.T))
    lam = np.maximum(lam, _CURVATURE_FLOOR * np.abs(lam).max())
    d = vec @ ((vec.T @ g) / lam)
    if not np.all(np.isfinite(d)):  # overflowed derivatives: a numerical failure
        raise np.linalg.LinAlgError("Newton direction is not finite")
    return d


def _line_search(evaluate, x, d, value, g, lo, hi):
    """Backtracking along ``d`` from ``x``, each trial clipped to ``[lo, hi]``.

    Returns the first ``(x_new, value_new)`` that passes the Armijo
    sufficient-increase rule, or None.  ``evaluate`` returns -inf at
    infeasible points.
    """
    step = 1.0
    for _ in range(_ARMIJO_MAX_BACKTRACKS):
        x_new = np.clip(x + step * d, lo, hi)
        if np.array_equal(x_new, x):  # the step vanished in rounding
            return None
        cand_value = evaluate(x_new)
        gain = float(g @ (x_new - x))
        if cand_value > value and cand_value >= value + _ARMIJO_C1 * max(gain, 0.0):
            return x_new, cand_value
        step *= _ARMIJO_SHRINK
    return None


def _newton_ascent(evaluate, derivatives, x, lo, hi, max_iter, trail=None):
    """Active-set projected Newton ascent from ``x`` inside ``[lo, hi]``
    (Bertsekas, SIAM J. Control Optim. 1982): each iteration holds
    coordinates at a bound whose gradient points outward, takes a Newton
    step on the others, clips it to the box and halves it until the Armijo
    rule holds.  ``evaluate(x)`` is the objective (-inf where infeasible),
    ``derivatives(x)`` its gradient and Hessian; stationarity is measured by
    the gradient's projected mapping norm ``|clip(x + g) - x|``.
    Returns ``(x, iterations, converged)``; ``trail`` gets each ``(x, value)``.
    """
    value = evaluate(x)
    if trail is not None:
        trail.append((x, value))
    iters = 0
    for iters in range(1, max_iter + 1):
        g, hess = derivatives(x)
        stationary = np.linalg.norm(np.clip(x + g, lo, hi) - x) < _STAT_TOL * (1.0 + abs(value))
        free = ~(((x <= lo) & (g <= 0)) | ((x >= hi) & (g >= 0)))
        if np.linalg.norm(g[free]) < 1e-14 * (1.0 + abs(value)):
            return x, iters, True
        idx = np.flatnonzero(free)
        d = np.zeros_like(x)
        d[idx] = _newton_step(hess[np.ix_(idx, idx)], g[idx])
        accepted = _line_search(evaluate, x, d, value, g, lo, hi)
        if accepted is None:
            return x, iters, True
        x, new_value = accepted
        improvement = new_value - value
        value = new_value
        if trail is not None:
            trail.append((x, value))
        if improvement < _REL_TOL * max(1.0, abs(value)) and stationary:
            return x, iters, True
    return x, iters, False


def _ratio_fit(ctx, order, max_iter, hi=None, slack=None, rounds=1,
               trail=None) -> EstimationReport:
    """Newton fit of every iterative GS estimator, over the coefficient ratios.

    Maximizes ``L_c(u) + mu psi(u)`` over the real vector ``x`` of the ratios
    ``u = alpha_rest / alpha_0`` (real, then imaginary parts), the scale
    maximized in closed form (:class:`GsObjective`, compared through its
    scale-free :meth:`~GsObjective.value`).  Each round is
    :func:`_newton_ascent` inside ``[-hi, hi]`` (unbounded by default) from
    where the last stopped, the first from white noise.  Without a ``slack``
    there is one round at ``mu = 0``.  With one, ``slack(prof)`` returns
    ``(log_slack, slack_derivatives)`` for the objective ``prof``: ``psi =
    log_slack(u)`` is a constraint's log-slack (-inf when infeasible) and
    ``slack_derivatives(u)`` its exact gradient and Hessian in ``x``; ``mu``
    starts at ``_MU0`` and shrinks by ``_MU_SHRINK`` per round.  The report
    reads the objective it maximized: ``loglik`` is ``L_c`` and ``grad_norm``
    the likelihood's mapping norm ``|clip(x + g) - x|`` in ``x``, barrier
    left out.  The scale is maximized out, so the likelihood's derivative
    along ``(1, u)`` is zero and needs no entry.
    """
    prof = GsObjective(ctx, order)  # checks the order
    if hi is None:
        hi = np.full(2 * order if prof.is_complex else order, np.inf)
    lo = -hi
    log_slack, slack_derivatives = slack(prof) if slack else (None, None)
    mus = [_MU0 * _MU_SHRINK**k for k in range(rounds)] if slack else [0.0]

    def value_at(x, mu):
        try:
            value = prof.value(x)
        except _INFEASIBLE:
            return -np.inf
        return value + mu * log_slack(prof.ratios(x)) if mu else value

    def derivatives(x, mu):
        g, hess = prof.gradient(x)
        if not mu:
            return g, hess
        s_grad, s_hess = slack_derivatives(prof.ratios(x))
        return g + mu * s_grad, hess + mu * s_hess

    x = np.zeros(hi.size)
    total_iters = 0
    converged = False
    for mu in mus:
        x, iters, converged = _newton_ascent(
            lambda y, mu=mu: value_at(y, mu), lambda y, mu=mu: derivatives(y, mu),
            x, lo, hi, max_iter, trail,
        )
        total_iters += iters
    g, _ = prof.gradient(x)
    report = EstimationReport(
        alpha=prof.params(x),
        order=order,
        loglik=prof.loglik(x),
        iterations=total_iters,
        converged=converged,
        grad_norm=float(np.linalg.norm(np.clip(x + g, lo, hi) - x)),
    )
    if trail is not None:
        report.extras["iterates"] = [prof.params(y) for y, _ in trail]
        report.extras["objectives"] = [value for _, value in trail]
    return report


def estimate_pgd(
    ctx: LikelihoodContext,
    spec: BoxSpec,
    order: int,
    opts: PgdOptions | None = None,
) -> EstimationReport:
    """Active-set projected Newton ascent on the likelihood inside the box.

    The box ``|alpha_i| <= K_i alpha_0`` is a fixed box on the ratios ``u_i
    = alpha_i / alpha_0`` (within ``+-K_i``, or ``+-K_i / 2`` per part for
    complex data) and leaves the scale free.  So :func:`_ratio_fit` runs one
    round without a barrier, its Newton loop projected onto that box.  Every
    iterate lies in the box, so the positive-definiteness certificate holds
    throughout.
    """
    opts = opts or PgdOptions()
    if spec.dim != ctx.p:
        raise ValueError("box dimension does not match the context")
    k = spec.k[:order]
    hi = np.tile(k / 2.0, 2) if np.iscomplexobj(ctx.scm) else k
    trail = [] if opts.track_iterates else None
    report = _ratio_fit(ctx, order, opts.max_iter, hi, trail=trail)
    report.family_id = spec.family_id
    return report


def estimate_frob(
    ctx: LikelihoodContext,
    order: int = 1,
    opts: BarrierOptions | None = None,
) -> EstimationReport:
    """Interior-point fit under the Frobenius surrogate constraint.

    The barrier ``log(-c)`` keeps ``c = gain^2 - 1 + EPS_F`` strictly
    negative.  The gain does not depend on the scale, so ``c`` is evaluated
    at ``(1, u)``; at order w that (w+1)-term vector has the same gain as the
    P-length parameters (only the last w cross diagonals are nonzero, and
    they read ``alpha_0..alpha_w`` alone).  So ``c``, its gradient and its
    Hessian (on the likelihood's (w+1)-square GS factors) cost O(w^4) at
    most, whatever P.  :func:`_ratio_fit` runs one damped Newton round per
    barrier weight (Boyd & Vandenberghe, Convex Optimization, 11.3), so
    every iterate is strictly feasible, hence positive definite.
    """
    opts = opts or BarrierOptions()

    def constraint(u):
        return frobenius_gain_sq(GsParams(1.0, u)) - 1.0 + EPS_F

    def log_slack(u):
        c = constraint(u)
        return np.log(-c) if c < 0 else -np.inf

    def slack(prof):
        def slack_derivatives(u):
            c, dc = frob_constraint(GsParams(1.0, u))
            dc = np.concatenate((dc[1:].real, dc[1:].imag)) if prof.is_complex else dc[1:]
            return dc / c, prof.factors.gain_hessian(u) / c - np.outer(dc, dc) / c**2

        return log_slack, slack_derivatives

    report = _ratio_fit(ctx, order, opts.inner_max_iter, slack=slack, rounds=opts.outer_iters)
    alpha = report.alpha
    report.extras["constraint_value"] = constraint(alpha.alpha_rest[:order] / alpha.alpha0)
    return report


def estimate_eig(
    ctx: LikelihoodContext,
    order: int = 1,
    opts: BarrierOptions | None = None,
) -> EstimationReport:
    """Interior-point fit under exact eigenvalue constraints.

    The barrier is ``log det(G - EPS_EIG I)`` for ``G = Gamma / alpha_0``,
    the P-square GS assembly of ``(1, u)``: it keeps ``Gamma`` positive
    definite and, like ``u``, does not change with the data's scale.  Its
    exact gradient and Hessian take one Cholesky factorization per Newton
    iteration and the likelihood's log-determinant formulas on P-square GS
    factors, O(order P^3).  :func:`_ratio_fit` runs one damped Newton round
    per barrier weight.  Reference implementation for cross-validating the
    cheaper constraint sets; refuses dimensions where that work is no longer
    acceptable.
    """
    if ctx.p > EIG_DIM_LIMIT:
        raise ValueError(f"eigenvalue-constrained estimation limited to dimension {EIG_DIM_LIMIT}")
    opts = opts or BarrierOptions()

    last = [None, None]  # the last factor, for the derivatives at the trial a line search accepted

    def cholesky(u):  # of G - EPS_EIG I; raises LinAlgError where it is not positive definite
        if last[0] != u.tobytes():
            gram = gs_assemble(GsParams(1.0, np.concatenate((u, np.zeros(ctx.p - 1 - order)))))
            last[:] = u.tobytes(), np.linalg.cholesky(gram - EPS_EIG * np.eye(ctx.p))
        return last[1]

    def log_slack(u):
        try:
            return 2.0 * float(np.sum(np.log(np.real(np.diag(cholesky(u))))))
        except np.linalg.LinAlgError:
            return -np.inf

    def slack(prof):
        factors = _GsFactors(ctx.p, order, prof.is_complex)

        def slack_derivatives(u):
            inv = np.linalg.inv(cholesky(u))
            return factors.logdet_derivatives(u, inv.conj().T @ inv)

        return log_slack, slack_derivatives

    return _ratio_fit(ctx, order, opts.inner_max_iter, slack=slack, rounds=opts.outer_iters)


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


def estimate_pls(
    ctx: LikelihoodContext,
    spec: BoxSpec,
    order: int = 1,
    with_loglik: bool = True,
) -> EstimationReport:
    """Closed-form conditional-likelihood fit projected onto the box.

    Solves the least-squares system built from trailing diagonal sums of the
    sample covariance, maps the AR solution to GS coordinates, and projects;
    O(P * order + order^3) without the optional likelihood evaluation.
    """
    p = ctx.p
    if not 0 <= order <= p - 1:
        raise ValueError(f"order must lie in [0, {p - 1}], got {order}")
    if spec.dim != p:
        raise ValueError("box dimension does not match the context")
    st = _conditional_moments(ctx.scm, order)
    extras = {}
    if order:
        block = st[1:, 1:]
        rhs = st[1:, 0]
        try:
            a_hat = np.linalg.solve(block, rhs)
            if not np.all(np.isfinite(a_hat)):
                raise np.linalg.LinAlgError("non-finite solution")
        except np.linalg.LinAlgError:
            ridge = 1e-10 * max(np.real(np.trace(block)) / order, 1e-300)
            a_hat = np.linalg.solve(block + ridge * np.eye(order), rhs)
            extras["ridge_used"] = True
        resid = np.real(st[0, 0] - np.vdot(rhs, a_hat))
    else:
        a_hat = np.zeros(0, dtype=ctx.scm.dtype)
        resid = np.real(st[0, 0])
    sigma2 = resid / (p - order)
    floor = 1e-12 * ctx.trace_scale
    if sigma2 < floor:
        sigma2 = floor
        extras["variance_floored"] = True
    rest = np.zeros(p - 1, dtype=a_hat.dtype if order else float)
    rest[:order] = -a_hat / sigma2
    alpha = project_box(GsParams(1.0 / sigma2, rest), spec)
    extras["a_hat"] = a_hat
    extras["sigma2_hat"] = float(sigma2)
    return EstimationReport(
        alpha=alpha,
        order=order,
        loglik=loglik(ctx, alpha) if with_loglik else np.nan,
        iterations=0,
        converged=True,
        family_id=spec.family_id,
        extras=extras,
    )


def tune_order(fit, ctx: LikelihoodContext) -> EstimationReport:
    """Pick the AR order by BIC over growing supports.

    ``fit(ctx, order)`` must return an :class:`EstimationReport` for
    ``order >= 1``; the order-zero candidate is the closed-form white-noise
    fit.  The score penalizes each free parameter by ``log N`` against the
    full-data log-likelihood ``N/2`` times the fitted objective, so the fit
    term grows with the sample count as consistency requires.  Scanning
    stops after ``_PATIENCE`` consecutive candidates without improvement;
    ties keep the smaller order.
    """
    if ctx.n < 2:
        raise ValueError("BIC order tuning needs at least two samples")
    p = ctx.p
    cap = min(p - 1, int(round(2.0 * np.sqrt(p) + 8.0)))
    log_n = np.log(ctx.n)
    best = None
    best_score = np.inf
    strikes = 0
    for order in range(cap):
        try:
            rep = white_noise_report(ctx) if order == 0 else fit(ctx, order)
            score = (order + 1) * log_n - 0.5 * ctx.n * rep.loglik
        except _INFEASIBLE:
            score = np.inf  # an infeasible candidate strikes like a worse one
        if score < best_score:
            best, best_score, strikes = rep, score, 0
        else:
            strikes += 1
            if strikes >= _PATIENCE:
                break
    if best is None:
        raise RuntimeError("order tuning produced no feasible candidate")
    best.extras["bic_score"] = float(best_score)
    return best


def tune_box_family(
    fit_factory,
    ctx: LikelihoodContext,
    families=DEFAULT_FAMILIES,
) -> EstimationReport:
    """Run the estimator under each bound family and keep the best fit.

    ``fit_factory(spec)`` returns a ``fit(ctx, order)`` callable bound to
    the family's box.  The winner is chosen by :func:`best_family_fit`.
    """
    if not families:
        raise ValueError("at least one bound family is required")

    def fits():
        for family in families:
            spec = box_spec_for(family, ctx.p)
            rep = tune_order(fit_factory(spec), ctx)
            rep.family_id = rep.family_id or spec.family_id
            yield rep

    return best_family_fit(fits())


def best_family_fit(reports) -> EstimationReport:
    """The highest log-likelihood fit among ``reports``, one per bound family.

    A later family wins only by more than ``_REL_TOL max(1, |L|)``, the
    Newton fits' relative stop tolerance: smaller gaps are rounding noise,
    and ties keep the earlier family.
    """
    best = None
    for rep in reports:
        if best is None or rep.loglik > best.loglik + _REL_TOL * max(1.0, abs(best.loglik)):
            best = rep
    return best
