"""Positive-definiteness guaranteed likelihood estimators in GS coordinates.

Four fitting routes share one contract (the returned parameters always
assemble to a positive definite matrix):

* active-set projected Newton ascent inside certified box constraints, with
  the scale maximized in closed form and exact derivatives,
* log-barrier interior point with damped Newton steps under the Frobenius
  surrogate constraint, whose exact gradient costs O(P^2),
* the same barrier driver with exact eigenvalue constraints (small P only),
* a closed-form conditional-likelihood least-squares fit projected onto the
  box.

Both Newton fits share one active-set Newton loop with an eigenvalue-floored
step and an Armijo backtracking line search.

Order selection (BIC) and bound-family selection wrappers sit on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    DEFAULT_FAMILIES,
    EIG_DIM_LIMIT,
    EPS0,
    EPS_EIG,
    EPS_F,
    BoxSpec,
    box_spec_for,
    frob_constraint,
    frobenius_gain_sq,
    project_box,
)
from .likelihood import GsObjective, LikelihoodContext, ProfiledObjective
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
# Stop rules of both Newton fits: a step gains less than _REL_TOL max(1, |L|)
# at a point whose (projected) gradient is below _STAT_TOL (1 + |L|).
_REL_TOL = 1e-8
_STAT_TOL = 1e-5
# Barrier weight of the first outer round and its factor per round.
_MU0 = 1.0
_MU_SHRINK = 0.1
# BIC order scan: candidates in a row without improvement before it stops.
_PATIENCE = 5


@dataclass
class EstimationReport:
    """Result of one estimator run; the GS parameters are canonical."""

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
    a0 = max(ctx.p / max(trace, 1e-300), EPS0)
    alpha = GsParams(a0, np.zeros(ctx.p - 1))
    value = ctx.p * np.log(a0) - a0 * trace
    g0 = ctx.p / a0 - trace
    if a0 <= EPS0 * (1.0 + 1e-9) and g0 < 0:
        g0 = 0.0
    return EstimationReport(
        alpha=alpha,
        order=0,
        loglik=float(value),
        iterations=0,
        converged=True,
        grad_norm=abs(g0),
    )


def _stacked(g):
    """Packed gradient ``(d/d alpha_0, d/dRe + i d/dIm, ...)`` as a real
    vector: the scale entry, then the real parts, then the imaginary parts."""
    if np.iscomplexobj(g):
        return np.concatenate(([g[0].real], g[1:].real, g[1:].imag))
    return g


def _fd_jacobian(fn, x, f0):
    """Forward-difference Jacobian of ``fn`` (value ``f0`` at ``x``)."""
    jac = np.empty((x.size, x.size))
    for j in range(x.size):
        probe = x.copy()
        probe[j] += 1e-6 * max(1.0, abs(x[j]))
        jac[:, j] = (fn(probe) - f0) / (probe[j] - x[j])
    return jac


def _newton_step(hess, g):
    """Newton ascent direction for gradient ``g`` and Hessian ``hess``.

    The Hessian is symmetrized and the eigenvalues of its negation floored,
    so the step is an ascent direction even where the objective is not
    concave.
    """
    lam, vec = np.linalg.eigh(-0.5 * (hess + hess.T))
    lam = np.maximum(lam, _CURVATURE_FLOOR * np.abs(lam).max())
    return vec @ ((vec.T @ g) / lam)


def _line_search(evaluate, x, d, value, g, lo, hi):
    """Backtracking along ``d`` from ``x``, each trial clipped to ``[lo, hi]``.

    Returns the first ``(x_new, value_new)`` that passes the Armijo
    sufficient-increase rule, or None.  ``evaluate`` returns -inf at
    infeasible points.
    """
    step = 1.0
    for _ in range(_ARMIJO_MAX_BACKTRACKS):
        x_new = np.clip(x + step * d, lo, hi)
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
    ``derivatives(x)`` its gradient, Hessian and a stationarity measure.
    Returns ``(x, iterations, converged)``; ``trail`` gets each ``(x, value)``.
    """
    value = evaluate(x)
    if trail is not None:
        trail.append((x, value))
    iters = 0
    for iters in range(1, max_iter + 1):
        g, hess, measure = derivatives(x)
        stationary = measure < _STAT_TOL * (1.0 + abs(value))
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


def estimate_pgd(
    ctx: LikelihoodContext,
    spec: BoxSpec,
    order: int,
    opts: PgdOptions | None = None,
) -> EstimationReport:
    """Active-set projected Newton ascent on the likelihood inside the box.

    The box ``alpha_0 >= EPS0``, ``|alpha_i| <= K_i alpha_0`` is the scale
    floor times a fixed box on the ratios ``u_i = alpha_i / alpha_0`` (within
    ``+-K_i``, or ``+-K_i / 2`` per part for complex data).  So the scale is
    maximized in closed form (:class:`ProfiledObjective`), and
    :func:`_newton_ascent` runs from white noise over the ratios alone (real
    and imaginary parts stacked) with exact derivatives.  Every iterate lies
    in the box, so the positive-definiteness certificate holds throughout.
    Loglik and gradient norm come from :class:`GsObjective` at the end.
    """
    opts = opts or PgdOptions()
    if spec.dim != ctx.p:
        raise ValueError("box dimension does not match the context")
    prof = ProfiledObjective(ctx, order)  # checks the order
    hi = np.tile(spec.k[:order] / 2.0, 2) if prof.is_complex else spec.k[:order]
    lo = -hi

    def value_at(x):
        try:
            return prof.value(x)
        except _INFEASIBLE:
            return -np.inf

    def derivatives(x):  # stationarity: the mapping norm of the gradient in alpha_i
        g, hess = prof.derivatives(x)
        return g, hess, np.linalg.norm(np.clip(x + g / prof.params(x).alpha0, lo, hi) - x)

    trail = [] if opts.track_iterates else None
    x, iters, converged = _newton_ascent(
        value_at, derivatives, np.zeros(hi.size), lo, hi, opts.max_iter, trail
    )
    alpha = prof.params(x)
    obj = GsObjective(ctx)
    # the same mapping norm in (alpha_0, u); the scale entry differentiates along (1, u)
    g = _stacked(obj.gradient(alpha, range(order + 1)))
    head = np.append(alpha.alpha0, x)
    step = np.append(g[0] + g[1:] @ x, g[1:])
    moved = np.clip(head + step, np.append(EPS0, lo), np.append(np.inf, hi))
    report = EstimationReport(
        alpha=alpha,
        order=order,
        loglik=obj.value(alpha),
        iterations=iters,
        converged=converged,
        family_id=spec.family_id,
        grad_norm=float(np.linalg.norm(moved - head)),
    )
    if trail is not None:
        report.extras["iterates"] = [prof.params(y) for y, _ in trail]
        report.extras["objectives"] = [value for _, value in trail]
    return report


def _barrier_fit(ctx, order, opts, log_slack, slack_derivatives) -> EstimationReport:
    """Log-barrier interior-point fit shared by the constraint sets.

    For a barrier weight ``mu`` shrinking by ``_MU_SHRINK`` per outer round,
    maximizes ``L + mu (log(alpha_0 - EPS0) + psi)`` over the real vector
    ``x = (alpha_0, Re a_1..a_order[, Im a_1..a_order])``, where
    ``psi = log_slack(alpha)`` is the constraint's log-slack (-inf when
    infeasible).  ``slack_derivatives(pack, x)`` returns the gradient and
    Hessian of ``psi`` in ``x``, where ``pack`` maps ``x`` to GS parameters.
    Every inner round is :func:`_newton_ascent` with damped Newton steps
    (Boyd & Vandenberghe, Convex Optimization, 11.3): the likelihood Hessian
    is forward-differenced from its analytic gradient and the scale
    barrier's curvature is exact.  The barriers keep every iterate strictly
    feasible, hence positive definite.
    """
    opts = opts or BarrierOptions()
    p = ctx.p
    if not 1 <= order <= p - 1:
        raise ValueError(f"order must lie in [1, {p - 1}], got {order}")
    support = tuple(range(order + 1))
    obj = GsObjective(ctx)
    is_complex = np.iscomplexobj(ctx.scm)
    size = 2 * order + 1 if is_complex else order + 1
    lo, hi = np.full(size, -np.inf), np.full(size, np.inf)

    def pack(x):
        coef = x[1 : order + 1] + 1j * x[order + 1 :] if is_complex else x[1:]
        rest = np.zeros(p - 1, dtype=coef.dtype)
        rest[:order] = coef
        return GsParams(x[0], rest)

    def loglik_grad(x):
        return _stacked(obj.gradient(pack(x), support))

    x = np.zeros(size)
    x[0] = max(1.0 / max(ctx.trace_scale, 1e-300), EPS0)  # white noise
    mu = _MU0
    total_iters = 0
    converged = False
    for _ in range(opts.outer_iters):

        def phi(x, mu=mu):
            if x[0] <= EPS0:
                return -np.inf
            a = pack(x)
            slack = log_slack(a)
            if not np.isfinite(slack):
                return -np.inf
            try:
                base = obj.value(a)
            except _INFEASIBLE:
                return -np.inf
            return base + mu * (np.log(x[0] - EPS0) + slack)

        def derivatives(x, mu=mu):
            g_lik = loglik_grad(x)
            s_grad, s_hess = slack_derivatives(pack, x)
            g = g_lik + mu * s_grad
            g[0] += mu / (x[0] - EPS0)
            hess = _fd_jacobian(loglik_grad, x, g_lik) + mu * s_hess
            hess[0, 0] -= mu / (x[0] - EPS0) ** 2
            return g, hess, float(np.linalg.norm(g))

        x, iters, converged = _newton_ascent(phi, derivatives, x, lo, hi, opts.inner_max_iter)
        total_iters += iters
        mu *= _MU_SHRINK
    alpha = pack(x)
    value = obj.value(alpha)
    g = np.array(obj.gradient(alpha, support), copy=True)
    if alpha.alpha0 <= EPS0 * (1.0 + 1e-9) and np.real(g[0]) < 0:
        g[0] = 0.0
    return EstimationReport(
        alpha=alpha,
        order=order,
        loglik=value,
        iterations=total_iters,
        converged=converged,
        grad_norm=float(np.linalg.norm(g)),
    )


def estimate_frob(
    ctx: LikelihoodContext,
    order: int = 1,
    opts: BarrierOptions | None = None,
) -> EstimationReport:
    """Interior-point fit under the Frobenius surrogate constraint.

    The barrier ``log(-c)`` keeps ``c = gain^2 - 1 + EPS_F`` strictly
    negative.  Its gradient and Hessian come from the exact gradient of
    ``c``: only the Hessian of ``c`` is forward-differenced, the singular
    term ``-grad c grad c^T / c^2`` is exact.  One Newton iteration costs
    ``order + 2`` O(P^2) passes of the likelihood gradient and of
    ``frob_constraint`` (``2 order + 2`` for complex data).
    """

    def log_slack(a):
        fval = frobenius_gain_sq(a) - 1.0 + EPS_F
        return np.log(-fval) if fval < 0 else -np.inf

    support = range(order + 1)

    def slack_derivatives(pack, x):
        def c_grad(y):
            return _stacked(frob_constraint(pack(y), support)[1])

        c, dc = frob_constraint(pack(x), support)
        dc = _stacked(dc)
        return dc / c, _fd_jacobian(c_grad, x, dc) / c - np.outer(dc, dc) / c**2

    report = _barrier_fit(ctx, order, opts, log_slack, slack_derivatives)
    report.extras["constraint_value"] = frobenius_gain_sq(report.alpha) - 1.0 + EPS_F
    return report


def _pd_slack_logdet(alpha: GsParams, floor: float):
    """log det(assembled - floor * I), or -inf when not feasible."""
    gam = gs_assemble(alpha)
    shifted = gam - floor * np.eye(alpha.dim)
    try:
        chol = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return -np.inf
    return 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def estimate_eig(
    ctx: LikelihoodContext,
    order: int = 1,
    opts: BarrierOptions | None = None,
) -> EstimationReport:
    """Interior-point fit under exact eigenvalue constraints.

    The barrier is ``log det(Gamma - floor I)``.  Its gradient is
    forward-differenced along each real coordinate and its Hessian is the
    forward-difference Jacobian of that gradient: ``(order + 2)^2`` Cholesky
    factorizations per Newton iteration, ``(2 order + 2)^2`` for complex
    data.  Reference implementation for cross-validating the cheaper
    constraint sets; refuses dimensions where that work is no longer
    acceptable.
    """
    if ctx.p > EIG_DIM_LIMIT:
        raise ValueError(
            f"eigenvalue-constrained estimation limited to dimension {EIG_DIM_LIMIT}"
        )
    floor = EPS_EIG * ctx.trace_scale

    def slack_derivatives(pack, x):
        def slack_grad(y):
            base = _pd_slack_logdet(pack(y), floor)
            out = np.empty(y.size)
            for j in range(y.size):
                bumped = y.copy()
                bumped[j] += 1e-7 * max(1.0, abs(y[j]))
                out[j] = (_pd_slack_logdet(pack(bumped), floor) - base) / (bumped[j] - y[j])
            return out

        g = slack_grad(x)
        return g, _fd_jacobian(slack_grad, x, g)

    return _barrier_fit(ctx, order, opts, lambda a: _pd_slack_logdet(a, floor), slack_derivatives)


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
    floor = 1e-12 * max(ctx.trace_scale, 1e-300)
    if sigma2 < floor:
        sigma2 = floor
        extras["variance_floored"] = True
    rest = np.zeros(p - 1, dtype=a_hat.dtype if order else float)
    rest[:order] = -a_hat / sigma2
    alpha = project_box(GsParams(1.0 / sigma2, rest), spec)
    extras["a_hat"] = a_hat
    extras["sigma2_hat"] = float(sigma2)
    value = np.nan
    if with_loglik:
        obj = GsObjective(ctx)
        value = obj.value(alpha)
    return EstimationReport(
        alpha=alpha,
        order=order,
        loglik=value,
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
    for i in range(1, cap + 1):
        order = i - 1
        try:
            rep = white_noise_report(ctx) if order == 0 else fit(ctx, order)
        except _INFEASIBLE:
            strikes += 1
            if strikes >= _PATIENCE:
                break
            continue
        score = i * log_n - 0.5 * ctx.n * rep.loglik
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

    A later family wins only by more than the Newton fits' stop tolerance
    ``_REL_TOL max(1, |L|)``: smaller gaps are rounding noise, and ties keep
    the earlier family.
    """
    best = None
    for rep in reports:
        if best is None or rep.loglik > best.loglik + _REL_TOL * max(1.0, abs(best.loglik)):
            best = rep
    return best
