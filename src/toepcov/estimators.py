"""Positive-definiteness guaranteed likelihood estimators in GS coordinates.

Four fitting routes share one contract (the returned parameters always
assemble to a positive definite matrix):

* active-set projected Newton ascent inside certified box constraints,
* log-barrier interior point with damped Newton steps under the Frobenius
  surrogate constraint, whose exact gradient costs O(P^2),
* the same barrier driver with exact eigenvalue constraints (small P only),
* a closed-form conditional-likelihood least-squares fit projected onto the
  box.

Both Newton fits share one eigenvalue-floored Newton step and one Armijo
backtracking line search.

Order selection (BIC) and bound-family selection wrappers sit on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .constraints import (
    DEFAULT_FAMILIES,
    EIG_DIM_LIMIT,
    BoxSpec,
    ToleranceSet,
    box_spec_for,
    frob_constraint,
    frobenius_gain_sq,
    project_box,
)
from .likelihood import GsObjective, LikelihoodContext
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
    rel_tol: float = 1e-8
    stat_tol: float = 1e-5  # stationarity: projected gradient below stat_tol * (1 + |L|)
    eps0: float = 1e-6
    track_iterates: bool = False


@dataclass(frozen=True)
class BarrierOptions:
    outer_iters: int = 8
    mu0: float = 1.0
    mu_shrink: float = 0.1
    inner_max_iter: int = 150
    inner_rel_tol: float = 1e-8
    stat_tol: float = 1e-5
    tolerances: ToleranceSet = field(default_factory=ToleranceSet)


def _white_noise_start(ctx: LikelihoodContext, eps0: float) -> GsParams:
    scale = max(ctx.trace_scale, 1e-300)
    a0 = max(1.0 / scale, eps0)
    rest = np.zeros(ctx.p - 1)
    if np.iscomplexobj(ctx.scm):
        rest = rest.astype(complex)
    return GsParams(a0, rest)


def white_noise_report(ctx: LikelihoodContext, eps0: float = 1e-6) -> EstimationReport:
    """Closed-form order-zero fit: inverse of the average diagonal power."""
    trace = ctx.trace_scale * ctx.p
    a0 = max(ctx.p / max(trace, 1e-300), eps0)
    alpha = GsParams(a0, np.zeros(ctx.p - 1))
    value = ctx.p * np.log(a0) - a0 * trace
    g0 = ctx.p / a0 - trace
    if a0 <= eps0 * (1.0 + 1e-9) and g0 < 0:
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


def _fd_jacobian(fn, x, f0, idx, lo, hi):
    """Forward-difference Jacobian of ``fn`` (value ``f0`` at ``x``) on ``idx``.

    Each probe moves toward the roomier side of ``[lo, hi]``, so it stays
    inside.
    """
    jac = np.empty((idx.size, idx.size))
    for col, j in enumerate(idx):
        h = 1e-6 * max(1.0, abs(x[j]))
        probe = x.copy()
        probe[j] = np.clip(x[j] + (h if hi[j] - x[j] >= x[j] - lo[j] else -h), lo[j], hi[j])
        jac[:, col] = (fn(probe)[idx] - f0[idx]) / (probe[j] - x[j])
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


def estimate_pgd(
    ctx: LikelihoodContext,
    spec: BoxSpec,
    order: int,
    opts: PgdOptions | None = None,
) -> EstimationReport:
    """Active-set projected Newton ascent on the likelihood inside the box.

    Works on the real vector ``x = (s, u)``: the scale ``s = alpha_0`` and
    the ratios ``u_i = alpha_i / alpha_0`` (real and imaginary parts
    stacked for complex data).  The box is fixed there (``s >= eps0``, each
    ratio within ``+-K_i``, or ``+-K_i / 2`` per part), so projection is a
    clip.  Each iteration (Bertsekas, SIAM J. Control Optim. 1982) holds
    coordinates at a bound whose gradient points outward, takes a Newton
    step on the others, clips it to the box and halves it until the Armijo
    rule holds.  The fit starts at the white-noise point; every iterate lies
    in the box, so the positive-definiteness certificate holds throughout.
    """
    opts = opts or PgdOptions()
    p = ctx.p
    if not 1 <= order <= p - 1:
        raise ValueError(f"order must lie in [1, {p - 1}], got {order}")
    if spec.dim != p:
        raise ValueError("box dimension does not match the context")
    support = tuple(range(order + 1))
    obj = GsObjective(ctx)
    is_complex = np.iscomplexobj(ctx.scm)
    k = np.tile(spec.k[:order] / 2.0, 2) if is_complex else spec.k[:order]
    lo = np.concatenate(([opts.eps0], -k))
    hi = np.concatenate(([np.inf], k))
    x = np.zeros(k.size + 1)
    x[0] = _white_noise_start(ctx, opts.eps0).alpha0

    def pack(x):
        u = x[1 : order + 1] + 1j * x[order + 1 :] if is_complex else x[1:]
        rest = np.zeros(p - 1, dtype=u.dtype)
        rest[:order] = x[0] * u
        return GsParams(x[0], rest)

    def grad(x):
        g = _stacked(obj.gradient(pack(x), support))
        return np.concatenate(([g[0] + g[1:] @ x[1:]], x[0] * g[1:]))

    def value_at(x):
        try:
            return obj.value(pack(x))
        except _INFEASIBLE:
            return -np.inf

    def mapping_norm(x, g):
        """Projected-gradient mapping norm, ratio entries without the factor s."""
        step = np.concatenate((g[:1], g[1:] / x[0]))
        return float(np.linalg.norm(np.clip(x + step, lo, hi) - x))

    alpha = pack(x)
    value = obj.value(alpha)
    track = opts.track_iterates
    iterates = [alpha] if track else None
    values = [value] if track else None
    converged = False
    iters = 0
    for iters in range(1, opts.max_iter + 1):
        g = grad(x)
        stationary = mapping_norm(x, g) < opts.stat_tol * (1.0 + abs(value))
        free = ~(((x <= lo) & (g <= 0)) | ((x >= hi) & (g >= 0)))
        if np.linalg.norm(g[free]) < 1e-14 * (1.0 + abs(value)):
            converged = True
            break
        idx = np.flatnonzero(free)
        d = np.zeros_like(x)
        d[idx] = _newton_step(_fd_jacobian(grad, x, g, idx, lo, hi), g[idx])
        accepted = _line_search(value_at, x, d, value, g, lo, hi)
        if accepted is None:
            converged = True
            break
        x, new_value = accepted
        alpha = pack(x)
        improvement = new_value - value
        value = new_value
        if track:
            iterates.append(alpha)
            values.append(value)
        if improvement < opts.rel_tol * max(1.0, abs(value)) and stationary:
            converged = True
            break
    report = EstimationReport(
        alpha=alpha,
        order=order,
        loglik=value,
        iterations=iters,
        converged=converged,
        family_id=spec.family_id,
        grad_norm=mapping_norm(x, grad(x)),
    )
    if track:
        report.extras["iterates"] = iterates
        report.extras["objectives"] = values
    return report


def _barrier_options(tolset, opts) -> BarrierOptions:
    opts = opts or (BarrierOptions(tolerances=tolset) if tolset else BarrierOptions())
    if tolset is not None and opts.tolerances is not tolset:
        opts = replace(opts, tolerances=tolset)
    return opts


def _barrier_fit(ctx, order, opts, log_slack, slack_derivatives) -> EstimationReport:
    """Log-barrier interior-point fit shared by the constraint sets.

    For a barrier weight ``mu`` shrinking by ``mu_shrink`` per outer round,
    maximizes ``L + mu (log(alpha_0 - eps0) + psi)`` over the real vector
    ``x = (alpha_0, Re a_1..a_order[, Im a_1..a_order])``, where
    ``psi = log_slack(alpha)`` is the constraint's log-slack (-inf when
    infeasible).  ``slack_derivatives(pack, x, jacobian)`` returns the
    gradient and Hessian of ``psi`` in ``x``; ``pack`` maps ``x`` to GS
    parameters and ``jacobian(fn, x, fn(x))`` forward-differences a vector
    function.  Every inner iteration is a damped Newton step
    (Boyd & Vandenberghe, Convex Optimization, 11.3): the likelihood Hessian
    is forward-differenced from its analytic gradient, the scale barrier's
    curvature is exact, and the step halves until the Armijo rule holds.
    The barriers keep every iterate strictly feasible, hence positive
    definite.
    """
    tol = opts.tolerances
    p = ctx.p
    if not 1 <= order <= p - 1:
        raise ValueError(f"order must lie in [1, {p - 1}], got {order}")
    support = tuple(range(order + 1))
    obj = GsObjective(ctx)
    is_complex = np.iscomplexobj(ctx.scm)
    size = 2 * order + 1 if is_complex else order + 1
    idx = np.arange(size)
    lo = np.full(size, -np.inf)
    lo[0] = tol.eps0
    hi = np.full(size, np.inf)

    def pack(x):
        coef = x[1 : order + 1] + 1j * x[order + 1 :] if is_complex else x[1:]
        rest = np.zeros(p - 1, dtype=coef.dtype)
        rest[:order] = coef
        return GsParams(x[0], rest)

    def loglik_grad(x):
        return _stacked(obj.gradient(pack(x), support))

    def jacobian(fn, x, f0):
        return _fd_jacobian(fn, x, f0, idx, lo, hi)

    x = np.zeros(size)
    x[0] = _white_noise_start(ctx, tol.eps0).alpha0
    mu = opts.mu0
    total_iters = 0
    converged = False
    for _ in range(opts.outer_iters):
        converged = False

        def phi(x, mu=mu):
            if x[0] <= tol.eps0:
                return -np.inf
            a = pack(x)
            slack = log_slack(a)
            if not np.isfinite(slack):
                return -np.inf
            try:
                base = obj.value(a)
            except _INFEASIBLE:
                return -np.inf
            return base + mu * (np.log(x[0] - tol.eps0) + slack)

        value = phi(x)
        iters = 0
        for iters in range(1, opts.inner_max_iter + 1):
            g_lik = loglik_grad(x)
            s_grad, s_hess = slack_derivatives(pack, x, jacobian)
            g = g_lik + mu * s_grad
            g[0] += mu / (x[0] - tol.eps0)
            g_norm = float(np.linalg.norm(g))
            stationary = g_norm < opts.stat_tol * (1.0 + abs(value))
            if g_norm < 1e-14 * (1.0 + abs(value)):
                converged = True
                break
            hess = jacobian(loglik_grad, x, g_lik) + mu * s_hess
            hess[0, 0] -= mu / (x[0] - tol.eps0) ** 2
            accepted = _line_search(phi, x, _newton_step(hess, g), value, g, lo, hi)
            if accepted is None:
                converged = True
                break
            x, new_value = accepted
            improvement = new_value - value
            value = new_value
            if improvement < opts.inner_rel_tol * max(1.0, abs(value)) and stationary:
                converged = True
                break
        total_iters += iters
        mu *= opts.mu_shrink
    alpha = pack(x)
    value = obj.value(alpha)
    g = np.array(obj.gradient(alpha, support), copy=True)
    if alpha.alpha0 <= tol.eps0 * (1.0 + 1e-9) and np.real(g[0]) < 0:
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
    tolset: ToleranceSet | None = None,
    order: int = 1,
    opts: BarrierOptions | None = None,
) -> EstimationReport:
    """Interior-point fit under the Frobenius surrogate constraint.

    The barrier ``log(-c)`` keeps ``c = gain^2 - 1 + eps_f`` strictly
    negative.  Its gradient and Hessian come from the exact gradient of
    ``c``: only the Hessian of ``c`` is forward-differenced, the singular
    term ``-grad c grad c^T / c^2`` is exact.  One Newton iteration costs
    ``order + 2`` O(P^2) passes of the likelihood gradient and of
    ``frob_constraint`` (``2 order + 2`` for complex data).
    """
    opts = _barrier_options(tolset, opts)
    eps_f = opts.tolerances.eps_f

    def log_slack(a):
        fval = frobenius_gain_sq(a) - 1.0 + eps_f
        return np.log(-fval) if fval < 0 else -np.inf

    support = range(order + 1)

    def slack_derivatives(pack, x, jacobian):
        def c_grad(y):
            return _stacked(frob_constraint(pack(y), eps_f, support)[1])

        c, dc = frob_constraint(pack(x), eps_f, support)
        dc = _stacked(dc)
        return dc / c, jacobian(c_grad, x, dc) / c - np.outer(dc, dc) / c**2

    report = _barrier_fit(ctx, order, opts, log_slack, slack_derivatives)
    report.extras["constraint_value"] = frobenius_gain_sq(report.alpha) - 1.0 + eps_f
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
    tolset: ToleranceSet | None = None,
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
    opts = _barrier_options(tolset, opts)
    floor = opts.tolerances.eps_eig * ctx.trace_scale

    def slack_derivatives(pack, x, jacobian):
        def slack_grad(y):
            base = _pd_slack_logdet(pack(y), floor)
            out = np.empty(y.size)
            for j in range(y.size):
                bumped = y.copy()
                bumped[j] += 1e-7 * max(1.0, abs(y[j]))
                out[j] = (_pd_slack_logdet(pack(bumped), floor) - base) / (bumped[j] - y[j])
            return out

        g = slack_grad(x)
        return g, jacobian(slack_grad, x, g)

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
    eps0: float = 1e-6,
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
    alpha = project_box(GsParams(1.0 / sigma2, rest), spec, eps0)
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


def tune_order(
    fit,
    ctx: LikelihoodContext,
    n: int | None = None,
    max_support: int | None = None,
    eps0: float = 1e-6,
    patience: int = 5,
) -> EstimationReport:
    """Pick the AR order by BIC over growing supports.

    ``fit(ctx, order)`` must return an :class:`EstimationReport` for
    ``order >= 1``; the order-zero candidate is the closed-form white-noise
    fit.  The score penalizes each free parameter by ``log N`` against the
    full-data log-likelihood ``N/2`` times the fitted objective, so the fit
    term grows with the sample count as consistency requires.  Scanning
    stops after ``patience`` consecutive candidates without improvement;
    ties keep the smaller order.
    """
    n = ctx.n if n is None else n
    if n < 2:
        raise ValueError("BIC order tuning needs at least two samples")
    p = ctx.p
    cap = min(p - 1, int(round(2.0 * np.sqrt(p) + 8.0)))
    if max_support is not None:
        cap = min(cap, max_support)
    log_n = np.log(n)
    best = None
    best_score = np.inf
    strikes = 0
    for i in range(1, cap + 1):
        order = i - 1
        try:
            rep = white_noise_report(ctx, eps0) if order == 0 else fit(ctx, order)
        except _INFEASIBLE:
            strikes += 1
            if strikes >= patience:
                break
            continue
        score = i * log_n - 0.5 * n * rep.loglik
        if score < best_score:
            best, best_score, strikes = rep, score, 0
        else:
            strikes += 1
            if strikes >= patience:
                break
    if best is None:
        raise RuntimeError("order tuning produced no feasible candidate")
    best.extras["bic_score"] = float(best_score)
    return best


def tune_box_family(
    fit_factory,
    ctx: LikelihoodContext,
    families=DEFAULT_FAMILIES,
    n: int | None = None,
    eps_eta: float = 1e-3,
    eps0: float = 1e-6,
    max_support: int | None = None,
) -> EstimationReport:
    """Run the estimator under each bound family and keep the best fit.

    ``fit_factory(spec)`` returns a ``fit(ctx, order)`` callable bound to
    the family's box.  The winner maximizes the log-likelihood; ties keep
    the earlier family.
    """
    if not families:
        raise ValueError("at least one bound family is required")
    best = None
    for family in families:
        spec = box_spec_for(family, ctx.p, eps_eta)
        rep = tune_order(fit_factory(spec), ctx, n=n, eps0=eps0, max_support=max_support)
        if rep.family_id is None:
            rep.family_id = spec.family_id
        if best is None or rep.loglik > best.loglik:
            best = rep
    return best
