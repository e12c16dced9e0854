"""Positive-definiteness guaranteed likelihood estimators in GS coordinates.

Four fitting routes share one contract (the returned parameters always
assemble to a positive definite matrix):

* projected gradient ascent inside certified box constraints,
* log-barrier interior point with the Frobenius surrogate constraint,
* the same barrier loop with exact eigenvalue constraints (small P only),
* a closed-form conditional-likelihood least-squares fit projected onto the
  box.

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
    armijo_init: float = 1.0
    armijo_shrink: float = 0.5
    armijo_c1: float = 1e-4
    armijo_max_backtracks: int = 40
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
    armijo_shrink: float = 0.5
    armijo_c1: float = 1e-4
    armijo_max_backtracks: int = 40
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


def _ratio_gradient(g, u, support):
    """Map the parameter-space gradient to scale/ratio coordinates.

    With trailing parameters written as scale times ratio, the feasible set
    becomes a fixed box over the ratios, where componentwise clipping is the
    exact feasible-direction projection (the parameter-space set is a cone,
    there the clip can produce non-ascent directions).
    """
    g = np.asarray(g)
    rest_pos = [pos for pos, i in enumerate(support) if i != 0]
    rest_idx = [support[pos] - 1 for pos in rest_pos]
    g_rest = g[rest_pos]
    g_s = float(np.real(g[support.index(0)]))
    if rest_idx:
        g_s += float(np.real(np.vdot(g_rest, u[rest_idx])))
    return g_s, g_rest, rest_idx


def _clip_ratio_dir(g_s, g_u, s, u_vals, k_vals, eps0):
    """Exact feasible-direction clip in scale/ratio coordinates."""
    if s <= eps0 * (1.0 + 1e-12) and g_s < 0:
        g_s = 0.0
    gu = np.array(g_u, copy=True)
    if np.iscomplexobj(gu) or np.iscomplexobj(u_vals):
        half = k_vals / 2.0
        re, im = gu.real.copy(), gu.imag.copy()
        re[(u_vals.real >= half) & (re > 0)] = 0.0
        re[(u_vals.real <= -half) & (re < 0)] = 0.0
        im[(u_vals.imag >= half) & (im > 0)] = 0.0
        im[(u_vals.imag <= -half) & (im < 0)] = 0.0
        gu = re + 1j * im
    else:
        gu[(u_vals >= k_vals) & (gu > 0)] = 0.0
        gu[(u_vals <= -k_vals) & (gu < 0)] = 0.0
    return g_s, gu


def _clamp_ratios(u_vals, k_vals):
    if np.iscomplexobj(u_vals):
        half = k_vals / 2.0
        return np.clip(u_vals.real, -half, half) + 1j * np.clip(u_vals.imag, -half, half)
    return np.clip(u_vals, -k_vals, k_vals)


class _RatioState:
    """Scale/ratio view of the box-constrained ascent."""

    def __init__(self, obj, spec, support, eps0):
        self.obj = obj
        self.spec = spec
        self.support = support
        self.rest_idx = [i - 1 for i in support if i != 0]
        self.eps0 = eps0

    def pack(self, s, u):
        return GsParams(s, s * u)

    def split(self, g, u):
        return _ratio_gradient(g, u, self.support)

    def mapping_norm(self, s, u, g_s, g_u):
        s_moved = max(s + g_s, self.eps0)
        u_moved = u.copy()
        if self.rest_idx:
            u_moved[self.rest_idx] = _clamp_ratios(
                u[self.rest_idx] + g_u, self.spec.k[self.rest_idx]
            )
        return float(np.hypot(s_moved - s, np.linalg.norm(u_moved - u)))


def _coordinate_polish(state, s, u, value, stat_tol, max_passes=12):
    """Safeguarded per-coordinate Newton polish near stiff box corners.

    The certified box keeps a margin below one on the Frobenius gain, so
    corners can sit close to the positive-definiteness cliff where plain
    gradient steps give improvements below the floating-point resolution of
    the objective.  A handful of one-dimensional Newton steps (curvature by
    differencing the analytic gradient) removes the residual gradient there.
    """
    obj, spec, support, eps0 = state.obj, state.spec, state.support, state.eps0
    rest_idx = state.rest_idx
    coords = ["s"] + list(rest_idx)
    for _ in range(max_passes):
        alpha = state.pack(s, u)
        g_s, g_u, _ = state.split(obj.gradient(alpha, support), u)
        if state.mapping_norm(s, u, g_s, g_u) < stat_tol * (1.0 + abs(value)):
            break
        moved = False
        for c in coords:
            alpha = state.pack(s, u)
            g_s, g_u, _ = state.split(obj.gradient(alpha, support), u)
            gc = g_s if c == "s" else g_u[rest_idx.index(c)]
            if abs(gc) < 1e-14 * (1.0 + abs(value)):
                continue
            base = s if c == "s" else u[c]
            h = 1e-6 * max(1.0, abs(base))
            curv = None
            for sign in (1.0, -1.0):
                probe_s, probe_u = s, u.copy()
                if c == "s":
                    probe_s = max(s + sign * h, eps0)
                else:
                    probe_u[c] = base + sign * h
                    probe_u[c] = _clamp_ratios(
                        probe_u[c : c + 1], spec.k[c : c + 1]
                    )[0]
                try:
                    gp_s, gp_u, _ = state.split(
                        obj.gradient(state.pack(probe_s, probe_u), support), probe_u
                    )
                except _INFEASIBLE:
                    continue
                gp = gp_s if c == "s" else gp_u[rest_idx.index(c)]
                dx = (probe_s - s) if c == "s" else (probe_u[c] - base)
                if abs(dx) > 0:
                    curv = (gp - gc) / dx
                    break
            denom = max(abs(np.real(curv)) if curv is not None else 0.0, 1e-8)
            delta = np.real(gc) / denom
            for _ in range(12):
                cand_s, cand_u = s, u.copy()
                if c == "s":
                    cand_s = max(s + delta, eps0)
                else:
                    cand_u[c] = _clamp_ratios(
                        np.array([u[c] + delta]), spec.k[c : c + 1]
                    )[0]
                try:
                    cand_value = obj.value(state.pack(cand_s, cand_u))
                except _INFEASIBLE:
                    cand_value = -np.inf
                if cand_value > value:
                    s, u, value = cand_s, cand_u, cand_value
                    moved = True
                    break
                delta *= 0.5
        if not moved:
            break
    return s, u, value


def estimate_pgd(
    ctx: LikelihoodContext,
    spec: BoxSpec,
    order: int,
    opts: PgdOptions | None = None,
) -> EstimationReport:
    """Projected gradient ascent on the likelihood inside the box.

    Works in scale/ratio coordinates (the box is fixed there, so the
    feasible-direction clip is exact), starts at the always-feasible
    white-noise point, and backtracks with the Armijo rule.  Every iterate
    lies in the box, so the positive-definiteness certificate holds
    throughout.
    """
    opts = opts or PgdOptions()
    p = ctx.p
    if not 1 <= order <= p - 1:
        raise ValueError(f"order must lie in [1, {p - 1}], got {order}")
    if spec.dim != p:
        raise ValueError("box dimension does not match the context")
    support = tuple(range(order + 1))
    obj = GsObjective(ctx)
    alpha = project_box(_white_noise_start(ctx, opts.eps0), spec, opts.eps0)
    state = _RatioState(obj, spec, support, opts.eps0)
    rest_idx = state.rest_idx
    s = alpha.alpha0
    u = alpha.alpha_rest / s
    value = obj.value(alpha)
    track = opts.track_iterates
    iterates = [alpha] if track else None
    values = [value] if track else None
    converged = False
    iters = 0
    for iters in range(1, opts.max_iter + 1):
        g = obj.gradient(alpha, support)
        g_s, g_u, _ = state.split(g, u)
        pg_norm = state.mapping_norm(s, u, g_s, g_u)
        stationary = pg_norm < opts.stat_tol * (1.0 + abs(value))
        g_s_c, g_u_c = _clip_ratio_dir(
            g_s, g_u, s, u[rest_idx] if rest_idx else u[:0], spec.k[rest_idx], opts.eps0
        )
        dir_norm = np.hypot(abs(g_s_c), np.linalg.norm(g_u_c))
        if dir_norm < 1e-14 * (1.0 + abs(value)):
            converged = True
            break
        step = opts.armijo_init
        accepted = None
        for _ in range(opts.armijo_max_backtracks):
            s_new = max(s + step * g_s_c, opts.eps0)
            u_new = u.copy()
            if rest_idx:
                u_new[rest_idx] = _clamp_ratios(u[rest_idx] + step * g_u_c, spec.k[rest_idx])
            cand = state.pack(s_new, u_new)
            gain = g_s_c * (s_new - s)
            if rest_idx:
                gain += float(np.real(np.vdot(g_u_c, u_new[rest_idx] - u[rest_idx])))
            try:
                cand_value = obj.value(cand)
            except _INFEASIBLE:
                cand_value = -np.inf
            if cand_value > value and cand_value >= value + opts.armijo_c1 * max(gain, 0.0):
                accepted = (cand, s_new, u_new, cand_value)
                break
            step *= opts.armijo_shrink
        if accepted is None:
            converged = True
            break
        alpha, s, u, new_value = accepted
        improvement = new_value - value
        value = new_value
        if track:
            iterates.append(alpha)
            values.append(value)
        if improvement < opts.rel_tol * max(1.0, abs(value)) and stationary:
            converged = True
            break
    g = obj.gradient(alpha, support)
    g_s, g_u, _ = state.split(g, u)
    if not np.iscomplexobj(alpha.full) and state.mapping_norm(s, u, g_s, g_u) >= opts.stat_tol * (
        1.0 + abs(value)
    ):
        s, u, value = _coordinate_polish(state, s, u, value, opts.stat_tol)
        alpha = state.pack(s, u)
        if track:
            iterates.append(alpha)
            values.append(value)
        g = obj.gradient(alpha, support)
        g_s, g_u, _ = state.split(g, u)
    report = EstimationReport(
        alpha=alpha,
        order=order,
        loglik=value,
        iterations=iters,
        converged=converged,
        family_id=spec.family_id,
        grad_norm=state.mapping_norm(s, u, g_s, g_u),
    )
    if track:
        report.extras["iterates"] = iterates
        report.extras["objectives"] = values
    return report


def _barrier_ascent(alpha, support, phi, phi_grad, opts: BarrierOptions):
    """Backtracking gradient ascent on one barrier subproblem."""
    value = phi(alpha)
    iters = 0
    converged = False
    for iters in range(1, opts.inner_max_iter + 1):
        g = phi_grad(alpha)
        g_norm = float(np.linalg.norm(g))
        stationary = g_norm < opts.stat_tol * (1.0 + abs(value))
        if g_norm < 1e-14 * (1.0 + abs(value)):
            converged = True
            break
        step = 1.0
        accepted = None
        for _ in range(opts.armijo_max_backtracks):
            cand_full = alpha.full.astype(np.result_type(alpha.full.dtype, g.dtype), copy=True)
            for pos, i in enumerate(support):
                cand_full[i] = cand_full[i] + step * g[pos]
            cand_full[0] = np.real(cand_full[0])
            if cand_full[0] > 0:  # barrier handles the eps0 floor
                cand = GsParams.from_full(cand_full)
                cand_value = phi(cand)
                gain = float(np.real(np.vdot(g, (cand.full - alpha.full)[list(support)])))
                if np.isfinite(cand_value) and cand_value > value and cand_value >= value + opts.armijo_c1 * max(gain, 0.0):
                    accepted = (cand, cand_value)
                    break
            step *= opts.armijo_shrink
        if accepted is None:
            converged = True
            break
        alpha, new_value = accepted
        improvement = new_value - value
        value = new_value
        if improvement < opts.inner_rel_tol * max(1.0, abs(value)) and stationary:
            converged = True
            break
    return alpha, value, iters, converged


def _barrier_options(tolset, opts) -> BarrierOptions:
    opts = opts or (BarrierOptions(tolerances=tolset) if tolset else BarrierOptions())
    if tolset is not None and opts.tolerances is not tolset:
        opts = replace(opts, tolerances=tolset)
    return opts


def _barrier_fit(ctx, order, opts, log_slack, slack_grad) -> EstimationReport:
    """Log-barrier interior-point fit shared by the constraint sets.

    ``log_slack(a)`` is the constraint's log-slack (-inf when infeasible)
    and ``slack_grad(a, mu, support)`` mu times its gradient over the
    support.  Barriers on that slack and on the scale's distance to its
    floor keep every iterate strictly feasible, hence positive definite;
    the barrier weight shrinks by ``mu_shrink`` per outer round.
    """
    tol = opts.tolerances
    p = ctx.p
    if not 1 <= order <= p - 1:
        raise ValueError(f"order must lie in [1, {p - 1}], got {order}")
    support = tuple(range(order + 1))
    obj = GsObjective(ctx)
    alpha = _white_noise_start(ctx, tol.eps0)
    mu = opts.mu0
    total_iters = 0
    converged = False
    for _ in range(opts.outer_iters):

        def phi(a, mu=mu):
            if a.alpha0 <= tol.eps0:
                return -np.inf
            slack = log_slack(a)
            if not np.isfinite(slack):
                return -np.inf
            try:
                base = obj.value(a)
            except _INFEASIBLE:
                return -np.inf
            return base + mu * (np.log(a.alpha0 - tol.eps0) + slack)

        def phi_grad(a, mu=mu):
            g = np.array(obj.gradient(a, support), copy=True)
            g += slack_grad(a, mu, support)
            g[0] += mu / (a.alpha0 - tol.eps0)
            return g

        alpha, _, inner_iters, converged = _barrier_ascent(alpha, support, phi, phi_grad, opts)
        total_iters += inner_iters
        mu *= opts.mu_shrink
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

    The barrier keeps the squared Frobenius gain strictly below one.
    """
    opts = _barrier_options(tolset, opts)
    eps_f = opts.tolerances.eps_f

    def log_slack(a):
        fval = frobenius_gain_sq(a) - 1.0 + eps_f
        return np.log(-fval) if fval < 0 else -np.inf

    def slack_grad(a, mu, support):
        fval, fgrad = frob_constraint(a, eps_f, support)
        return mu * fgrad / fval

    report = _barrier_fit(ctx, order, opts, log_slack, slack_grad)
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

    Reference implementation for cross-validating the cheaper constraint
    sets; refuses dimensions where the per-iteration eigenvalue work is no
    longer acceptable.
    """
    if ctx.p > EIG_DIM_LIMIT:
        raise ValueError(
            f"eigenvalue-constrained estimation limited to dimension {EIG_DIM_LIMIT}"
        )
    opts = _barrier_options(tolset, opts)
    floor = opts.tolerances.eps_eig * ctx.trace_scale

    def slack_grad(a, mu, support):
        base = _pd_slack_logdet(a, floor)
        full = a.full
        fd = np.zeros(len(support))
        for pos, i in enumerate(support):
            h = 1e-7 * max(1.0, abs(full[i]))
            bumped = full.astype(np.result_type(full.dtype, np.float64), copy=True)
            bumped[i] += h
            fd[pos] = (_pd_slack_logdet(GsParams.from_full(bumped), floor) - base) / h
        return mu * fd

    return _barrier_fit(ctx, order, opts, lambda a: _pd_slack_logdet(a, floor), slack_grad)


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
