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

from dataclasses import dataclass, field, replace

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
    strictly_inside_box,
)
from .likelihood import LikelihoodContext, _GsFactors, loglik
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
# and lands where the projected gradient is below _STAT_TOL (1 + |f|), where f
# is the objective: the likelihood's gain over white noise, plus any barrier; or
# the step's predicted gain g.d is below the objective's rounding,
# _ROUNDING (1 + |f|), so a line search could only follow rounding noise.
_REL_TOL = 1e-8
_STAT_TOL = 1e-5
_ROUNDING = 1e-14
# Barrier weight of the first outer round and its factor per round.
_MU0 = 1.0
_MU_SHRINK = 0.1
# Newton iterations of a fit without a barrier, and of each barrier round;
# barrier rounds per fit.
_MAX_ITER = 500
_BARRIER_MAX_ITER = 150
_BARRIER_ROUNDS = 8
# BIC order scan: candidates in a row without improvement before it stops.
_PATIENCE = 5


@dataclass
class EstimationReport:
    """Result of one estimator run; the GS parameters are canonical.

    ``grad_norm`` is the stationarity measure of the fitted likelihood: for
    the Newton fits, its projected gradient mapping norm in the coefficient
    ratios (the scale is maximized out); for the white-noise fit, the
    derivative in the scale; NaN for the closed-form ``pls`` fit.
    ``stationary`` says whether the coefficients are a stationary point of
    the unconstrained likelihood, which :func:`tune_box_family` needs to
    reuse a fit: for the Newton fits, whether the likelihood's gradient in
    the ratios, unprojected and barrier left out, is below ``_STAT_TOL (1 +
    |f|)``; for the closed-form fits, whether no bound clamped them (``pls``
    solves the conditional likelihood).
    """

    alpha: GsParams
    order: int
    loglik: float
    iterations: int
    converged: bool
    family_id: str | None = None
    grad_norm: float = np.nan
    stationary: bool = False
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
    track_iterates: bool = False


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
        stationary=True,
    )


def _newton_step(hess, g):
    """Newton ascent direction for gradient ``g`` and Hessian ``hess``.

    The Hessian is symmetrized and the eigenvalues of its negation floored,
    so the step is an ascent direction even where the objective is not
    concave.  A Hessian with no curvature at all leaves the gradient, which
    the clip and the line search bound.
    """
    lam, vec = np.linalg.eigh(-0.5 * (hess + hess.T))
    floor = _CURVATURE_FLOOR * np.abs(lam).max()
    d = g if floor == 0.0 else vec @ ((vec.T @ g) / np.maximum(lam, floor))
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


def _mapping_norm(x, g, lo, hi) -> float:
    """``|clip(x + g) - x|``, the projected gradient mapping norm of ``g`` at ``x``
    in ``[lo, hi]``: the Newton fits' stationarity measure."""
    return float(np.linalg.norm(np.clip(x + g, lo, hi) - x))


def _newton_ascent(evaluate, derivatives, x, lo, hi, max_iter, trail=None):
    """Active-set projected Newton ascent from ``x`` inside ``[lo, hi]``
    (Bertsekas, SIAM J. Control Optim. 1982): each iteration holds
    coordinates at a bound whose gradient points outward, takes a Newton
    step on the others, clips it to the box and halves it until the Armijo
    rule holds.  Where no clipped Newton step passes at a point that is not
    stationary (the clip cuts the steps of free coordinates near their
    bounds, and the gain with them), the iteration searches the projected
    gradient arc ``clip(x + t g)`` instead, which ascends for a small
    enough ``t``.
    ``evaluate(x)`` is the objective (-inf where infeasible),
    ``derivatives(x)`` its gradient and Hessian, asked for once per point;
    stationarity is measured by the gradient's :func:`_mapping_norm`.  A
    step whose predicted gain is at rounding level ends the ascent,
    converged, before any line search.  A step that gains little ends it,
    converged, only where the point it returns is stationary; from any
    other point the ascent carries on.
    Returns ``(x, iterations, converged)``; ``trail`` gets each ``(x, value)``.
    """
    value = evaluate(x)
    if trail is not None:
        trail.append((x, value))
    g, hess = derivatives(x)
    iters = 0
    for iters in range(1, max_iter + 1):
        stationary = _mapping_norm(x, g, lo, hi) < _STAT_TOL * (1.0 + abs(value))
        free = ~(((x <= lo) & (g <= 0)) | ((x >= hi) & (g >= 0)))
        rounding = _ROUNDING * (1.0 + abs(value))
        if np.linalg.norm(g[free]) < rounding:
            return x, iters, True
        idx = np.flatnonzero(free)
        d = np.zeros_like(x)
        d[idx] = _newton_step(hess[np.ix_(idx, idx)], g[idx])
        if g @ d < rounding:
            return x, iters, True
        accepted = _line_search(evaluate, x, d, value, g, lo, hi)
        if accepted is None and not stationary:
            accepted = _line_search(evaluate, x, g, value, g, lo, hi)
        if accepted is None:
            return x, iters, True
        x, new_value = accepted
        small_gain = new_value - value < _REL_TOL * max(1.0, abs(new_value))
        value = new_value
        if trail is not None:
            trail.append((x, value))
        g, hess = derivatives(x)
        if small_gain and _mapping_norm(x, g, lo, hi) < _STAT_TOL * (1.0 + abs(value)):
            return x, iters, True
    return x, iters, False


def _ratio_fit(prof, spec=None, barrier=None, trail=None) -> EstimationReport:
    """Newton fit of every iterative GS estimator, over the coefficient ratios.

    Maximizes ``L_c(u) + mu psi(u)`` over the real vector ``x`` of the ratios
    ``u = alpha_rest / alpha_0`` (real, then imaginary parts), the scale
    maximized in closed form (``prof``, the context's shared ``GsObjective``
    at the fit's order, compared through its scale-free ``value``).  Each
    round is :func:`_newton_ascent` inside the box ``spec`` (``|u_i| <=
    K_i``, ``K_i / 2`` per part for complex data; unbounded without one)
    from where the last stopped, and stops by its rule, which reads
    stationarity at the point it returns.  The first starts at white noise,
    ``x = 0``, which every barrier admits, or without a barrier at the
    objective's ``start`` clipped to the box if that beats white noise's 0,
    an evaluation the objective's memo serves again.  Without a ``barrier``
    there is one round at ``mu = 0`` of at most ``_MAX_ITER`` iterations.
    With one, ``barrier = (log_slack, slack_derivatives)``: ``psi =
    log_slack(u)`` is a constraint's log-slack (-inf when infeasible) and
    ``slack_derivatives(u)`` its exact gradient and Hessian in ``x``;
    ``_BARRIER_ROUNDS`` rounds of at most ``_BARRIER_MAX_ITER`` iterations
    each, ``mu`` starting at ``_MU0`` and shrinking by ``_MU_SHRINK`` per
    round.  The report reads the objective it maximized: ``loglik`` is
    ``L_c`` and ``grad_norm`` the likelihood's :func:`_mapping_norm` in
    ``x``, barrier left out, from the derivatives the objective's memo holds
    where the last round stopped; ``stationary`` reads the same gradient
    unprojected; ``family_id`` is the box's.  The scale is maximized out, so
    the likelihood's derivative along ``(1, u)`` is zero and needs no entry.
    """
    k = np.full(prof.order, np.inf) if spec is None else spec.k[: prof.order]
    hi = np.tile(k / 2.0, 2) if prof.is_complex else k
    lo = -hi
    log_slack, slack_derivatives = barrier or (None, None)
    mus = [_MU0 * _MU_SHRINK**r for r in range(_BARRIER_ROUNDS)] if barrier else [0.0]
    max_iter = _BARRIER_MAX_ITER if barrier else _MAX_ITER

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
    if not barrier and value_at(np.clip(prof.start, lo, hi), 0.0) > 0.0:  # white noise's value is 0
        x = np.clip(prof.start, lo, hi)
    total_iters = 0
    converged = False
    for mu in mus:
        x, iters, converged = _newton_ascent(
            lambda y, mu=mu: value_at(y, mu), lambda y, mu=mu: derivatives(y, mu), x, lo, hi, max_iter, trail
        )
        total_iters += iters
    g, _ = prof.gradient(x)
    report = EstimationReport(
        alpha=prof.params(x),
        order=prof.order,
        loglik=prof.loglik(x),
        iterations=total_iters,
        converged=converged,
        family_id=None if spec is None else spec.family_id,
        grad_norm=_mapping_norm(x, g, lo, hi),
        stationary=bool(np.linalg.norm(g) < _STAT_TOL * (1.0 + abs(prof.value(x)))),
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
    round without a barrier, its Newton loop projected onto that box, from
    the objective's closed-form :attr:`~toepcov.likelihood.GsObjective.start`
    clipped to the box (white noise where that is no better).  Every
    iterate lies in the box, so the positive-definiteness certificate holds
    throughout.
    """
    if spec.dim != ctx.p:
        raise ValueError("box dimension does not match the context")
    trail = [] if opts and opts.track_iterates else None
    return _ratio_fit(ctx.objective(order), spec, trail=trail)  # the objective checks the order


def estimate_frob(ctx: LikelihoodContext, order: int = 1) -> EstimationReport:
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
    prof = ctx.objective(order)  # checks the order

    def constraint(u):
        return frobenius_gain_sq(GsParams(1.0, u)) - 1.0 + EPS_F

    def log_slack(u):
        c = constraint(u)
        return np.log(-c) if c < 0 else -np.inf

    def slack_derivatives(u):
        c, dc = frob_constraint(GsParams(1.0, u))
        dc = np.concatenate((dc[1:].real, dc[1:].imag)) if prof.is_complex else dc[1:]
        return dc / c, prof.factors.gain_hessian(u) / c - np.outer(dc, dc) / c**2

    report = _ratio_fit(prof, barrier=(log_slack, slack_derivatives))
    alpha = report.alpha
    report.extras["constraint_value"] = constraint(alpha.alpha_rest[:order] / alpha.alpha0)
    return report


def estimate_eig(ctx: LikelihoodContext, order: int = 1) -> EstimationReport:
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
    prof = ctx.objective(order)  # checks the order
    factors = _GsFactors(ctx.p, order, prof.is_complex)
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

    def slack_derivatives(u):
        inv = np.linalg.inv(cholesky(u))
        return factors.logdet_derivatives(u, inv.conj().T @ inv)

    return _ratio_fit(prof, barrier=(log_slack, slack_derivatives))


def estimate_pls(
    ctx: LikelihoodContext,
    spec: BoxSpec,
    order: int = 1,
    with_loglik: bool = True,
) -> EstimationReport:
    """Closed-form conditional-likelihood fit projected onto the box.

    Solves the least-squares system built from trailing diagonal sums of the
    sample covariance (:meth:`LikelihoodContext.moments`, (order+1)(order+2)/2
    diagonal segments, O(P * order^2) once per context and order), maps the
    AR solution to GS coordinates, and projects; O(order^3) more without the
    optional likelihood evaluation.  Order 0 solves the empty system (white
    noise at the mean variance, zero coefficients of the data's dtype).
    """
    p = ctx.p
    if not 0 <= order <= p - 1:
        raise ValueError(f"order must lie in [0, {p - 1}], got {order}")
    if spec.dim != p:
        raise ValueError("box dimension does not match the context")
    st = ctx.moments(order)
    extras = {}
    block, rhs = st[1:, 1:], st[1:, 0]
    try:
        a_hat = np.linalg.solve(block, rhs)
        if not np.all(np.isfinite(a_hat)):
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        ridge = 1e-10 * max(np.real(np.trace(block)) / order, 1e-300)
        a_hat = np.linalg.solve(block + ridge * np.eye(order), rhs)
        extras["ridge_used"] = True
    resid = np.real(st[0, 0] - np.vdot(rhs, a_hat))
    sigma2 = resid / (p - order)
    floor = 1e-12 * ctx.trace_scale
    if sigma2 < floor:
        sigma2 = floor
        extras["variance_floored"] = True
    rest = np.zeros(p - 1, dtype=a_hat.dtype)
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
        stationary=np.array_equal(alpha.alpha_rest, rest),
        extras=extras,
    )


def tune_order(fit, ctx: LikelihoodContext) -> EstimationReport:
    """Pick the AR order by BIC over growing supports.

    ``fit(ctx, order)`` must return an :class:`EstimationReport` for
    ``order >= 1`` whose ``loglik`` is the log-likelihood of a positive
    definite GS estimate at that order (or raise an infeasibility error); the
    order-zero candidate is the closed-form white-noise fit.  Order ``w``
    scores ``(w + 1) log N - (N/2) l``, with ``l = -log det C - tr(C^-1 S)``
    the fitted per-sample objective, so the fit term grows with the sample
    count as consistency requires.  For real data ``(N/2) l`` is the full-data
    log-likelihood, so each parameter costs twice textbook BIC's ``(k/2) log
    N``; for complex data the full-data log-likelihood is ``N l`` and there
    are ``2w + 1`` real parameters.  Scanning stops after ``_PATIENCE``
    consecutive candidates without improvement; ties keep the smaller order.
    By that contract no candidate of order ``w`` has ``l`` above the
    order's :attr:`~toepcov.likelihood.GsObjective.loglik_bound` ``B_w =
    P log(P / q*) - P``, so where ``(w + 1) log N - (N/2) B_w`` exceeds the
    best score by more than ``_REL_TOL max(1, |score|)`` the candidate
    cannot win: it strikes without a fit.  The winner's ``extras["scan"]``
    totals the scan (:func:`_scan_totals`), each ``fit`` call a fit run.
    """
    if ctx.n < 2:
        raise ValueError("BIC order tuning needs at least two samples")
    p = ctx.p
    cap = min(p, int(round(2.0 * np.sqrt(p) + 8.0)))  # orders 1 .. cap - 1: P - 1 for P <= 16
    log_n = np.log(ctx.n)
    best = white_noise_report(ctx)
    best_score = log_n - 0.5 * ctx.n * best.loglik
    strikes = 0
    scan = _scan_totals()
    for order in range(1, cap):
        # the best score any candidate of this order can reach
        least = (order + 1) * log_n - 0.5 * ctx.n * ctx.objective(order).loglik_bound
        if least > best_score + _REL_TOL * max(1.0, abs(best_score)):
            scan["pruned"] += 1
            score = np.inf  # no candidate of this order can win
        else:
            scan["fits"] += 1
            try:
                rep = fit(ctx, order)
                _count_fit(scan, rep)
                score = (order + 1) * log_n - 0.5 * ctx.n * rep.loglik
            except _INFEASIBLE:
                score = np.inf  # an infeasible candidate strikes like a worse one
        if score < best_score:
            best, best_score, strikes = rep, score, 0
        else:
            strikes += 1
            if strikes >= _PATIENCE:
                break
    best.extras["scan"] = scan
    return best


def _scan_totals() -> dict:
    """Totals over the candidates of an order or order x family scan: fixed-order
    fits run, fits reused from another family, candidates pruned by the
    likelihood bound, their Newton iterations, and the fits that did not
    converge."""
    return {"fits": 0, "reused": 0, "pruned": 0, "iterations": 0, "unconverged": 0}


def _count_fit(scan, rep):
    scan["iterations"] += rep.iterations
    scan["unconverged"] += int(not rep.converged)


def tune_box_family(
    fit,
    ctx: LikelihoodContext,
    families=DEFAULT_FAMILIES,
    order: int | None = None,
) -> EstimationReport:
    """Run the estimator under each bound family and keep the best fit.

    ``fit(ctx, order, spec)`` fits at one order in the box ``spec``.  Each
    family's order is tuned by :func:`tune_order`, or pinned to ``order``;
    the winner is chosen by :func:`best_family_fit`.

    A fit that reports itself ``stationary`` for the unconstrained
    likelihood, with coefficients strictly inside its own box, is a KKT
    point of every box that strictly contains it (and for ``pls``, whose
    projection is then the identity, the same fit).  ``converged`` does not
    suffice: a Newton fit whose line search stalled one ulp inside a bound
    converged, with its gradient pointing out of the box.  A later family
    at the same order whose box strictly contains it takes it as is, with
    zero iterations, instead of fitting again.  These fits are kept for
    this call only.  The winner's ``extras["scan"]`` totals every candidate
    of every family (:func:`_scan_totals`), reused ones apart.
    """
    if not families:
        raise ValueError("at least one bound family is required")
    interior: dict = {}  # order -> stationary fits strictly inside their own box
    scan = _scan_totals()

    def fits():
        for family in families:
            spec = box_spec_for(family, ctx.p)

            def fit_or_reuse(c, w, spec=spec):
                for rep in interior.get(w, ()):
                    if strictly_inside_box(rep.alpha, spec, w):
                        scan["reused"] += 1
                        return replace(rep, iterations=0, family_id=spec.family_id, extras=dict(rep.extras))
                scan["fits"] += 1
                rep = fit(c, w, spec)
                _count_fit(scan, rep)
                if rep.stationary and strictly_inside_box(rep.alpha, spec, w):
                    interior.setdefault(w, []).append(rep)
                return rep

            if order is None:
                rep = tune_order(fit_or_reuse, ctx)
                scan["pruned"] += rep.extras["scan"]["pruned"]
            else:
                rep = fit_or_reuse(ctx, order)
            rep.family_id = rep.family_id or spec.family_id
            yield rep

    best = best_family_fit(fits())
    best.extras["scan"] = scan
    return best


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
