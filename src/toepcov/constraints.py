"""Positive-definiteness enforcing constraint sets for GS parameters.

Three nested feasibility descriptions are provided: exact eigenvalue
constraints (small dimensions only), a differentiable Frobenius-norm
surrogate, and box constraints whose bound function certifies positive
definiteness for every point inside the box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .toeplitz import GsParams, fib_seq, gs_assemble

__all__ = [
    "ToleranceSet",
    "BoxSpec",
    "FunctionFamily",
    "DEFAULT_FAMILIES",
    "cross_diagonals",
    "frobenius_gain_sq",
    "spectral_pd_check",
    "box_bound",
    "bisect_box_scale",
    "box_spec_for",
    "project_box",
    "frob_constraint",
    "eig_constraints",
    "EIG_DIM_LIMIT",
]

# Eigenvalue constraints cost O(P^3) per evaluation; refuse above this.
EIG_DIM_LIMIT = 64


@dataclass(frozen=True)
class ToleranceSet:
    """Strictly positive slack constants shared by the constraint sets.

    ``eps_eig`` is a relative floor: estimators scale it by the trace scale
    of the sample covariance at hand.
    """

    eps0: float = 1e-6
    eps_f: float = 1e-4
    eps_eta: float = 1e-3
    eps_eig: float = 1e-6

    def __post_init__(self):
        for name in ("eps0", "eps_f", "eps_eta", "eps_eig"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


def cross_diagonals(alpha: GsParams) -> np.ndarray:
    """Diagonal entries g_1..g_{P-1} of the whitened cross factor.

    The product of the mirrored factor's adjoint with the inverse adjoint
    of the main factor is upper triangular Toeplitz; its d-th diagonal value
    is ``g_d = sum_j (a_{P-j}/a_0) F_{d-j}(-conj(a_{>=1})/a_0)``.
    """
    rest = alpha.alpha_rest
    p = alpha.dim
    if p == 1:
        return np.zeros(0)
    r = -np.conj(rest) / alpha.alpha0
    f = fib_seq(r, p - 2)
    u = rest[::-1] / alpha.alpha0
    return np.convolve(u, f)[: p - 1]


def frobenius_gain_sq(alpha: GsParams) -> float:
    """Squared Frobenius norm of the whitened cross factor.

    Equals ``sum_d (P-d) |g_d|^2`` over the cross diagonals; strictly below
    one implies positive definiteness of the assembled precision matrix.
    """
    g = cross_diagonals(alpha)
    p = alpha.dim
    d = np.arange(1, p)
    return float(np.dot(p - d, np.abs(g) ** 2))


def spectral_pd_check(alpha: GsParams) -> bool:
    """Exact positive-definiteness test via the whitened cross factor.

    True iff the factor's largest singular value is strictly below one.
    Dense SVD makes this the ground-truth check for property suites, not a
    hot-path operation.
    """
    p = alpha.dim
    if p == 1:
        return True
    g = cross_diagonals(alpha)
    i, j = np.indices((p, p))
    lag = j - i
    m = np.where(lag > 0, np.concatenate(([0.0], g))[np.clip(lag, 0, p - 1)], 0.0)
    return bool(np.linalg.norm(m, 2) < 1.0)


def box_bound(k_vec) -> float:
    """Certified upper bound on the squared Frobenius gain inside a box.

    Monotone nondecreasing in every component and zero at the origin; a
    value strictly below one certifies positive definiteness for every
    parameter vector with ``|a_i| <= K_i a_0``.
    """
    k_vec = np.atleast_1d(np.asarray(k_vec, dtype=float))
    if k_vec.size and k_vec.min() < 0:
        raise ValueError("box bounds must be componentwise nonnegative")
    p = k_vec.size + 1
    if p == 1:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        f = fib_seq(k_vec, p - 2)
        u = k_vec[::-1]
        s = np.convolve(u, f)[: p - 1]
        d = np.arange(1, p)
        val = float(np.dot(p - d, s**2))
    return val if np.isfinite(val) else np.inf


@dataclass(frozen=True)
class FunctionFamily:
    """A one-parameter bound-generating function ``f(scale, i)``.

    Must vanish at scale zero and be continuous, nonnegative, and monotone
    increasing in the scale; this is spot-checked at construction.
    """

    family_id: str
    fn: callable

    def __post_init__(self):
        idx = np.arange(1, 9)
        zero = np.asarray(self.fn(0.0, idx), dtype=float)
        if np.any(np.abs(zero) > 0):
            raise ValueError(f"family {self.family_id}: f(0, i) must vanish")
        prev = zero
        for eta in (1e-3, 0.1, 1.0, 4.0, 16.0):
            cur = np.asarray(self.fn(eta, idx), dtype=float)
            if np.any(cur < prev - 1e-15) or np.any(cur < 0):
                raise ValueError(
                    f"family {self.family_id}: f must be nonnegative and monotone in the scale"
                )
            prev = cur

    def bounds(self, eta: float, p: int) -> np.ndarray:
        i = np.arange(1, p)
        return np.asarray(self.fn(eta, i), dtype=float)


def _exp_family(decay: float) -> FunctionFamily:
    return FunctionFamily(f"exp-{decay:g}", lambda eta, i, d=decay: eta * np.exp(-d * i))


#: Exponentially decaying bound families; decay rates span slow to fast.
DEFAULT_FAMILIES = tuple(_exp_family(d) for d in (0.6, 1.0, 1.4, 1.8, 2.2))


def bisect_box_scale(family: FunctionFamily, p: int, tol: float = 1e-3):
    """Largest family scale whose box bound stays strictly below one.

    Bisects the monotone bound until ``1 - tol <= bound < 1`` and returns
    ``(scale, bounds_vector)``.
    """
    if p < 2:
        raise ValueError("dimension must be at least 2")

    def bound_at(eta):
        return box_bound(family.bounds(eta, p))

    lo, hi = 0.0, 1.0
    for _ in range(200):
        b = bound_at(hi)
        if not np.isfinite(b) or b >= 1.0:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise RuntimeError(f"family {family.family_id}: bound never reaches one")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        b = bound_at(mid)
        if not np.isfinite(b) or b >= 1.0:
            hi = mid
        elif b < 1.0 - tol:
            lo = mid
        else:
            return mid, family.bounds(mid, p)
    raise RuntimeError(f"family {family.family_id}: bisection failed to land in tolerance band")


@dataclass(frozen=True)
class BoxSpec:
    """Positive-definiteness certifying box: ``|a_i| <= K_i a_0``.

    Construction verifies the certificate (bound strictly below one), so any
    projected point assembles to a positive definite matrix.  A zero bound
    (a decaying family underflows at large dimensions) pins its coefficient
    to zero.
    """

    k: np.ndarray
    family_id: str | None = None
    scale: float | None = None

    def __post_init__(self):
        k = np.atleast_1d(np.asarray(self.k, dtype=float))
        if k.size and k.min() < 0:
            raise ValueError("box bounds must be nonnegative")
        b = box_bound(k)
        if not b < 1.0:
            raise ValueError(f"box bound {b:.6g} does not certify positive definiteness")
        kk = np.array(k, copy=True)
        kk.setflags(write=False)
        object.__setattr__(self, "k", kk)

    @property
    def dim(self) -> int:
        return self.k.size + 1


_BOX_CACHE: dict = {}


def box_spec_for(family: FunctionFamily, p: int, tol: float = 1e-3) -> BoxSpec:
    """Box specification for a family at dimension ``p`` (scale bisected, cached)."""
    key = (family.family_id, p, tol)
    spec = _BOX_CACHE.get(key)
    if spec is None:
        eta, k = bisect_box_scale(family, p, tol)
        spec = BoxSpec(k, family_id=family.family_id, scale=eta)
        _BOX_CACHE[key] = spec
    return spec


def project_box(alpha: GsParams, spec: BoxSpec, eps0: float = 1e-6) -> GsParams:
    """Project GS parameters onto the box (O(P), idempotent).

    The scale is clamped to its floor first; each trailing coefficient is
    then clamped to ``[-K_i a_0, K_i a_0]``.  Complex coefficients have real
    and imaginary parts clamped separately to half the bound each.
    """
    if spec.dim != alpha.dim:
        raise ValueError("box dimension does not match parameters")
    a0 = max(alpha.alpha0, eps0)
    rest = alpha.alpha_rest
    lim = spec.k * a0
    if np.iscomplexobj(rest):
        half = lim / 2.0
        rest = np.clip(rest.real, -half, half) + 1j * np.clip(rest.imag, -half, half)
    else:
        rest = np.clip(rest, -lim, lim)
    return GsParams(a0, rest)


def frob_constraint(alpha: GsParams, eps_f: float = 1e-4, support=None):
    """Frobenius surrogate constraint value and finite-difference gradient.

    Value is ``gain^2 - 1 + eps_f`` (feasible when negative).  The gradient
    is forward-differenced over the requested coordinates of the O(P^2)
    value function; the closed form would cost O(P^3).
    """
    val = frobenius_gain_sq(alpha) - 1.0 + eps_f
    if support is None:
        support = range(alpha.dim)
    grad = np.zeros(len(tuple(support)))
    support = tuple(support)
    full = alpha.full
    for out_i, idx in enumerate(support):
        h = 1e-7 * max(1.0, abs(full[idx]))
        bumped = full.astype(np.result_type(full.dtype, np.float64), copy=True)
        bumped[idx] += h
        val_h = frobenius_gain_sq(GsParams.from_full(bumped)) - 1.0 + eps_f
        grad[out_i] = (val_h - val) / h
    return val, grad


def eig_constraints(alpha: GsParams, eps_eig: float) -> np.ndarray:
    """Slack of each eigenvalue of the assembled matrix above its floor.

    All entries positive iff the matrix is positive definite with margin
    ``eps_eig``.  Guarded to small dimensions; use the Frobenius or box
    constraints beyond that.
    """
    if alpha.dim > EIG_DIM_LIMIT:
        raise ValueError(
            f"eigenvalue constraints limited to dimension {EIG_DIM_LIMIT}; "
            "use the Frobenius or box constraint sets instead"
        )
    gam = gs_assemble(alpha)
    return np.linalg.eigvalsh(gam) - eps_eig
