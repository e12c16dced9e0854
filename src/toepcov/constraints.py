"""Positive-definiteness enforcing constraint sets for GS parameters.

Three nested feasibility descriptions are provided: positive definiteness
itself (tested exactly by ``spectral_pd_check``; the eigenvalue-barrier
estimator enforces it with margin ``EPS_EIG`` at small dimensions), a
differentiable Frobenius-norm surrogate, and box constraints whose bound
function certifies positive definiteness for every point inside the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .toeplitz import GsParams, fib_seq, toeplitz_from_lags

__all__ = [
    "EPS_F",
    "EPS_EIG",
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
    "strictly_inside_box",
    "frob_constraint",
    "EIG_DIM_LIMIT",
]

# Positive-definiteness margins of the constraint sets, fixed as in the paper.
# Both bound the ratios alpha_rest / alpha_0; the scale alpha_0 needs none.
EPS_F = 1e-4  # Frobenius margin: gain^2 <= 1 - EPS_F
EPS_EIG = 1e-6  # floor on the eigenvalues of Gamma / alpha_0, the precision over its scale

# Eigenvalue constraints cost O(P^3) per evaluation; refuse above this.
EIG_DIM_LIMIT = 64


def _cross_terms(alpha: GsParams):
    """``(u, f, g)``: the convolution ``g = u * f`` behind the cross diagonals."""
    rest = alpha.alpha_rest
    p = alpha.dim
    r = -np.conj(rest) / alpha.alpha0
    f = fib_seq(r, p - 2)
    u = rest[::-1] / alpha.alpha0
    return u, f, np.convolve(u, f)[: p - 1]


def cross_diagonals(alpha: GsParams) -> np.ndarray:
    """Diagonal entries g_1..g_{P-1} of the whitened cross factor.

    The product of the mirrored factor's adjoint with the inverse adjoint
    of the main factor is upper triangular Toeplitz; its d-th diagonal value
    is ``g_d = sum_j (a_{P-j}/a_0) F_{d-j}(-conj(a_{>=1})/a_0)``.  At order
    w only the last w diagonals are nonzero, and they read ``F_0..F_{w-1}``
    alone: they equal the diagonals of the (w+1)-term truncation
    ``GsParams(a_0, a_1..a_w)``.  Far outside the positive definite set the
    sequence overflows to inf or nan.
    """
    if alpha.dim == 1:
        return np.zeros(0)
    with np.errstate(over="ignore", invalid="ignore"):
        return _cross_terms(alpha)[2]


def _gain_sq(g: np.ndarray) -> float:
    """``sum_d (P-d) |g_d|^2`` over cross diagonals g_1..g_{P-1}; inf on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        val = float(np.dot(np.arange(g.size, 0, -1), np.abs(g) ** 2))
    return val if np.isfinite(val) else np.inf


def frobenius_gain_sq(alpha: GsParams) -> float:
    """Squared Frobenius norm of the whitened cross factor.

    Equals ``sum_d (P-d) |g_d|^2`` over the cross diagonals; strictly below
    one implies positive definiteness of the assembled precision matrix.
    Returns inf where the value overflows.
    """
    return _gain_sq(cross_diagonals(alpha))


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
    if not np.all(np.isfinite(g)):  # overflowed: far outside the PD set
        return False
    m = toeplitz_from_lags(np.concatenate((g[::-1], np.zeros(p))))  # strictly upper
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
    # the corner -K of the box drives the Fibonacci sequence with weights K
    return frobenius_gain_sq(GsParams(1.0, -k_vec))


@dataclass(frozen=True)
class FunctionFamily:
    """Exponentially decaying box bounds ``K_i = scale * exp(-decay * i)``.

    GS coefficients behave like AR coefficients, which decay geometrically,
    so one family is its decay rate.
    """

    decay: float

    @property
    def family_id(self) -> str:
        return f"exp-{self.decay:g}"

    def bounds(self, eta: float, p: int) -> np.ndarray:
        return eta * np.exp(-self.decay * np.arange(1, p))


#: Bound families with decay rates from slow to fast.
DEFAULT_FAMILIES = tuple(FunctionFamily(d) for d in (0.6, 1.0, 1.4, 1.8, 2.2))


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


@cache
def box_spec_for(family: FunctionFamily, p: int) -> BoxSpec:
    """Box specification for a family at dimension ``p`` (scale bisected, cached; empty at ``p = 1``)."""
    if p == 1:
        return BoxSpec(np.zeros(0), family_id=family.family_id)
    return BoxSpec(bisect_box_scale(family, p)[1], family_id=family.family_id)


def project_box(alpha: GsParams, spec: BoxSpec) -> GsParams:
    """Project GS parameters onto the box (O(P), idempotent).

    The scale stays as it is; each trailing coefficient is clamped to
    ``[-K_i a_0, K_i a_0]``.  Complex coefficients have real and imaginary
    parts clamped separately to half the bound each.
    """
    if spec.dim != alpha.dim:
        raise ValueError("box dimension does not match parameters")
    a0 = alpha.alpha0
    rest = alpha.alpha_rest
    lim = spec.k * a0
    if np.iscomplexobj(rest):
        half = lim / 2.0
        rest = np.clip(rest.real, -half, half) + 1j * np.clip(rest.imag, -half, half)
    else:
        rest = np.clip(rest, -lim, lim)
    return GsParams(a0, rest)


def strictly_inside_box(alpha: GsParams, spec: BoxSpec, order: int) -> bool:
    """Whether coefficients 1..order lie strictly inside the box, in the
    geometry of :func:`project_box`: ``|a_i| < K_i a_0``, or each part below
    ``K_i a_0 / 2`` for complex coefficients.  A clamped coefficient sits on
    the bound, so it never counts as inside."""
    if spec.dim != alpha.dim:
        raise ValueError("box dimension does not match parameters")
    lim = spec.k[:order] * alpha.alpha0
    rest = alpha.alpha_rest[:order]
    if np.iscomplexobj(rest):
        half = lim / 2.0
        return bool(np.all(np.abs(rest.real) < half) and np.all(np.abs(rest.imag) < half))
    return bool(np.all(np.abs(rest) < lim))


def frob_constraint(alpha: GsParams):
    """Frobenius surrogate constraint value and its exact gradient.

    Value is ``gain^2 - 1 + EPS_F`` (feasible when negative).  The gradient
    comes from one adjoint pass in O(P^2): the weights ``2 (P-d) g_d`` are
    pulled back through ``g = u * f`` and through ``df = f * f * dr`` with
    two correlations.  Real parameters get real partial derivatives, complex
    ones the packed ``d/dRe + i d/dIm`` form; the gain is invariant to the
    scale of ``alpha``, which gives the ``alpha_0`` entry.
    """
    p = alpha.dim
    rest = alpha.alpha_rest
    grad = np.zeros(p, dtype=np.result_type(rest.dtype, np.float64))
    if p == 1:
        return EPS_F - 1.0, grad
    n = p - 1
    with np.errstate(over="ignore", invalid="ignore"):
        u, f, g = _cross_terms(alpha)
        lam = 2.0 * (p - np.arange(1, p)) * g
        # adjoints of u and f in g = u * f (lags 0..n-1 of the correlations)
        du = np.correlate(lam, f, "full")[n - 1 :]
        df = np.conj(np.correlate(lam, u, "full")[n - 1 :])
        # df = f * f * dr with r = -conj(a_rest) / a_0; r_n moves no f
        dr = np.zeros_like(du)
        dr[: n - 1] = np.conj(np.correlate(np.conj(df), np.convolve(f, f)[:n], "full")[n:])
        grad[1:] = (du[::-1] - dr) / alpha.alpha0
        grad[0] = -np.real(np.vdot(rest, grad[1:])) / alpha.alpha0
    return _gain_sq(g) - 1.0 + EPS_F, grad
