"""Structured linear algebra for Toeplitz covariance matrices and their
Gohberg-Semencul (GS) parameterized inverses.

Matrices are stored as first columns; dense materialization (``.dense()``)
is an explicit operation meant for tests and reporting.  Every operation in
this module runs in O(P^2) or better, with O(P) trace kernels after an
O(P^2) precompute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "UnstableARError",
    "HermitianToeplitz",
    "LowerTriToeplitz",
    "GsParams",
    "PartialDiagSums",
    "lag_sums",
    "toeplitz_from_lags",
    "fib_seq",
    "gs_factor_b",
    "gs_factor_z",
    "gs_assemble",
    "gs_to_ar",
    "ar_to_gs",
    "ar_to_autocov",
    "toeplitz_logdet",
    "toeplitz_partial_sums",
    "trace_toep_tri_shift",
    "trace_general_tri_shift",
]

# Reflection coefficients with modulus >= 1 - _STABILITY_TOL are rejected as
# unstable; keeps the step-down recursion away from division blow-up.
_STABILITY_TOL = 1e-12


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A matrix that must be positive definite is not."""


class UnstableARError(ValueError):
    """AR coefficients describe an unstable process."""


def _as_1d(x, name):
    v = np.atleast_1d(np.asarray(x))
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return v


def _readonly(a):
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HermitianToeplitz:
    """Hermitian Toeplitz matrix stored as its first column.

    Entry ``first_col[k]`` is the autocovariance at lag ``k``; the dense
    matrix has ``M[i, j] = c(i - j)`` with ``c(-k) = conj(c(k))``.
    """

    first_col: np.ndarray

    def __post_init__(self):
        c = _as_1d(self.first_col, "first_col")
        if c.size == 0:
            raise ValueError("first_col must be nonempty")
        if np.iscomplexobj(c):
            if abs(c[0].imag) > 1e-12 * max(1.0, abs(c[0])):
                raise ValueError("c(0) must be real")
            c = c.copy()
            c[0] = c[0].real
        object.__setattr__(self, "first_col", _readonly(c))

    @property
    def dim(self) -> int:
        return self.first_col.size

    def dense(self) -> np.ndarray:
        c = self.first_col
        return toeplitz_from_lags(np.concatenate((np.conj(c[:0:-1]), c)))


@dataclass(frozen=True)
class LowerTriToeplitz:
    """Lower triangular Toeplitz matrix stored as its first column."""

    first_col: np.ndarray

    def __post_init__(self):
        d = _as_1d(self.first_col, "first_col")
        if d.size == 0:
            raise ValueError("first_col must be nonempty")
        object.__setattr__(self, "first_col", _readonly(d))

    @property
    def dim(self) -> int:
        return self.first_col.size

    def dense(self) -> np.ndarray:
        d = self.first_col
        return toeplitz_from_lags(np.concatenate((np.zeros(d.size - 1, dtype=d.dtype), d)))


@dataclass(frozen=True)
class GsParams:
    """GS parameter vector: one positive scale plus P-1 free coefficients.

    ``alpha0`` must be strictly positive; the assembled precision matrix is
    Hermitian by construction but positive definiteness is a separate
    property checked by the constraints module.
    """

    alpha0: float
    alpha_rest: np.ndarray

    def __post_init__(self):
        a0 = self.alpha0
        if np.iscomplexobj(np.asarray(a0)):
            if abs(np.imag(a0)) > 0:
                raise ValueError("alpha0 must be real")
            a0 = np.real(a0)
        a0 = float(a0)
        if not np.isfinite(a0) or a0 <= 0.0:
            raise ValueError(f"alpha0 must be positive, got {a0}")
        rest = np.atleast_1d(np.asarray(self.alpha_rest))
        if rest.ndim != 1:
            raise ValueError("alpha_rest must be one-dimensional")
        object.__setattr__(self, "alpha0", a0)
        object.__setattr__(self, "alpha_rest", _readonly(rest))

    @property
    def dim(self) -> int:
        return self.alpha_rest.size + 1

    @property
    def full(self) -> np.ndarray:
        """Full parameter vector (alpha0, alpha_1, ..., alpha_{P-1})."""
        return np.concatenate(([self.alpha0], self.alpha_rest))

    @property
    def order(self) -> int:
        """Index of the last nonzero trailing coefficient (0 if none)."""
        nz = np.nonzero(self.alpha_rest)[0]
        return int(nz[-1]) + 1 if nz.size else 0

    @classmethod
    def from_full(cls, vec) -> "GsParams":
        vec = _as_1d(vec, "vec")
        return cls(float(np.real(vec[0])), vec[1:])


@dataclass(frozen=True)
class PartialDiagSums:
    """Trailing partial sums along the diagonals of a square matrix.

    ``table[k, m]`` holds ``sum_j Q[k+j, m+j]`` with ``j`` running until
    either index hits the last row/column.  Built once in O(P^2), it turns
    every shifted-trace evaluation against ``Q`` into an O(P) dot product.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("table must be square")
        object.__setattr__(self, "table", _readonly(t))

    @property
    def dim(self) -> int:
        return self.table.shape[0]

    @classmethod
    def from_matrix(cls, q) -> "PartialDiagSums":
        q = np.asarray(q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("matrix must be square")
        # t[k, m] = q[k, m] + t[k+1, m+1], accumulated bottom-up in place.
        t = q.astype(np.result_type(q.dtype, np.float64), copy=True)
        for k in range(q.shape[0] - 2, -1, -1):
            t[k, :-1] += t[k + 1, 1:]
        return cls(t)


def lag_sums(q, max_lag: int | None = None) -> np.ndarray:
    """Sums along the diagonals of a square matrix, by lag.

    Entry ``L+l`` holds ``sum_j q[j+l, j]`` for lags ``l = -L .. L``, where
    ``L`` is ``P-1`` or ``max_lag`` if smaller.  All lags take one O(P^2)
    pass, so a Toeplitz fit, a Frobenius inner product with a Toeplitz
    matrix or a circulant spectrum costs no more than reading ``q``; a band
    of lags costs one trace per lag, O(P * max_lag).
    """
    q = np.asarray(q)
    p = q.shape[0]
    if max_lag is not None and max_lag < p - 1:
        return np.array([np.trace(q, offset=-lag) for lag in range(-max_lag, max_lag + 1)])
    # one bincount over the lag slot of each entry, adding row by row
    index = _lag_slots(p)
    sums = np.bincount(index, q.real.ravel(), 2 * p - 1)
    if np.iscomplexobj(q):
        sums = sums + 1j * np.bincount(index, q.imag.ravel(), 2 * p - 1)
    return sums


@lru_cache(maxsize=8)
def _lag_slots(p: int) -> np.ndarray:
    """Slot ``P-1+i-j`` of each entry ``[i, j]`` of a P x P matrix, row-major."""
    i = np.arange(p)
    return _readonly((i[:, None] - i + p - 1).ravel())


def toeplitz_from_lags(lags) -> np.ndarray:
    """Dense Toeplitz matrix with entry ``[i, j] = lags[P-1+i-j]``, the lag
    layout of :func:`lag_sums` (lags ``-(P-1) .. P-1``, length ``2P-1``)."""
    lags = np.ascontiguousarray(_as_1d(lags, "lags"))
    p = (lags.size + 1) // 2
    if lags.size != 2 * p - 1:
        raise ValueError("lags must have odd length 2P-1")
    # a view from lags[P-1] that steps forward in lags per row, back per column
    step = lags.itemsize
    return np.ndarray((p, p), lags.dtype, lags, (p - 1) * step, (step, -step)).copy()


def fib_seq(r, up_to: int) -> np.ndarray:
    """Generalized Fibonacci sequence driven by weight vector ``r``.

    Starts at ``F_0 = 1`` and accumulates ``F_i = sum_l r_{i-l} F_l`` where
    ``r`` is indexed from one.  Returns ``F_0 .. F_{up_to}``.
    """
    r = _as_1d(np.asarray(r), "r") if np.asarray(r).size else np.asarray(r, dtype=float).reshape(0)
    if up_to < 0:
        raise ValueError("up_to must be nonnegative")
    if up_to > r.size:
        raise ValueError(f"up_to={up_to} exceeds weight vector length {r.size}")
    dtype = np.result_type(r.dtype if r.size else np.float64, np.float64)
    f = np.zeros(up_to + 1, dtype=dtype)
    f[0] = 1.0
    for i in range(1, up_to + 1):
        f[i] = np.dot(r[:i][::-1], f[:i])
    return f


def gs_factor_b(alpha: GsParams) -> LowerTriToeplitz:
    """Lower triangular Toeplitz factor holding the full parameter vector."""
    return LowerTriToeplitz(alpha.full)


def gs_factor_z(alpha: GsParams) -> LowerTriToeplitz:
    """Mirrored conjugate factor: first column (0, conj a_{P-1}, ..., conj a_1)."""
    rest = alpha.alpha_rest
    z = np.concatenate((np.zeros(1, dtype=rest.dtype if rest.size else float),
                        np.conj(rest[::-1])))
    return LowerTriToeplitz(z)


def _tri_gram_diagonals(col, k):
    """k-th subdiagonal of T T^H for lower triangular Toeplitz T (cumsum form)."""
    n = col.size
    return np.cumsum(col[k:] * np.conj(col[: n - k]))


def gs_assemble(alpha: GsParams) -> np.ndarray:
    """Assemble the dense Hermitian precision matrix from GS parameters.

    Uses the diagonal-recursion for triangular-Toeplitz Gram products, so
    the cost is O(P^2) at most; diagonals beyond the last nonzero trailing
    parameter are identically zero and are skipped.  The products are formed
    on the factors of ``(1, u)``, ``u = alpha_rest / alpha_0``, and each
    diagonal is scaled by ``alpha_0`` after, so they neither overflow nor
    underflow at extreme data scales.  Positive definiteness is not checked
    here.
    """
    a0 = alpha.alpha0
    a = alpha.full / a0
    z = gs_factor_z(alpha).first_col / a0
    p = a.size
    complex_out = np.iscomplexobj(a)
    gam = np.zeros((p, p), dtype=np.complex128 if complex_out else np.float64)
    idx = np.arange(p)
    for k in range(alpha.order + 1):
        d = (_tri_gram_diagonals(a, k) - _tri_gram_diagonals(z, k)) * a0
        rows = idx[: p - k] + k
        cols = idx[: p - k]
        gam[rows, cols] = d
        if k:
            gam[cols, rows] = np.conj(d)
    return gam


def gs_to_ar(alpha: GsParams):
    """Map GS parameters to AR coefficients and innovation variance.

    Returns ``(a, sigma2)`` where the AR order is the index of the last
    nonzero trailing parameter.
    """
    sigma2 = 1.0 / alpha.alpha0
    w = alpha.order
    a = -alpha.alpha_rest[:w] * sigma2
    return a, sigma2


def ar_to_gs(a, sigma2: float, p: int) -> GsParams:
    """Map AR coefficients and innovation variance to GS parameters.

    Trailing parameters beyond the AR order are zero-padded up to
    dimension ``p``.
    """
    a = np.atleast_1d(np.asarray(a)) if np.asarray(a).size else np.zeros(0)
    if sigma2 <= 0:
        raise ValueError(f"innovation variance must be positive, got {sigma2}")
    if a.size > p - 1:
        raise ValueError(f"AR order {a.size} too large for dimension {p}")
    rest = np.zeros(p - 1, dtype=np.result_type(a.dtype if a.size else np.float64, np.float64))
    rest[: a.size] = -a / sigma2
    return GsParams(1.0 / sigma2, rest)


def _step_down(a, sigma2):
    """Reverse Levinson: AR coefficients to reflection coefficients.

    Returns ``(stages, refl, pe)`` with the intermediate coefficient vectors
    for all orders, the reflection coefficients, and the prediction error
    powers ``pe[m]`` for orders 0..w (``pe[w] == sigma2``).
    """
    a = np.atleast_1d(np.asarray(a)) if np.asarray(a).size else np.zeros(0)
    w = a.size
    dtype = np.result_type(a.dtype if w else np.float64, np.float64)
    stages = [None] * (w + 1)
    stages[w] = a.astype(dtype)
    refl = np.zeros(w, dtype=dtype)
    cur = stages[w]
    for m in range(w, 0, -1):
        km = cur[m - 1]
        if abs(km) >= 1.0 - _STABILITY_TOL:
            raise UnstableARError(
                f"reflection coefficient modulus {abs(km):.6g} at order {m} (>= 1)"
            )
        refl[m - 1] = km
        denom = 1.0 - abs(km) ** 2
        cur = (cur[: m - 1] + km * np.conj(cur[m - 2 :: -1])) / denom
        stages[m - 1] = cur
    pe = np.empty(w + 1)
    pe[w] = sigma2
    for m in range(w, 0, -1):
        pe[m - 1] = pe[m] / (1.0 - abs(refl[m - 1]) ** 2)
    return stages, refl, pe


def ar_to_autocov(a, sigma2: float, p: int) -> HermitianToeplitz:
    """Autocovariance sequence of a stable AR process, lags 0..p-1.

    Runs the step-down recursion to reflection coefficients and then the
    forward recursion, so no dense system is solved; cost O(P^2).  Raises
    :class:`UnstableARError` when a reflection coefficient reaches modulus
    one.
    """
    if sigma2 <= 0:
        raise ValueError(f"innovation variance must be positive, got {sigma2}")
    a = np.atleast_1d(np.asarray(a)) if np.asarray(a).size else np.zeros(0)
    w = a.size
    if w > p - 1:
        raise ValueError(f"AR order {w} too large for dimension {p}")
    return HermitianToeplitz(_autocov_lags(_step_down(a, sigma2), p))


def _autocov_lags(steps, p: int) -> np.ndarray:
    """Lags 0..p-1 of the AR autocovariance from the output ``steps`` of
    :func:`_step_down`: forward recursion to the AR order, then the AR one."""
    stages, refl, pe = steps
    a = stages[-1]
    w = a.size
    c = np.zeros(p, dtype=a.dtype)
    c[0] = pe[0]
    for m in range(1, p):
        if m <= w:
            prev = stages[m - 1]
            tail = np.dot(prev, c[m - 1 : 0 : -1]) if m > 1 else 0.0
            c[m] = refl[m - 1] * pe[m - 1] + tail
        else:
            c[m] = np.dot(a, c[m - 1 : m - 1 - w : -1]) if w else 0.0
    return c


def toeplitz_logdet(cm: HermitianToeplitz) -> float:
    """Log-determinant of a positive definite Hermitian Toeplitz matrix.

    Accumulates the prediction-error variances of the Levinson-Durbin
    recursion in O(P^2); raises :class:`NotPositiveDefiniteError` as soon as
    one of them fails to be positive.
    """
    c = cm.first_col
    p = c.size
    c0 = c[0].real if np.iscomplexobj(c) else c[0]
    if c0 <= 0:
        raise NotPositiveDefiniteError(f"leading entry {c0} is not positive")
    pe = float(c0)
    logdet = np.log(pe)
    a = np.zeros(0, dtype=c.dtype)
    for m in range(1, p):
        km = (c[m] - np.dot(a, c[m - 1 : 0 : -1])) / pe if m > 1 else c[1] / pe
        gain = 1.0 - abs(km) ** 2
        if gain <= 0:
            raise NotPositiveDefiniteError(
                f"prediction-error variance vanished at order {m}"
            )
        a = np.concatenate((a - km * np.conj(a[::-1]), [km]))
        pe *= gain
        logdet += np.log(pe)
    return float(logdet)


def toeplitz_partial_sums(c, rows, cols, p: int) -> np.ndarray:
    """Entries ``rows`` x ``cols`` of the :class:`PartialDiagSums` table of
    the P x P Hermitian Toeplitz matrix with lags ``c``: entry ``[k, m]`` is
    ``(P - max(k, m)) c(k - m)`` with ``c(-l) = conj(c(l))``.  ``c`` needs
    only the lags the entries reach; one past its end raises ``IndexError``.
    """
    rows = np.asarray(rows)[..., None]
    cols = np.asarray(cols)
    lags = c[np.abs(rows - cols)]
    if np.iscomplexobj(c):
        lags = np.where(cols <= rows, lags, np.conj(lags))
    return (p - np.maximum(rows, cols)) * lags


def trace_toep_tri_shift(c, d, k):
    """Trace of (Hermitian Toeplitz) x (lower tri Toeplitz) x (shift-up^k).

    ``c`` and ``d`` are first columns; the trace is row ``k`` of the Toeplitz
    matrix's partial diagonal sum table (:func:`toeplitz_partial_sums`)
    times ``d``, a single O(P) dot product.  ``k`` may be an array of
    shifts, which gives one trace per shift.
    """
    c = _as_1d(np.asarray(c), "c")
    d = _as_1d(np.asarray(d), "d")
    p = c.size
    if d.size != p:
        raise ValueError("c and d must have equal length")
    try:  # a shift outside [0, p-1] indexes past the end of the column
        rows = toeplitz_partial_sums(c, k, np.arange(p), p)
    except IndexError:
        raise ValueError(f"shift {k} out of range for dimension {p}") from None
    return (rows * d).sum(axis=-1)


def trace_general_tri_shift(q_sums: PartialDiagSums, d, k: int):
    """Trace of (any matrix) x (lower tri Toeplitz) x (shift-up^k).

    Requires the O(P^2) partial diagonal sums of the general matrix; each
    call is then an O(P) dot product.
    """
    d = _as_1d(np.asarray(d), "d")
    p = q_sums.dim
    if d.size != p:
        raise ValueError("d length must match the precomputed table")
    if not 0 <= k <= p - 1:
        raise ValueError(f"shift {k} out of range for dimension {p}")
    return np.dot(d, q_sums.table[k, :])
