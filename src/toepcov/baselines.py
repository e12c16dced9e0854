"""Baseline covariance estimators: SCM, diagonal averaging, banding and
tapering with cross-validated bandwidth, circulant maximum likelihood, EM
over a circulant embedding, and shrinkage toward structured targets.

Everything Toeplitz or circulant here reads a matrix through its diagonal
(lag) sums, one O(P^2) pass, and moves between lags and spectra with FFTs,
or, inside an EM iteration, with two real products built once per fit;
only EM is cubic in P.  Its model block is centrosymmetric, so an
iteration works in the even and odd halves of the block, of its inverse
and of the symmetrized SCM, each split from its top rows by one function:
two half-size systems for the first column of the block's inverse (one
stacked LU of order H = ceil(P/2) for real data, P^3/6 flops), a
Gohberg-Semencul pair on the top H rows, because the block's persymmetry
mirrors the other half, and on the nonzero H x H corner of its lower
triangular factors, and an E-step of two products on the halves (two
stacked blocks of order H for real data).
Banded and tapered estimates expose a covariance-only surface; none of the
estimators here guarantees an invertible result except where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .toeplitz import HermitianToeplitz, lag_sums, toeplitz_from_lags

__all__ = [
    "MaskSpec",
    "sample_cov",
    "toeplitz_avg",
    "mask_apply",
    "band_estimate",
    "cv_tune_mask",
    "circulant_mle",
    "em_toeplitz",
    "shrink",
    "shrink_coefficient",
]


def _pow2_above(value) -> float:
    """The power of two above ``|value|`` (one for zero): dividing by it is exact."""
    return math.ldexp(1.0, math.frexp(float(value))[1])


def sample_cov(samples) -> np.ndarray:
    """Sample covariance of mean-zero data, one sample per row."""
    x = np.atleast_2d(np.asarray(samples))
    if x.shape[0] < 1:
        raise ValueError("need at least one sample")
    return x.T @ np.conj(x) / x.shape[0]


def toeplitz_avg(scm, max_lag: int | None = None) -> HermitianToeplitz:
    """Toeplitzified covariance: each lag is the mean of its diagonal.

    Unbiased for Toeplitz truth but not necessarily positive semidefinite.
    ``max_lag`` limits the averaged lags (the rest are zero).
    """
    scm = np.asarray(scm)
    p = scm.shape[0]
    last = p - 1 if max_lag is None else min(max_lag, p - 1)
    c = np.zeros(p, dtype=np.result_type(scm.dtype, np.float64))
    c[: last + 1] = lag_sums(scm, last)[last:] / np.arange(p, p - last - 1, -1)
    return HermitianToeplitz(c)


@dataclass(frozen=True)
class MaskSpec:
    """Lag mask: hard banding cutoff or trapezoid taper."""

    kind: str
    k: int

    def __post_init__(self):
        if self.kind not in ("banding", "tapering"):
            raise ValueError(f"unknown mask kind {self.kind!r}")
        if self.k < 0:
            raise ValueError("mask bandwidth must be nonnegative")

    def weights(self, p: int) -> np.ndarray:
        return _lag_weights(self.kind, self.k, p)


def _lag_weights(kind: str, k, p: int) -> np.ndarray:
    """Mask weights of lags 0..P-1; an array of bandwidths ``k`` broadcasts."""
    q = np.arange(p, dtype=float)
    if kind == "banding":
        return (q <= k).astype(float)
    # flat up to k/2, then linear decay hitting zero at lag k; bandwidth zero
    # keeps lag 0 alone, as bandwidth one does
    return np.clip(2.0 - 2.0 * q / np.maximum(k, 1), 0.0, 1.0)


def mask_apply(t: HermitianToeplitz, spec: MaskSpec) -> HermitianToeplitz:
    """Down-weight lags of a Toeplitz estimate according to the mask."""
    w = spec.weights(t.dim)
    return HermitianToeplitz(t.first_col * w)


def band_estimate(scm, spec: MaskSpec) -> HermitianToeplitz:
    """Masked diagonal-average estimate computed only on the needed lags."""
    return mask_apply(toeplitz_avg(scm, max_lag=spec.k), spec)


_CV_FOLDS = 4


def _cv_risks(samples, kind: str) -> np.ndarray:
    """Summed held-out Frobenius risk of every bandwidth 0..P-1.

    Per fold, ``||M_k - S_val||^2`` of the masked Toeplitz average ``M_k``
    (lags ``w_k(l) c_l``) splits by lag into ``sum_l w_k(l)^2 mass_l -
    2 w_k(l) cross_l`` plus ``||S_val||^2``, with ``mass_l`` the squared
    mass of lag ``l`` in the unmasked average and ``cross_l`` its inner
    product with the lag-``l`` diagonals of ``S_val``.  All bandwidths then
    cost one O(P^2) product.
    """
    x = np.atleast_2d(np.asarray(samples))
    n, p = x.shape
    if n < _CV_FOLDS:
        raise ValueError(f"cross validation needs at least {_CV_FOLDS} samples, got {n}")
    weights = _lag_weights(kind, np.arange(p)[:, None], p)  # row k: bandwidth k
    count = p - np.arange(p)  # entries on diagonal l, and on diagonal -l
    risks = np.zeros(p)
    for val in np.array_split(np.arange(n), _CV_FOLDS):
        train = np.setdiff1d(np.arange(n), val)
        c = toeplitz_avg(sample_cov(x[train])).first_col
        s_val = sample_cov(x[val])
        sums = lag_sums(s_val)
        mass = 2.0 * count * np.abs(c) ** 2
        cross = np.real(np.conj(c) * sums[p - 1 :] + c * sums[p - 1 :: -1])
        mass[0] /= 2.0  # lag 0 is one diagonal, every other lag two
        cross[0] /= 2.0
        risks += weights**2 @ mass - 2.0 * (weights @ cross) + np.linalg.norm(s_val) ** 2
    return risks


def cv_tune_mask(samples, kind: str = "banding") -> MaskSpec:
    """Pick the mask bandwidth by four-fold cross validation.

    Risk of a candidate is the Frobenius distance between the masked
    diagonal-average estimate of the training folds and the raw sample
    covariance of the held-out fold, summed over folds; the smallest
    bandwidth of least risk wins.  Every bandwidth is scored from the lag
    sums of each fold, in O(P^2) per fold, at unit scale, where no risk
    overflows or underflows: that scales them all by one power of two.
    """
    x = np.asarray(samples)
    return MaskSpec(kind, int(np.argmin(_cv_risks(x / _pow2_above(np.abs(x).max(initial=0.0)), kind))))


def _circular_spectrum(q, g: int) -> np.ndarray:
    """Diagonal of ``F E q E^T F^H`` for the unitary G-point DFT ``F``, with
    ``E`` placing the P x P matrix ``q`` in the top-left corner (G >= P): the
    DFT of the lag sums of ``q`` folded modulo G, lag ``-l`` into slot
    ``G - l``, over G."""
    p = q.shape[0]
    sums = lag_sums(q)
    folded = np.zeros(g, sums.dtype)
    folded[:p] = sums[p - 1 :]
    folded[g - p + 1 :] += sums[: p - 1]
    return np.fft.fft(folded).real / g


def _circulant_block(spec, p: int, real: bool) -> np.ndarray:
    """Top-left P x P block of the circulant with eigenvalues ``spec``,
    exactly Hermitian: lag 0 of a real spectrum is real."""
    col = np.fft.ifft(spec)[:p]
    if real:
        col = col.real
    else:
        col[0] = col[0].real
    return toeplitz_from_lags(np.concatenate((np.conj(col[:0:-1]), col)))


def circulant_mle(scm) -> np.ndarray:
    """Closed-form Gaussian MLE over circulant covariance matrices.

    The spectrum is the DFT of the circular lag sums of the sample
    covariance, clipped at zero; one inverse FFT gives the circulant.
    Exact on circulant input; O(P^2).
    """
    scm = np.asarray(scm)
    p = scm.shape[0]
    return _circulant_block(np.maximum(_circular_spectrum(scm, p), 0.0), p, not np.iscomplexobj(scm))


def _circulant_precision(scm) -> np.ndarray:
    """Inverse of :func:`circulant_mle`: it embeds at G = P, so its estimate
    is a circulant, whose inverse is the circulant of the reciprocal
    spectrum; O(P^2).  A zero in the spectrum raises ``LinAlgError``."""
    scm = np.asarray(scm)
    p = scm.shape[0]
    spec = np.maximum(_circular_spectrum(scm, p), 0.0)
    if not spec.all():
        raise np.linalg.LinAlgError("the circulant estimate is singular")
    return _circulant_block(1.0 / spec, p, not np.iscomplexobj(scm))


def _relative_change(new, old) -> float:
    step = new - old
    return math.sqrt(step @ step) / max(math.sqrt(old @ old), 1e-300)


def _centro_split(rows):
    """``(split, halves)``: ``split()`` writes into ``halves`` the even and
    odd halves of the real symmetric centrosymmetric form C of a Hermitian
    Toeplitz (or any persymmetric Hermitian) Q from ``rows``, its top
    ``ceil(P/2)`` rows, read anew at every call (Cantoni & Butler, *Linear
    Algebra Appl.* 13, 1976); ``J conj(Q) J = Q`` mirrors the other rows.

    C is Q itself when it is real, and ``[[Re, -Im], [Im, Re]]`` of it, of
    order 2P, when it is complex.  C commutes with the exchange matrix J,
    so it acts on symmetric vectors ``(u, J u)`` through ``R+ = C[:k, :k] +
    (C J)[:k, :k]`` and on skew ones ``(u, -J u)`` through ``R- = C[:k, :k]
    - (C J)[:k, :k]``, with ``k = ceil(n/2)`` and n the order of C; a
    product of such matrices has the product of their halves.  At odd n
    the middle column belongs to the symmetric half alone, and the skew
    half, whose middle row and column vanish, takes a unit pivot there.
    For real data ``halves`` stacks R+ and R-, of order ``ceil(P/2)``; for
    complex data it holds R+ alone, of order P (``R- = J R+ J``), whose top
    rows are ``Re - Im J`` of ``rows`` and bottom rows, reversed, ``Re + Im J``.
    """
    h, p = rows.shape
    if np.iscomplexobj(rows):
        near, far, halves = rows.real, rows.imag[:, ::-1], np.empty((1, p, p))
        top, bottom = halves[0][:h], halves[0][::-1, ::-1][:h]

        def split():
            np.add(near, far, out=bottom)
            np.subtract(near, far, out=top)

        return split, halves
    near, far, halves = rows[:, :h], rows[:, ::-1][:, :h], np.empty((2, h, h))
    sym, skew = halves

    def split():
        np.add(near, far, out=sym)
        np.subtract(near, far, out=skew)
        if p % 2:
            sym[:, -1] = near[:, -1]
            skew[-1, -1] = 1.0

    return split, halves


def _half_solver(block, x):
    """``solve()``, which writes the first column of ``block``'s inverse
    into ``x`` by systems of half the order and returns the halves of
    :func:`_centro_split` it solved.

    The column ``z`` solves ``C z = e_0``, with ``z = x`` for real data and
    the real parts of ``x`` over its imaginary parts for complex data.  It
    is the sum of a symmetric solution for ``(e_0 + J e_0) / 2`` and a skew
    one for ``(e_0 - J e_0) / 2``, whose top k entries ``a`` and ``b`` solve
    ``R+ a = r+`` and ``R- b = r-``, the top k entries of those right sides;
    at odd n the unit pivot makes the middle entry of ``b`` zero.  Then
    ``z[:k] = a + b`` and ``z[n-k:] = J (a - b)``, which at odd n both write
    the middle entry, with the same value.

    Real data stacks the two halves, of order ``ceil(P/2)``, into one LU
    solve: ``P^3 / 6`` flops, a quarter of the order-P LU's.  For complex
    data one real LU of order P solves both, as ``R+ (a, J b) = (r+, J
    r-)``: a quarter of the flops of a complex LU of the block.  A singular
    half raises ``LinAlgError``.
    """
    p = block.shape[0]
    split, halves = _centro_split(block[: p - p // 2])
    n, k = 2 * p if np.iscomplexobj(block) else p, halves.shape[-1]
    e = np.eye(n, 1)
    r_sym, r_skew = (e + e[::-1])[:k] / 2, (e - e[::-1])[:k] / 2
    if np.iscomplexobj(block):
        sym, rhs, z_top, z_bottom = halves[0], np.hstack((r_sym, r_skew[::-1])), x.real, x.imag

        def solve():
            split()
            a, jb = np.linalg.solve(sym, rhs).T
            np.add(a, jb[::-1], out=z_top)
            np.subtract(a[::-1], jb, out=z_bottom)
            return halves

        return solve
    rhs, z_top, z_bottom = np.stack((r_sym, r_skew)), x[:k, None], x[p // 2 :][::-1, None]

    def solve():
        split()
        a, b = np.linalg.solve(halves, rhs)
        np.add(a, b, out=z_top)
        np.subtract(a, b, out=z_bottom)
        return halves

    return solve


def _turns(a, b, g: int) -> np.ndarray:
    """``2 pi (a b mod G) / G``: the integer product is reduced modulo G
    before it becomes an angle, so that large products lose no digits of
    the cosine."""
    return 2.0 * np.pi * (np.multiply.outer(a, b) % g) / g


@lru_cache(maxsize=8)
def _em_operators(p: int, g: int, real: bool):
    """``(to_lags, width, slots, to_spec, mirror)``: the real products that
    stand in for the FFTs of an EM iteration at order P and embedding G.

    ``to_lags @ spec[:width]`` is the block's lags 0..P-1, the first P
    entries of the inverse DFT of the spectrum, as reals, or as interleaved
    real and imaginary parts.  ``slots`` folds the E-step's ``(2, H, k)``
    array ``wide`` (see :func:`_em_iterates`) into lag sums modulo G, in one
    ``bincount``, and ``(to_spec @ folded)[mirror]`` is the new spectrum's
    E-step term, the real part of their DFT over G.  Real data has an even
    spectrum, so both products act on its ``G//2 + 1`` half and the slots
    fold lag ``s`` onto ``G - s``; complex data takes the cosine and sine
    pair of the full spectrum.  Only slots that some entry reaches get a
    column.  P^2 + P G/2 multiply-adds for real data; the FFTs they replace
    cost two numpy calls, most of an iteration at P = 16.
    """
    h = (p + 1) // 2
    k = h if real else p
    i, j = np.arange(h)[:, None], np.arange(k)
    # wide[0][i, j] sits at lag i - j, wide[1][i, j] at lag i - (P - 1 - j)
    lags = np.stack(((i - j) % g, (i + j + 1 - p) % g))
    if real:
        freqs, ids = np.arange(g // 2 + 1), 2 * np.minimum(lags, g - lags)
        weights = np.where((freqs > 0) & (2 * freqs != g), 2.0, 1.0) / g
        to_lags = weights * np.cos(_turns(np.arange(p), freqs, g))
    else:
        freqs, ids = np.arange(g), 2 * lags + np.arange(2)[:, None, None]
        angles = _turns(np.arange(p), freqs, g)
        to_lags = np.stack((np.cos(angles), np.sin(angles)), axis=1).reshape(2 * p, g) / g
    used, slots = np.unique(ids, return_inverse=True)
    # wide[1] carries -2 Im(M) of the E-step matrix M for complex data
    angles = _turns(freqs, used // 2, g)
    to_spec = np.where(used % 2, -np.sin(angles), np.cos(angles)) / g
    mirror = np.minimum(np.arange(g), g - np.arange(g)) if real else np.arange(g)
    ops = to_lags, len(freqs), slots.ravel(), to_spec, mirror
    for op in ops[:1] + ops[2:]:
        op.flags.writeable = False
    return ops


def _em_iterates(scm, g: int, max_iter: int, tol: float, ridge: float):
    """Yield (spectrum, covariance-block) per EM iteration.

    Each iteration works in the even and odd halves of :func:`_centro_split`.
    The model block ``cp`` is Hermitian Toeplitz, so it and its inverse are
    persymmetric: ``J conj(cp^-1) J = cp^-1`` with ``J`` the exchange matrix.
    A circular spectrum is the real part of a DFT of lag sums, which does
    not change under ``M -> J conj(M) J``; so the E-step may read the data
    through ``sbar = (S + J conj(S) J) / 2``, and then its matrix
    ``M = cp^-1 (sbar - cp) cp^-1`` is persymmetric too.  Its rows below
    ``H = ceil(P/2)`` mirror those above, so the spectrum of ``M`` is twice
    that of its top rows, the middle row of odd P weighted by one half.

    The first column of ``cp^-1`` comes from two half-size systems
    (:func:`_half_solver`), and the top H rows of ``cp^-1`` from it by
    Gohberg-Semencul: ``P^3 / 2`` multiply-adds, since the pair reads only
    the first H columns of its lower triangular factors.  The top rows of
    ``cp^-1``, of ``cp`` and of ``sbar`` each give their halves through
    :func:`_centro_split`: ``A+-``, and from the latter two those of ``D =
    sbar - cp``, in which the unit pivots of odd P cancel, so that ``M+- =
    A+- D+- A+-`` are those of ``M``: for real data two blocks of order H
    in one stacked pair of products, ``P^3 / 2`` multiply-adds, and for
    complex data one real block of order P (``M- = J M+ J``), ``2 P^3``.
    The top rows of ``M`` are ``M+ + M-`` and ``M+ - M-`` reversed, which
    ``wide`` holds side by side.  The lags of the block and the new
    spectrum come from the two real products of :func:`_em_operators`, so
    an iteration calls no FFT.  Everything goes into arrays allocated once
    per fit; every yielded spectrum and block is a new array, the block a
    copy of a Toeplitz view on the lags each iteration writes.  The start
    spectrum and the last block come from :func:`_circular_spectrum` and
    :func:`_circulant_block`.
    """
    scm = np.asarray(scm)
    p = scm.shape[0]
    h = (p + 1) // 2
    real = not np.iscomplexobj(scm)
    scale = float(np.real(np.trace(scm))) / p
    dtype = np.result_type(scm.dtype, np.float64)
    to_lags, width, slots, to_spec, mirror = _em_operators(p, g, real)
    # each iteration writes the block's lags -(P-1) .. P-1 into `lags`, which
    # `block` reads as a Toeplitz matrix: the view `toeplitz_from_lags` copies
    lags = np.zeros(2 * p - 1, dtype)
    step = lags.itemsize
    block = np.ndarray((p, p), dtype, lags, (p - 1) * step, (step, -step))
    nonneg, positive, negative = lags[p - 1 :], lags[p:], lags[: p - 1][::-1]
    nonneg_real = nonneg.view(float)
    # cp^-1 by Gohberg-Semencul from its first column x: (L(x) L(x)^H -
    # L(y) L(y)^H) / x_0 with y = (0, conj x_{P-1}, ..., conj x_1), the
    # factors of gs_factor_b and gs_factor_z.  Both are strided views on one
    # buffer [0 (P-1), x, 0 (P)]: `lower` reads it forward from x_0, `rev`
    # backward from past x_{P-1}, which is conj(L(y)); their conjugates read
    # `gs_conj`, which holds conj(x) for complex data and is `gs` for real
    # data.  Building them with LowerTriToeplitz(...).dense() instead cost
    # 10 us per iteration at P = 16, a fifth of an `em` fit there.
    # gs_assemble is not used: at full order it loops over the P diagonals
    # in Python, which took 1.4 ms against 0.2 ms for the two products at
    # P = 128 on one BLAS thread; it stays the banded route for low-order GS
    # estimates.  Only the top H rows of the pair are formed, each factor's
    # H x H corner times its first H columns, since the factors are zero
    # above the diagonal.
    gs = np.zeros(3 * p - 1, dtype)
    gs_conj = gs if real else np.zeros_like(gs)
    x, x_conj = gs[p - 1 : 2 * p - 1], gs_conj[p - 1 : 2 * p - 1]
    solve = _half_solver(block, x)
    lower, lower_conj, rev, rev_conj = (
        np.ndarray((p, p), dtype, buf, start * step, strides)
        for start, strides in ((p - 1, (step, -step)), (2 * p - 1, (-step, step)))
        for buf in (gs, gs_conj)
    )
    # top rows: L(x)[:H, :H] L(x)[:, :H]^H - conj(conj(L(y))[:H, :H] conj(L(y))[:, :H]^H)
    gs_factors = (lower[:h, :h], lower_conj[:, :h].T), (rev_conj[:h, :h], rev[:, :h].T)
    top_inv, pair = np.empty((h, p), dtype), np.empty((h, p), dtype)
    split_inv, inv_halves = _centro_split(top_inv)
    sbar = (scm + scm[::-1, ::-1].conj()) / 2
    # a complex S is Hermitian only to rounding: Im of the top rows is read down the first columns
    split, sbar_halves = _centro_split(sbar[:h] if real else sbar[:h].real - 1j * sbar[:, :h].imag.T)
    split()
    diff, half, m_halves = (np.empty_like(sbar_halves) for _ in range(3))
    wide = np.empty((2, h, sbar_halves.shape[-1]))
    wide_flat = wide.ravel()
    # M+ and M- are the stacked halves for real data; for complex data M- = J M+ J
    m_sym, m_skew = m_halves if real else (m_halves[0][:h], m_halves[0][::-1, ::-1][:h])
    # the embedded SCM pads the unobserved diagonal with the mean variance
    spec = np.maximum(_circular_spectrum(scm, g) + (g - p) * scale / g, 0.0)
    for _ in range(max_iter):
        np.matmul(to_lags, spec[:width], out=nonneg_real)
        np.conjugate(positive, out=negative)
        try:
            halves = solve()
        except np.linalg.LinAlgError:
            lags[p - 1] += ridge * scale
            halves = solve()
        yield spec, block.copy()
        if not real:
            np.conjugate(x, out=x_conj)
        np.matmul(*gs_factors[0], out=top_inv)
        np.matmul(*gs_factors[1], out=pair)
        np.subtract(top_inv, pair, out=top_inv)
        np.multiply(top_inv, 1.0 / x[0].real, out=top_inv)
        split_inv()
        # E-step moments t_data - t_model, with t_data from cp^-1 S cp^-1 and
        # t_model from cp^-1 = cp^-1 cp cp^-1: one spectrum of M
        np.subtract(sbar_halves, halves, out=diff)
        np.matmul(inv_halves, diff, out=half)
        np.matmul(half, inv_halves, out=m_halves)
        np.add(m_sym, m_skew, out=wide[0])
        np.subtract(m_sym, m_skew, out=wide[1])
        if p % 2:
            wide[:, -1] *= 0.5
        new_spec = (to_spec @ np.bincount(slots, wide_flat, to_spec.shape[1]))[mirror]
        new_spec *= spec**2
        new_spec += spec
        np.maximum(new_spec, 0.0, out=new_spec)
        change = _relative_change(new_spec, spec)
        spec = new_spec
        if change < tol:
            break
    yield spec, _circulant_block(spec, p, real)


# em's definition, with G = 2P: the iteration cap and the relative spectrum change that stops it early
_EM_MAX_ITER = 200
_EM_TOL = 1e-7


def em_toeplitz(scm, *, work: dict | None = None) -> np.ndarray:
    """EM estimate of a Toeplitz covariance via a larger circulant model.

    The observed window is treated as a partial view of a ``2P``-periodic
    process, whose circulant spectrum is re-estimated at most 200 times,
    stopping early below a relative change of 1e-7.  That almost never
    happens (all 200 fits of the criterion-10 benchmark ran the full 200
    iterations), so the cap, not convergence, sets the estimate: the
    upper-left P x P covariance block.  An iteration works in the even and
    odd halves of the centrosymmetric model block (see :func:`_em_iterates`):
    two half-size systems for the first column of its inverse (``P^3 / 6``
    LU flops for real data), a Gohberg-Semencul pair on the top
    ``H = ceil(P/2)`` rows of the inverse and an E-step on the halves,
    ``2 P^3`` flops of products for real data (``8 P^3`` on whole
    matrices), and two real ``O(P^2)`` products in place of the lag and
    spectrum FFTs.  A ``work`` dict receives ``iterations`` (spectrum
    updates made) and ``converged`` (whether the last one met the
    tolerance).  It iterates at unit mean variance, where no square or
    inverse overflows.
    """
    scm = np.asarray(scm)
    p = scm.shape[0]
    unit = _pow2_above(np.real(np.trace(scm)) / p)
    iterations, prev, spec = -1, None, None
    for new_spec, last in _em_iterates(scm / unit, 2 * p, _EM_MAX_ITER, _EM_TOL, ridge=1e-10):
        iterations, prev, spec = iterations + 1, spec, new_spec
    if work is not None:
        converged = prev is not None and _relative_change(spec, prev) < _EM_TOL
        work.update(iterations=iterations, converged=bool(converged))
    return last * unit


def _const_offdiag_target(scm) -> np.ndarray:
    p = scm.shape[0]
    mu = np.real(np.trace(scm)) / p
    off_diag = np.array(scm)
    np.fill_diagonal(off_diag, 0.0)
    off = np.real(np.sum(off_diag)) / (p * (p - 1)) if p > 1 else 0.0
    target = np.full((p, p), off)
    np.fill_diagonal(target, mu)
    return target


def _shrink_target(scm, target: str) -> np.ndarray:
    if target == "avg":
        return toeplitz_avg(scm).dense()
    if target == "const":
        return _const_offdiag_target(scm)
    raise ValueError(f"unknown shrinkage target {target!r}; known: avg, const")


def _shrink_weight(scm, t, samples) -> float:
    """:func:`shrink_coefficient` toward the built target ``t``.  The weight
    is scale-free, so it is computed at unit scale, where no fourth power
    overflows or underflows: the samples over a power of two, and the SCM
    and ``S - t`` over its square, divisions that are exact.  ``S - t`` is
    formed at data scale, where it cannot overflow: for both targets no
    entry of it exceeds the trace of S, finite for the SCM of finite data."""
    x = np.atleast_2d(np.asarray(samples))
    n = x.shape[0]
    if n < 2:
        return 1.0
    unit = _pow2_above(np.abs(x).max())
    # two divisions, since unit**2 may underflow, in place on one P x P array
    x, s = x / unit, np.divide(scm, unit)
    s /= unit
    # sum over samples of ||x x^H - S||_F^2, expanded so that no P x P outer
    # product is formed: ||x||^4 - 2 Re x^H S x + ||S||_F^2
    sq = np.sum(np.abs(x) ** 2, axis=1)
    quad = np.sum((np.conj(x) @ s) * x, axis=1).real
    num = (np.sum(sq**2) - 2.0 * np.sum(quad) + n * np.linalg.norm(s) ** 2) / (n * (n - 1))
    diff = np.subtract(scm, t, out=s)
    diff /= unit
    diff /= unit
    den = np.linalg.norm(diff) ** 2
    if den <= 0:
        return 1.0
    return float(np.clip(num / den, 0.0, 1.0))


def shrink_coefficient(scm, target: str, samples) -> float:
    """Plug-in convex weight: estimated SCM variance over squared bias.

    Uses the unbiased per-entry sampling variance of the SCM; with a single
    sample the variance is not estimable and the weight defaults to one.
    """
    scm = np.asarray(scm)
    return _shrink_weight(scm, _shrink_target(scm, target), samples)


def shrink(scm, target: str, rho: float) -> np.ndarray:
    """Convex combination ``(1 - rho) S + rho T`` of the sample covariance
    ``S`` with a structured target ``T``.

    ``target`` is ``"avg"`` (diagonal-averaged Toeplitz) or ``"const"``
    (scaled identity plus constant off-diagonal); the registry's weight is
    :func:`shrink_coefficient`'s plug-in estimate.
    """
    scm = np.asarray(scm)
    t = _shrink_target(scm, target)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"shrinkage weight must lie in [0, 1], got {rho}")
    return (1.0 - rho) * scm + rho * t


def _plugin_shrink(scm, target: str, samples) -> tuple[np.ndarray, float]:
    """:func:`shrink` at :func:`shrink_coefficient`'s weight, with the target
    built once for both: the estimate and its weight."""
    scm = np.asarray(scm)
    t = _shrink_target(scm, target)
    rho = _shrink_weight(scm, t, samples)
    est = (1.0 - rho) * scm
    est += np.multiply(t, rho, out=t)
    return est, rho
