import collections

import numpy as np
import pytest

from toepcov import baselines, bench
from toepcov.bench import ESTIMATORS
from toepcov.baselines import (
    MaskSpec,
    _circulant_block,
    _cv_risks,
    _em_iterates,
    band_estimate,
    circulant_mle,
    cv_tune_mask,
    em_toeplitz,
    mask_apply,
    sample_cov,
    shrink,
    shrink_coefficient,
    toeplitz_avg,
)
from toepcov.likelihood import SampleSet
from toepcov.processes import ProcessSpec, coloring, sample, true_cm
from toepcov.toeplitz import HermitianToeplitz

rng = np.random.default_rng(777)


# -- dense reference implementations -----------------------------------------
# The baselines work on lag sums and FFTs; these are the dense G x G DFT and
# per-bandwidth formulas they replaced, kept as oracles.


def _unitary_dft(g):
    return np.fft.fft(np.eye(g), norm="ortho")


def oracle_circulant_mle(scm):
    p = scm.shape[0]
    f = _unitary_dft(p)
    d = np.maximum(np.real(np.einsum("ij,jk,ik->i", f, scm, np.conj(f))), 0.0)
    est = f.conj().T @ (d[:, None] * f)
    return est.real if not np.iscomplexobj(scm) else est


def oracle_em_iterates(scm, g, max_iter, tol, ridge):
    p = scm.shape[0]
    f = _unitary_dft(g)
    ft = f[:, :p]
    scale = float(np.real(np.trace(scm))) / p
    s_emb = np.zeros((g, g), dtype=complex)
    s_emb[:p, :p] = scm
    idx = np.arange(p, g)
    s_emb[idx, idx] = scale
    spec = np.maximum(np.real(np.einsum("ij,jk,ik->i", f, s_emb, np.conj(f))), 0.0)
    for _ in range(max_iter):
        cp = ft.conj().T @ (spec[:, None] * ft)
        cp = 0.5 * (cp + cp.conj().T)
        try:
            cp_inv = np.linalg.inv(cp)
        except np.linalg.LinAlgError:
            cp = cp + ridge * scale * np.eye(p)
            cp_inv = np.linalg.inv(cp)
        yield spec, cp
        x = ft @ cp_inv
        t_data = np.real(np.einsum("ij,ij->i", x @ scm, np.conj(x)))
        t_model = np.real(np.einsum("ij,ij->i", x, np.conj(ft)))
        new_spec = np.maximum(spec**2 * t_data + spec - spec**2 * t_model, 0.0)
        change = np.linalg.norm(new_spec - spec) / max(np.linalg.norm(spec), 1e-300)
        spec = new_spec
        if change < tol:
            break
    cp = ft.conj().T @ (spec[:, None] * ft)
    yield spec, 0.5 * (cp + cp.conj().T)


def oracle_cv_risks(samples, kind):
    x = np.atleast_2d(samples)
    n, p = x.shape
    risks = np.zeros(p)
    for val in np.array_split(np.arange(n), 4):
        train = np.setdiff1d(np.arange(n), val)
        avg = toeplitz_avg(sample_cov(x[train]))
        s_val = sample_cov(x[val])
        for k in range(p):
            masked = mask_apply(avg, MaskSpec(kind, k)).dense()
            risks[k] += np.linalg.norm(masked - s_val) ** 2
    return risks


def random_scm(p, n, complex_data, seed):
    local = np.random.default_rng(seed)
    x = local.normal(size=(n, p))
    if complex_data:
        x = x + 1j * local.normal(size=(n, p))
    return sample_cov(x)


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


# the orders of the split tests: every P up to 20, odd and even, and both
# sides of 64 and 128
SPLIT_ORDERS = [*range(1, 21), 63, 64, 127, 128, 129]


def persymmetric_hermitian(a):
    """``a`` made exactly Hermitian and persymmetric (``J conj(Q) J = Q``)
    by two averages, each exact in the symmetry it imposes."""
    q = (a + a.conj().T) / 2
    return (q + q[::-1, ::-1].conj()) / 2


def full_split(q):
    """The halves of the centrosymmetric form C of ``q`` (``[[Re, -Im],
    [Im, Re]]`` for complex ``q``) from all of C: ``C[:k, :k] +- (C J)[:k,
    :k]``, at odd order the middle column in the symmetric half alone and a
    unit pivot in the skew half; for complex ``q`` the symmetric half only."""
    c = np.block([[q.real, -q.imag], [q.imag, q.real]]) if np.iscomplexobj(q) else q
    n = c.shape[0]
    k = n - n // 2
    near, far = c[:k, :k], c[:k, ::-1][:, :k]
    sym, skew = near + far, near - far
    if n % 2:
        sym[:, -1] = near[:, -1]
        skew[-1, -1] = 1.0
    return sym[None] if np.iscomplexobj(q) else np.stack((sym, skew))


class TestSampleCov:
    def test_single_sample(self):
        s = sample_cov(np.array([[1.0, 2.0]]))
        assert np.array_equal(s, [[1.0, 2.0], [2.0, 4.0]])

    def test_psd(self):
        for _ in range(20):
            x = rng.normal(size=(int(rng.integers(1, 6)), 8))
            s = sample_cov(x)
            scale = max(np.abs(s).max(), 1.0)
            assert np.linalg.eigvalsh(s).min() >= -1e-12 * scale

    def test_matches_accumulation_oracle(self):
        x = rng.normal(size=(7, 5))
        want = np.zeros((5, 5))
        for row in x:
            want += np.outer(row, row)
        want /= 7
        assert np.allclose(sample_cov(x), want, atol=1e-12)

    def test_hermitian_for_complex(self):
        x = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        s = sample_cov(x)
        assert np.allclose(s, s.conj().T)


class TestToeplitzAvg:
    def test_hand_example(self):
        s = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert np.allclose(toeplitz_avg(s).first_col, [3.0, 2.0])

    def test_toeplitz_input_unchanged(self):
        c = np.array([2.0, 0.7, 0.1, 0.0])
        dense = HermitianToeplitz(c).dense()
        assert np.allclose(toeplitz_avg(dense).first_col, c)

    def test_real_in_real_out(self):
        s = sample_cov(rng.normal(size=(3, 6)))
        assert not np.iscomplexobj(toeplitz_avg(s).first_col)

    def test_max_lag_truncates(self):
        s = sample_cov(rng.normal(size=(3, 6)))
        full = toeplitz_avg(s).first_col
        short = toeplitz_avg(s, max_lag=2).first_col
        assert np.allclose(short[:3], full[:3])
        assert np.all(short[3:] == 0.0)


class TestMasks:
    def test_full_bandwidth_identity(self):
        t = HermitianToeplitz(rng.normal(size=5))
        out = mask_apply(t, MaskSpec("banding", 4))
        assert np.allclose(out.first_col, t.first_col)

    def test_zero_bandwidth_diagonal(self):
        t = HermitianToeplitz(np.array([3.0, 2.0, 1.0]))
        out = mask_apply(t, MaskSpec("banding", 0))
        assert np.allclose(out.first_col, [3.0, 0.0, 0.0])

    def test_banding_hand_example(self):
        t = HermitianToeplitz(np.array([3.0, 2.0, 1.0]))
        out = mask_apply(t, MaskSpec("banding", 1))
        assert np.allclose(out.first_col, [3.0, 2.0, 0.0])

    def test_trapezoid_shape(self):
        w = MaskSpec("tapering", 4).weights(6)
        assert np.allclose(w, [1.0, 1.0, 1.0, 0.5, 0.0, 0.0])
        assert np.all((0.0 <= w) & (w <= 1.0))

    def test_band_estimate_matches_two_step(self):
        s = sample_cov(rng.normal(size=(6, 10)))
        spec = MaskSpec("banding", 3)
        fast = band_estimate(s, spec).first_col
        slow = mask_apply(toeplitz_avg(s), spec).first_col
        assert np.allclose(fast, slow, atol=1e-14)


class TestCvTuneMask:
    def test_ma1_prefers_bandwidth_one(self):
        spec = ProcessSpec("ma", 16, b=(0.5,), sigma2=1.0)
        ks = [cv_tune_mask(sample(spec, 64, 3000 + t).samples).k for t in range(30)]
        modal = collections.Counter(ks).most_common(1)[0][0]
        assert modal == 1

    def test_white_noise_prefers_zero(self):
        ks = []
        for t in range(30):
            x = np.random.default_rng(4000 + t).standard_normal((64, 16))
            ks.append(cv_tune_mask(x).k)
        modal = collections.Counter(ks).most_common(1)[0][0]
        assert modal == 0

    def test_range(self):
        x = rng.normal(size=(8, 12))
        assert 0 <= cv_tune_mask(x).k <= 11

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 4"):
            cv_tune_mask(rng.normal(size=(3, 8)))

    @pytest.mark.parametrize("kind", ["banding", "tapering"])
    def test_risks_match_dense_oracle(self, kind):
        spec = ProcessSpec("ma", 12, b=(0.5,), sigma2=1.0)
        for seed in range(20):
            x = sample(spec, 9 + seed % 5, 6100 + seed).samples
            if seed % 2:
                x = x + 1j * np.random.default_rng(seed).normal(size=x.shape)
            got, want = _cv_risks(x, kind), oracle_cv_risks(x, kind)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert cv_tune_mask(x, kind).k == int(np.argmin(want))

    @pytest.mark.parametrize("kind", ["banding", "tapering"])
    def test_exact_tie_keeps_smallest_bandwidth(self, kind):
        # scaled basis vectors: every lag above 0 of every training average is
        # exactly zero, so every bandwidth gives the same estimate and risk
        p = 7
        x = np.zeros((8, p))
        x[np.arange(8), np.arange(8) % p] = np.arange(1.0, 9.0)
        risks = _cv_risks(x, kind)
        assert np.all(risks == risks[0])
        assert np.all(oracle_cv_risks(x, kind) == oracle_cv_risks(x, kind)[0])
        assert cv_tune_mask(x, kind).k == 0


class TestCirculantMle:
    def test_identity_fixed(self):
        assert np.allclose(circulant_mle(np.eye(6)), np.eye(6), atol=1e-12)

    def test_exact_on_circulant(self):
        f = np.fft.fft(np.eye(8), norm="ortho")
        d = rng.uniform(0.5, 2.0, 8)
        circ = (f.conj().T @ (d[:, None] * f)).real
        assert np.allclose(circulant_mle(circ), circ, atol=1e-10)

    def test_psd_output(self):
        for _ in range(10):
            s = sample_cov(rng.normal(size=(3, 8)))
            est = circulant_mle(s)
            assert np.linalg.eigvalsh(est).min() >= -1e-12

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_matches_dense_oracle(self, complex_data):
        for p in (1, 2, 5, 16, 33):
            s = random_scm(p, 3, complex_data, 40 + p)
            got, want = circulant_mle(s), oracle_circulant_mle(s)
            assert got.dtype == want.dtype
            assert rel_err(got, want) <= 1e-13

    def test_large_dimension_structure(self):
        p = 2048
        x = np.random.default_rng(5).normal(size=(4, p))
        est = circulant_mle(sample_cov(x))
        col = est[:, 0]
        assert np.array_equal(est[1:, 1:], est[:-1, :-1])  # Toeplitz
        assert np.array_equal(est, est.T)
        assert np.fft.fft(col).real.min() >= -1e-12 * np.abs(col).max()

    def test_output_is_circulant(self):
        s = sample_cov(rng.normal(size=(5, 8)))
        est = circulant_mle(s)
        spectrum = np.fft.fft(est[:, 0])
        assert np.abs(spectrum.imag).max() < 1e-10
        assert spectrum.real.min() >= -1e-10
        for k in range(1, 8):
            assert np.allclose(np.roll(est[:, 0], k), est[:, k], atol=1e-10)

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_precision_matches_dense_inverse(self, complex_data):
        """The precision from the reciprocal spectrum is the Cholesky
        inverse of the estimate, exactly Hermitian, at every P from 2 to 20
        and at P = 64, 127 and 128.  Bound: the Cholesky inverse of a matrix
        of condition kappa has a forward error of about P kappa eps."""
        eps = np.finfo(float).eps
        for p in [*range(2, 21), 64, 127, 128]:
            s = random_scm(p, p + 2, complex_data, 300 + p)
            est, icm = circulant_mle(s), baselines._circulant_precision(s)
            assert np.array_equal(icm, icm.conj().T)
            assert rel_err(icm, bench._pd_inverse(est)) <= p * np.linalg.cond(est) * eps

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_circular_spectrum_matches_dense_dft(self, complex_data):
        """The folded lag sums give the diagonal of ``F E q E^T F^H`` for the
        unitary G-point DFT ``F``, at G = P, where every slot but 0 adds two
        lag sums, and at G = 2P, 2P + 1 and 3P, where no two lags share a
        slot.  Bound: an entry is a sum of P^2 terms, none above
        ``sum |q| / G``; the dense product rounds each of them and the FFT
        about log G times."""
        local = np.random.default_rng(34)
        eps = np.finfo(float).eps
        for p in SPLIT_ORDERS:
            q = local.normal(size=(p, p)) + (1j * local.normal(size=(p, p)) if complex_data else 0)
            for g in (p, 2 * p, 2 * p + 1, 3 * p):
                f = _unitary_dft(g)[:, :p]
                want = np.real(np.einsum("ij,jk,ik->i", f, q, f.conj()))
                got = baselines._circular_spectrum(q, g)
                assert np.abs(got - want).max() <= 2 * p * eps * np.abs(q).sum() / g

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_singular_estimate_has_no_precision(self, complex_data):
        """A rank-one SCM at G = P has the spectrum (P, 0, ..., 0): the
        precision raises ``LinAlgError`` before it divides by a zero, with no
        RuntimeWarning (an error under the test settings), and ``estimate
        --icm`` refuses it as the Cholesky did."""
        x = np.ones((1, 6)) * (1j if complex_data else 1.0)
        s = sample_cov(x)
        assert np.count_nonzero(np.maximum(baselines._circular_spectrum(s, 6), 0.0)) == 1
        with pytest.raises(np.linalg.LinAlgError):
            baselines._circulant_precision(s)
        with pytest.raises(np.linalg.LinAlgError):
            bench._pd_inverse(circulant_mle(s))


class TestEmToeplitz:
    def test_identity_fixed_point_at_full_embedding(self):
        *_, (_, out) = _em_iterates(np.eye(5), 5, 4, 1e-7, 1e-10)
        assert np.allclose(out, np.eye(5), atol=1e-12)

    def test_likelihood_monotone(self):
        spec = ProcessSpec("ar", 16, a=(0.5,), sigma2=0.64)
        for seed in range(5):
            s = sample(spec, 8, 500 + seed).scm
            lls = []
            for _, cp in _em_iterates(s, 32, 50, 0.0, 1e-10):
                ll = -np.linalg.slogdet(cp)[1] - np.trace(np.linalg.solve(cp, s))
                lls.append(ll)
            assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    def test_spectrum_stays_real_nonnegative(self):
        s = sample(ProcessSpec("ar", 12, a=(0.6,), sigma2=1.0), 6, 123).scm
        for spectrum, _ in _em_iterates(s, 24, 30, 1e-8, 1e-10):
            assert not np.iscomplexobj(spectrum)
            assert spectrum.min() >= 0.0

    def test_hermitian_output(self):
        s = sample(ProcessSpec("ma", 10, b=(0.4,), sigma2=1.0), 6, 3).scm
        out = em_toeplitz(s)
        assert np.allclose(out, out.T, atol=1e-12)

    def test_matches_circulant_likelihood_at_full_embedding(self):
        s = sample(ProcessSpec("ar", 8, a=(0.4,), sigma2=1.0), 16, 9).scm
        *_, (_, em) = _em_iterates(s, 8, 500, 1e-12, 1e-10)
        circ = circulant_mle(s)

        def gauss_ll(cm):
            return -np.linalg.slogdet(cm)[1] - np.trace(np.linalg.solve(cm, s))

        assert gauss_ll(em) == pytest.approx(gauss_ll(circ), abs=1e-6)

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_iterates_match_dense_oracle(self, complex_data):
        """Every P from 1 to 20 and odd and even P up to 129, at G = P, 2P
        and 2P + 1 (the odd embedding has no Nyquist frequency), and at
        G = 3P for small P."""
        orders = [*range(1, 21), 31, 32, 63, 64, 127, 128, 129]
        cases = [(p, g) for p in orders for g in (p, 2 * p, 2 * p + 1)]
        for p, g in cases + [(p, 3 * p) for p in (1, 2, 5, 16)]:
            s = random_scm(p, 3, complex_data, 70 + p)
            got = list(_em_iterates(s, g, 25, 1e-9, 1e-10))
            want = list(oracle_em_iterates(s, g, 25, 1e-9, 1e-10))
            assert len(got) == len(want)
            for (spec, cp), (spec_o, cp_o) in zip(got, want):
                assert rel_err(spec, spec_o) <= 1e-12
                assert rel_err(cp, cp_o) <= 1e-12

    def test_ridge_fallback_on_singular_block(self, monkeypatch):
        """A rank-one SCM at G = P gives the exactly singular model block
        ``ones``, so every iteration takes the ridge fallback.  The EM fixed
        point there is the circulant MLE itself, spectrum (4, 0, 0, 0)."""
        p = 4
        s = np.ones((p, p))
        refused = []
        real_solve = np.linalg.solve

        def solve(a, b):
            try:
                return real_solve(a, b)
            except np.linalg.LinAlgError:
                refused.append(a)
                raise

        monkeypatch.setattr(np.linalg, "solve", solve)
        iterates = list(_em_iterates(s, p, 25, 1e-9, 1e-10))
        monkeypatch.undo()
        assert refused, "the ridge fallback never ran"
        eps = np.finfo(float).eps
        lls = []
        for spec, cp in iterates[:-1]:  # the last block is unridged, singular
            assert np.isfinite(cp).all() and np.array_equal(cp, cp.T)
            assert spec.min() >= 0.0
            # The ridge leaves cond(cp) ~ 4e10, so an iteration may move each
            # of the P lag sums behind the spectrum by cond * eps relative;
            # it stays at the fixed point to P times that of its size, 4.
            kappa = np.linalg.cond(cp)
            assert np.abs(spec - [4.0, 0.0, 0.0, 0.0]).max() <= p * kappa * eps * 4.0
            lls.append((-np.linalg.slogdet(cp)[1] - np.trace(np.linalg.solve(cp, s)), kappa))
        # Criterion 9's monotone likelihood.  Its slack 1e-9 is widened by the
        # rounding of the likelihood itself: the small eigenvalues of cp
        # (1e-10 against entries of 1) carry a relative error of
        # cond(cp) * eps each, and log det sums P of them.
        for (a, _), (b, kappa) in zip(lls, lls[1:]):
            assert b >= a - max(1e-9, p * kappa * eps)
        assert np.allclose(iterates[-1][1], s, rtol=0.0, atol=p * lls[0][1] * eps)

    @pytest.mark.parametrize("case", ["rank-one", "benchmark-size", "complex-odd-127",
                                      "complex-odd-129"])
    def test_matches_oracle_within_condition_bound(self, case):
        """Against the dense oracle where the model block is ill-conditioned
        or the run is long.

        rank-one: P = 8 at G = 16, 25 iterations.  The spectrum halves where
        the data has no power, so cond(cp) doubles per iteration, to 1.3e8
        at the last block.  benchmark-size: all 200 default iterations on
        rank-deficient ARMA(1,1) data at P = 128, N = 64, G = 2P (cond about
        190).  complex-odd-P: the same run on circular complex ARMA(1,1)
        data at odd P = 127 and 129, where the middle row of the
        persymmetric E-step counts half (cond about 170 and 190).

        Bound: a backward-stable solve (LU here, and the oracle's inverse)
        of a block of condition kappa has a forward error of about
        kappa * eps; each iterate inherits the errors of the ones before,
        which in the rank-one run had half the conditioning per step and in
        the long run are damped by the contracting update (the 200th
        iterate is no further off than the 5th), so together they at most
        double it; the two routes each carry such an error.  Hence
        4 * kappa * eps, with kappa the largest condition number so far."""
        if case == "rank-one":
            s, g, max_iter, tol, min_kappa = np.ones((8, 8)), 16, 25, 1e-9, 5e7
        elif case == "benchmark-size":
            arma = ProcessSpec("arma", 128, a=(0.7,), b=(0.3,), sigma2=0.64)
            s, g, max_iter, tol, min_kappa = sample(arma, 64, 5).scm, 256, 200, 1e-7, 100.0
        else:
            p = int(case.rsplit("-", 1)[1])
            arma = ProcessSpec("arma", p, a=(0.7,), b=(0.3,), sigma2=0.64)
            white = np.random.default_rng(p).standard_normal((64, 2 * p)).view(complex) / np.sqrt(2)
            s, g, max_iter, tol, min_kappa = sample_cov(white @ coloring(arma).T), 2 * p, 200, 1e-7, 100.0
        got = list(_em_iterates(s, g, max_iter, tol, 1e-10))
        want = list(oracle_em_iterates(s, g, max_iter, tol, 1e-10))
        assert len(got) == len(want) == max_iter + 1
        kappa = 1.0
        for (spec, cp), (spec_o, cp_o) in zip(got, want):
            kappa = max(kappa, np.linalg.cond(cp))
            bound = 4.0 * kappa * np.finfo(float).eps
            assert rel_err(spec, spec_o) <= bound
            assert rel_err(cp, cp_o) <= bound
        assert kappa > min_kappa

    def test_no_general_inverse(self, monkeypatch):
        """Each iteration inverts its block from exactly one LU solve, plus
        one per ridge retry, and the Gohberg-Semencul formula, never with a
        general inverse or a Cholesky factor.  The solve is the half-size
        route: for real data a stack of two real blocks of order ceil(P/2),
        for complex data one real block of order P with two right sides, so
        the order-P solve of the block itself fails here.  The rank-one SCM
        at G = P is the singular block of the ridge test, where every solve
        retries; it stops at once unless ``tol`` is 0, and ``em_toeplitz``
        has no ``G = P``, so it runs through the iterates.  The cap is cut
        to 20."""
        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"EM called np.linalg.{name}")
            return call

        ar = sample(ProcessSpec("ar", 32, a=(0.5,), sigma2=0.64), 8, 11).scm
        solves, retries = [], []
        real_solve = np.linalg.solve

        def solve(a, b):
            solves.append((a.dtype, a.shape, b.shape))
            try:
                return real_solve(a, b)
            except np.linalg.LinAlgError:
                retries.append(a)
                raise

        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(np.linalg, "inv", refuse("inv"))
        monkeypatch.setattr(np.linalg, "cholesky", refuse("cholesky"))
        monkeypatch.setattr(baselines, "_EM_MAX_ITER", 20)
        work = {}
        out = em_toeplitz(ar, work=work)
        assert work["iterations"] == 20 and np.isfinite(out).all()
        assert solves == [(np.float64, (2, 16, 16), (2, 16, 1))] * 20 and not retries
        solves.clear()
        out = em_toeplitz(random_scm(32, 8, True, 11), work=work)
        assert work["iterations"] == 20 and np.isfinite(out).all()
        assert solves == [(np.float64, (32, 32), (32, 2))] * 20 and not retries
        solves.clear()
        *iterates, (_, out) = _em_iterates(np.ones((4, 4)), 4, 20, 0.0, 1e-10)
        assert len(iterates) == 20 and np.isfinite(out).all()
        assert len(solves) == 20 + len(retries) and retries
        assert {shape for _, shape, _ in solves} == {(2, 2, 2)}

    @pytest.mark.parametrize("complex_data", [False, True])
    @pytest.mark.parametrize("p", [16, 17])
    def test_iterations_call_no_fft(self, monkeypatch, p, complex_data):
        """A fit makes two FFT calls, whatever its iteration count: one for
        the start spectrum and one for the last block.  The iterations map
        lags and spectra by the real products of ``_em_operators``."""
        calls = []
        for name in ("fft", "ifft"):
            def counted(*args, real_call=getattr(np.fft, name), name=name, **kwargs):
                calls.append(name)
                return real_call(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        s = random_scm(p, 8, complex_data, 40 + p)
        for iterations in (1, 7, 20):
            monkeypatch.setattr(baselines, "_EM_MAX_ITER", iterations)
            calls.clear()
            work = {}
            em_toeplitz(s, work=work)
            assert work["iterations"] == iterations and sorted(calls) == ["fft", "ifft"]

    @pytest.mark.parametrize("complex_data", [False, True])
    @pytest.mark.parametrize("p", [16, 17])
    def test_e_step_products_are_half_size(self, monkeypatch, p, complex_data):
        """The E-step multiplies the halves of ``cp^-1`` and ``sbar - cp``:
        two stacked real products per iteration on blocks of order
        ``H = ceil(P/2)`` for real data, and on one real block of order P
        (the halves of the order-2P embedding) for complex data.  No product
        takes a P x P operand of the data's dtype, as the E-step on the whole
        block would."""
        shapes = []
        real_matmul = np.matmul

        def matmul(a, b, **kwargs):
            shapes.append((a.dtype, a.shape, b.shape))
            return real_matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", matmul)
        monkeypatch.setattr(baselines, "_EM_MAX_ITER", 20)
        s = random_scm(p, 8, complex_data, 40 + p)
        em_toeplitz(s)
        stacked = [shape for shape in shapes if len(shape[1]) == 3]
        h = (p + 1) // 2
        half = (1, p, p) if complex_data else (2, h, h)
        assert stacked == [(np.float64, half, half)] * 2 * 20
        assert not [shape for shape in shapes if shape[0] == s.dtype and (p, p) in shape[1:]]

    @pytest.mark.parametrize("complex_data", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 5, 16, 17, 512])
    def test_operators_match_the_fft(self, p, complex_data):
        """The lags of ``to_lags`` are the inverse FFT of the spectrum, and
        ``to_spec`` of folded lag sums the real part of their FFT, to a few
        units of rounding of the largest term, at P up to 512.  The angles
        are reduced modulo G before the cosine; unreduced, the error at
        P = 512 was about 2.7e-13."""
        local = np.random.default_rng(p)
        g = 2 * p
        to_lags, width, slots, to_spec, mirror = baselines._em_operators(p, g, not complex_data)
        spec = local.exponential(size=g)
        if not complex_data:
            spec = spec[mirror]  # a real block's spectrum is even
        lags = to_lags @ spec[:width]
        want = np.fft.ifft(spec)[:p]
        got = lags if not complex_data else lags.view(complex)
        eps = np.finfo(float).eps
        assert np.abs(got - (want.real if not complex_data else want)).max() <= 8 * eps * spec.max()
        h = (p + 1) // 2
        wide = local.normal(size=(2, h, h if not complex_data else p))
        got = (to_spec @ np.bincount(slots, wide.ravel(), to_spec.shape[1]))[mirror]
        # the dense fold: wide[0][i, j] at lag i - j, wide[1][i, j] at lag
        # i - (P - 1 - j), the latter as -i times itself for complex data
        i, j = np.arange(h)[:, None], np.arange(wide.shape[2])
        folded = np.zeros(g, complex)
        np.add.at(folded, (i - j) % g, wide[0])
        np.add.at(folded, (i + j + 1 - p) % g, wide[1] if not complex_data else -1j * wide[1])
        want = np.fft.fft(folded).real / g
        assert np.abs(got - want).max() <= 8 * eps * np.abs(wide).sum() / g

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_half_solver_matches_full_solve(self, complex_data):
        """The half-size route gives the first column of the block's inverse
        that an LU solve of the whole block gives, at every P from 1 to 20
        and at P = 63, 64, 127, 128, 129, odd and even orders alike.  The
        blocks are circulant model blocks of spectra over several orders of
        magnitude.  Bound: both routes are backward-stable LU solves, whose
        forward errors are at most about P * cond * eps each."""
        local = np.random.default_rng(31)
        eps = np.finfo(float).eps
        kappas = []
        for p in [*range(1, 21), 63, 64, 127, 128, 129]:
            for power in (1.0, 4.0):
                spec = local.exponential(size=2 * p) ** power
                cp = _circulant_block(spec, p, not complex_data)
                x = np.empty(p, cp.dtype)
                baselines._half_solver(cp, x)()
                want = np.linalg.solve(cp, np.eye(p, 1).ravel())
                kappa = np.linalg.cond(cp)
                assert rel_err(x, want) <= p * kappa * eps
                kappas.append(kappa)
        assert max(kappas) > 1e4

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_centro_split_of_top_rows_matches_full_matrix(self, complex_data):
        """``_centro_split`` reads only the top ceil(P/2) rows, anew at every
        call, and gives the halves that the whole centrosymmetric form gives,
        bit for bit, for Hermitian Toeplitz blocks and for their inverses,
        which are persymmetric but not Toeplitz (made exactly persymmetric
        and Hermitian by averaging)."""
        local = np.random.default_rng(32)
        for p in SPLIT_ORDERS:
            block = _circulant_block(local.exponential(size=2 * p), p, not complex_data)
            for q in (block, persymmetric_hermitian(np.linalg.inv(block))):
                rows = q[: (p + 1) // 2].copy()
                split, halves = baselines._centro_split(rows)
                split()
                assert np.array_equal(halves, full_split(q))
                rows *= 2.0
                split()
                assert np.array_equal(halves, full_split(2.0 * q))

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_halves_of_the_e_step_product(self, complex_data):
        """With ``A`` the inverse of a model block ``T`` and ``D = sbar - T``,
        the halves of ``M = A D A`` are ``A+- D+- A+-``: at odd P the unit
        pivots cancel in ``D-``, whose middle row and column vanish, and so
        do those of the product, where the split of ``M`` puts its pivot.
        Bound: each of the two products of order n is within n eps of
        ``|A| |D| |A|``, as is ``M``, a bound of the order of cond(T) eps
        relative to ``M``."""
        local = np.random.default_rng(33)
        eps = np.finfo(float).eps
        for p in SPLIT_ORDERS:
            h = (p + 1) // 2
            block = _circulant_block(local.exponential(size=2 * p), p, not complex_data)
            a = persymmetric_hermitian(np.linalg.inv(block))
            sbar = persymmetric_hermitian(random_scm(p, p + 2, complex_data, 500 + p))
            a_half, sbar_half, block_half = (full_split(q) for q in (a, sbar, block))
            d_half = sbar_half - block_half
            got = a_half @ d_half @ a_half
            m = a @ (sbar - block) @ a
            split, want = baselines._centro_split(m[:h])
            split()
            if p % 2 and not complex_data:
                assert not d_half[1][-1].any() and not d_half[1][:, -1].any()
                assert not got[1][-1].any() and not got[1][:, -1].any()
                want[1][-1, -1] = 0.0
            scale = (np.abs(a) @ np.abs(sbar - block) @ np.abs(a)).max()
            assert np.abs(got - want).max() <= 4 * p * eps * scale

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_one_split_for_every_halved_matrix(self, monkeypatch, complex_data):
        """Each matrix the iterations halve goes through ``_centro_split``
        on its top ceil(P/2) rows: every iteration splits twice, the block
        for its solve and the Gohberg-Semencul rows of its inverse for the
        E-step, and the fit once more, the symmetrized SCM."""
        made = []
        real_split = baselines._centro_split

        def centro_split(rows):
            split, halves = real_split(rows)
            entry = [rows.shape, 0]
            made.append(entry)

            def counted():
                entry[1] += 1
                split()

            return counted, halves

        monkeypatch.setattr(baselines, "_centro_split", centro_split)
        for p in SPLIT_ORDERS:
            made.clear()
            s = random_scm(p, p + 3, complex_data, 60 + p)
            assert len(list(_em_iterates(s, 2 * p, 3, 0.0, 1e-10))) == 4
            rows = ((p + 1) // 2, p)
            assert made == [[rows, 3], [rows, 3], [rows, 1]]

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_sbar_halves_read_its_first_columns(self, monkeypatch, complex_data):
        """A complex SCM is Hermitian only to rounding, so the triangle that
        the halves of ``sbar = (S + J conj(S) J) / 2`` read sets ``em``'s
        bits: the imaginary parts come down its first columns, ``R+ = Re sbar
        + Im(sbar^T) J``, bit for bit, here on an SCM whose imaginary part
        is far from antisymmetric.  Real data reads the top rows."""
        kept = []
        real_split = baselines._centro_split

        def centro_split(rows):
            split, halves = real_split(rows)
            kept.append(halves)
            return split, halves

        monkeypatch.setattr(baselines, "_centro_split", centro_split)
        local = np.random.default_rng(35)
        for p in SPLIT_ORDERS:
            kept.clear()
            s = random_scm(p, p + 3, complex_data, 70 + p)
            s = s + (1j if complex_data else 1.0) * 1e-3 * local.normal(size=(p, p))
            list(_em_iterates(s, 2 * p, 1, 0.0, 1e-10))
            sbar = (s + s[::-1, ::-1].conj()) / 2
            want = (sbar.real + sbar.T.imag[:, ::-1])[None] if complex_data else full_split(sbar)
            assert np.array_equal(kept[2], want)

    @pytest.mark.parametrize("complex_data", [False, True])
    @pytest.mark.parametrize("p", [3, 4, 8, 9])
    def test_half_solver_rank_one_block_raises(self, monkeypatch, p, complex_data):
        """The rank-one block ``ones`` makes every half singular (for complex
        data both halves are the one real block ``ones``), so the solve
        raises ``LinAlgError`` and the ridge retry of the iterates runs."""
        block = np.ones((p, p), complex if complex_data else float)
        halves = []
        real_solve = np.linalg.solve

        def solve(a, b):
            halves.extend(a if a.ndim == 3 else [a])
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.raises(np.linalg.LinAlgError):
            baselines._half_solver(block, np.empty(p, block.dtype))()
        assert len(halves) == (1 if complex_data else 2)
        assert all(np.linalg.matrix_rank(half) < half.shape[0] for half in halves)

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_yielded_blocks_are_not_overwritten(self, complex_data):
        """Every spectrum and block the iteration yields still equals, once
        the whole run is over, the copy taken when it was yielded, so no
        later iteration writes into an array it handed out (the products go
        into buffers of the fit); and each block is the block of its own
        spectrum.  Bound: a lag is a sum of G/2 + 1 (real) or G (complex)
        terms, each at most twice a spectrum entry over G, here and in the
        inverse FFT.  The data is full rank, so no block takes the ridge."""
        eps = np.finfo(float).eps
        for p in (1, 2, 5, 16, 33):
            s = random_scm(p, p + 3, complex_data, 90 + p)
            kept, copies = [], []
            for spec, cp in _em_iterates(s, 2 * p, 25, 0.0, 1e-10):
                kept.append((spec, cp))
                copies.append((spec.copy(), cp.copy()))
            assert len(kept) == 26
            for (spec, cp), (spec_then, cp_then) in zip(kept, copies):
                assert np.array_equal(spec, spec_then) and np.array_equal(cp, cp_then)
                want = _circulant_block(spec, p, not complex_data)
                assert np.abs(cp - want).max() <= 2 * 2 * p * eps * spec.max()

    def test_real_data_stays_real(self):
        s = random_scm(6, 3, False, 1)
        assert all(not np.iscomplexobj(cp) for _, cp in _em_iterates(s, 12, 5, 0.0, 1e-10))

    def test_definition(self):
        """``em`` is 200 iterations at G = 2P, tolerance 1e-7, run at unit
        mean variance: on AR(1) data it stops at the cap, and its estimate
        is the last block of those iterates scaled back, bit for bit."""
        s = sample(ProcessSpec("ar", 16, a=(0.5,), sigma2=0.64), 8, 500).scm
        work = {}
        out = em_toeplitz(s, work=work)
        assert work == {"iterations": 200, "converged": False}
        unit = baselines._pow2_above(np.trace(s) / 16)
        *_, (_, cp) = _em_iterates(s / unit, 32, 200, 1e-7, 1e-10)
        assert np.array_equal(out, cp * unit)

    def test_work_reports_iterations_at_max_iter(self, monkeypatch):
        monkeypatch.setattr(baselines, "_EM_MAX_ITER", 7)
        s = sample(ProcessSpec("ar", 16, a=(0.5,), sigma2=0.64), 8, 500).scm
        work = {}
        out = em_toeplitz(s, work=work)
        assert work == {"iterations": 7, "converged": False}
        assert np.array_equal(out, em_toeplitz(s))

    def test_work_reports_convergence(self):
        """White data at its own mean variance is the flat spectrum's block,
        so the first update changes nothing."""
        work = {}
        em_toeplitz(np.eye(5), work=work)
        assert work == {"iterations": 1, "converged": True}

    def test_large_dimension_structure(self, monkeypatch):
        p = 1024
        s = sample_cov(np.random.default_rng(6).normal(size=(4, p)))
        *_, (spec, cp) = _em_iterates(s, 2 * p, 3, 1e-7, 1e-10)
        assert spec.min() >= 0.0
        monkeypatch.setattr(baselines, "_EM_MAX_ITER", 3)
        out = em_toeplitz(s)
        assert np.array_equal(out, cp)
        assert np.array_equal(out[1:, 1:], out[:-1, :-1])  # Toeplitz
        assert np.array_equal(out, out.T)


class TestShrink:
    def test_const_target_hand_example(self):
        s = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert np.allclose(shrink(s, "const", rho=1.0), [[3.0, 2.0], [2.0, 3.0]])

    def test_endpoints(self):
        s = sample_cov(rng.normal(size=(6, 5)))
        assert np.allclose(shrink(s, "const", rho=0.0), s)
        assert np.allclose(shrink(s, "avg", rho=1.0), toeplitz_avg(s).dense())

    def test_avg_midpoint(self):
        s = sample_cov(rng.normal(size=(6, 5)))
        assert np.allclose(shrink(s, "avg", rho=0.5), (s + toeplitz_avg(s).dense()) / 2)

    @pytest.mark.parametrize("target", ["identity", "nope"])
    def test_unknown_target_rejected(self, target):
        """Only the registry's targets exist; the error names them."""
        x = rng.normal(size=(6, 4))
        for call in (lambda: shrink(np.eye(4), target, rho=0.5),
                     lambda: shrink_coefficient(sample_cov(x), target, x)):
            with pytest.raises(ValueError, match=f"unknown shrinkage target '{target}'; known: avg, const"):
                call()

    def test_plugin_weight_in_unit_interval(self):
        x = rng.normal(size=(10, 6))
        rho = shrink_coefficient(sample_cov(x), "const", x)
        assert 0.0 <= rho <= 1.0

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_plugin_weight_matches_per_sample_definition(self, complex_data):
        """The weight is the sum over samples of ||x x^H - S||_F^2 over
        n (n - 1), over the squared distance to the target."""
        chol = np.linalg.cholesky(true_cm(ProcessSpec("ar", 8, a=(0.8,), sigma2=1.0)).dense())
        local = np.random.default_rng(2)
        z = local.normal(size=(12, 8))
        if complex_data:
            z = (z + 1j * local.normal(size=(12, 8))) / np.sqrt(2)
        x = z @ chol.T
        s = sample_cov(x)
        var = sum(np.linalg.norm(np.outer(row, np.conj(row)) - s) ** 2 for row in x) / (12 * 11)
        weight = var / np.linalg.norm(s - shrink(s, "const", rho=1.0)) ** 2
        assert 0.0 < weight < 1.0
        assert shrink_coefficient(s, "const", x) == pytest.approx(weight, rel=1e-13)

    def test_plugin_shrinks_more_with_fewer_samples(self):
        spec = ProcessSpec("ar", 12, a=(0.5,), sigma2=1.0)
        few = np.mean(
            [
                shrink_coefficient(sample(spec, 4, 100 + t).scm, "const", sample(spec, 4, 100 + t).samples)
                for t in range(10)
            ]
        )
        many = np.mean(
            [
                shrink_coefficient(sample(spec, 64, 200 + t).scm, "const", sample(spec, 64, 200 + t).samples)
                for t in range(10)
            ]
        )
        assert few > many

    def test_const_target_output_pd(self):
        for _ in range(1000):
            x = rng.normal(size=(int(rng.integers(2, 6)), 8))
            s = sample_cov(x)
            rho = shrink_coefficient(s, "const", x)
            est = shrink(s, "const", rho)
            if rho > 0:
                assert np.linalg.eigvalsh(est).min() > 0

    def test_weight_where_the_scm_underflows(self):
        """Samples of 1e-300 square to an all-zero SCM, whose distance to any
        target is zero: the weight is one, not the NaN of a unit scale whose
        square underflows."""
        x = 1e-300 * rng.normal(size=(6, 4))
        s = sample_cov(x)
        assert not s.any()
        for target in ("avg", "const"):
            rho = shrink_coefficient(s, target, x)
            assert rho == 1.0
            assert not shrink(s, target, rho).any()

    def test_bad_rho_rejected(self):
        with pytest.raises(ValueError):
            shrink(np.eye(3), "const", rho=1.5)

    @pytest.mark.parametrize("target", ["avg", "const"])
    def test_registry_builds_the_target_once(self, monkeypatch, target):
        """A registry fit builds its target once, and returns bit for bit
        ``shrink`` at ``shrink_coefficient``'s weight, which build it once
        each."""
        data = sample(ProcessSpec("arma", 12, a=(0.7,), b=(0.3,), sigma2=0.64), 32, 4)
        rho = shrink_coefficient(data.scm, target, data.samples)
        want = shrink(data.scm, target, rho)
        builds = []
        real_target = baselines._shrink_target

        def counted(scm, name):
            builds.append(name)
            return real_target(scm, name)

        monkeypatch.setattr(baselines, "_shrink_target", counted)
        cm, _, meta, _ = ESTIMATORS[f"shrink_{target}"].fit(data)
        assert builds == [target]
        assert meta["rho"] == rho and 0.0 < rho < 1.0
        assert np.array_equal(cm, want)


SCALE_DATA = sample(ProcessSpec("arma", 12, a=(0.7,), b=(0.3,), sigma2=0.64), 16, 2)


@pytest.mark.parametrize("scale", [1e-100, 1e100])
@pytest.mark.parametrize("name", sorted(n for n, info in ESTIMATORS.items() if info.kind == "baseline"))
def test_registry_baseline_is_scale_equivariant(name, scale):
    """Samples times c give c^2 times the unit-scale covariance and c^-2 times
    its precision, to 1e-12 relative, with the same bandwidth, iteration
    count and, to 1e-12, shrinkage weight; no RuntimeWarning (an error under
    the test settings).  At c = 1e-100 the CV risks and the shrinkage moments
    underflowed (banding picked another bandwidth, shrink_const was 45% off)
    and em's inverse overflowed to NaN; at c = 1e100 their squares overflowed
    (em NaN, the shrinkage weight NaN)."""
    info = ESTIMATORS[name]
    cm, icm, meta, _ = info.fit(SCALE_DATA)
    cm_c, icm_c, meta_c, _ = info.fit(SampleSet(scale * SCALE_DATA.samples))
    assert rel_err(cm_c / scale**2, cm) <= 1e-12
    if info.supports_icm:
        assert rel_err(icm_c * scale**2, icm) <= 1e-12
    assert meta_c.pop("rho", 0.0) == pytest.approx(meta.pop("rho", 0.0), rel=1e-12, abs=0)
    assert meta_c == meta
