import collections

import numpy as np
import pytest

from toepcov.baselines import (
    MaskSpec,
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
from toepcov.processes import ProcessSpec, sample, true_cm
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


class TestEmToeplitz:
    def test_identity_fixed_point_at_full_embedding(self):
        out = em_toeplitz(np.eye(5), g=5, max_iter=4)
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
        out = em_toeplitz(s, g=20)
        assert np.allclose(out, out.T, atol=1e-12)

    def test_matches_circulant_likelihood_at_full_embedding(self):
        s = sample(ProcessSpec("ar", 8, a=(0.4,), sigma2=1.0), 16, 9).scm
        em = em_toeplitz(s, g=8, max_iter=500, tol=1e-12)
        circ = circulant_mle(s)

        def gauss_ll(cm):
            return -np.linalg.slogdet(cm)[1] - np.trace(np.linalg.solve(cm, s))

        assert gauss_ll(em) == pytest.approx(gauss_ll(circ), abs=1e-6)

    def test_embedding_size_validated(self):
        with pytest.raises(ValueError):
            em_toeplitz(np.eye(8), g=4)

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_iterates_match_dense_oracle(self, complex_data):
        for p in (1, 2, 5, 16):
            s = random_scm(p, 3, complex_data, 70 + p)
            for g in (p, 2 * p, 2 * p + 1, 3 * p):
                got = list(_em_iterates(s, g, 25, 1e-9, 1e-10))
                want = list(oracle_em_iterates(s, g, 25, 1e-9, 1e-10))
                assert len(got) == len(want)
                for (spec, cp), (spec_o, cp_o) in zip(got, want):
                    assert rel_err(spec, spec_o) <= 1e-12
                    assert rel_err(cp, cp_o) <= 1e-12

    def test_real_data_stays_real(self):
        s = random_scm(6, 3, False, 1)
        assert all(not np.iscomplexobj(cp) for _, cp in _em_iterates(s, 12, 5, 0.0, 1e-10))

    def test_work_reports_iterations_at_max_iter(self):
        s = sample(ProcessSpec("ar", 16, a=(0.5,), sigma2=0.64), 8, 500).scm
        work = {}
        out = em_toeplitz(s, max_iter=7, work=work)
        assert work == {"iterations": 7, "converged": False}
        assert np.array_equal(out, em_toeplitz(s, max_iter=7))

    def test_work_reports_convergence(self):
        work = {}
        em_toeplitz(np.eye(5), g=5, max_iter=4, work=work)
        assert work == {"iterations": 1, "converged": True}

    def test_large_dimension_structure(self):
        p = 1024
        s = sample_cov(np.random.default_rng(6).normal(size=(4, p)))
        *_, (spec, cp) = _em_iterates(s, 2 * p, 3, 1e-7, 1e-10)
        assert spec.min() >= 0.0
        out = em_toeplitz(s, max_iter=3)
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
        t = shrink(s, "identity", rho=1.0)
        assert np.allclose(t, np.trace(s) / 5 * np.eye(5))

    def test_identity_midpoint(self):
        assert np.allclose(shrink(np.eye(4), "identity", rho=0.5), np.eye(4))

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
            est = shrink(s, "const", samples=x)
            rho = shrink_coefficient(s, "const", x)
            if rho > 0:
                assert np.linalg.eigvalsh(est).min() > 0

    def test_requires_rho_or_samples(self):
        with pytest.raises(ValueError):
            shrink(np.eye(3), "const")

    def test_bad_rho_rejected(self):
        with pytest.raises(ValueError):
            shrink(np.eye(3), "const", rho=1.5)
