import numpy as np
import pytest

from toepcov.baselines import sample_cov, toeplitz_avg
from toepcov.processes import ProcessSpec, coloring, nmse, sample, true_cm
from toepcov.toeplitz import NotPositiveDefiniteError, toeplitz_logdet

rng = np.random.default_rng(2718)


class TestTrueCm:
    def test_fbm_half_is_identity(self):
        assert np.allclose(true_cm(ProcessSpec("fbm", 6, h=0.5)).dense(), np.eye(6))

    def test_ma1_hand_values(self):
        c = true_cm(ProcessSpec("ma", 5, b=(0.5,), sigma2=1.0)).first_col
        assert np.allclose(c, [1.25, 0.5, 0.0, 0.0, 0.0])

    def test_ar1_hand_values(self):
        c = true_cm(ProcessSpec("ar", 4, a=(0.5,), sigma2=0.75)).first_col
        assert np.allclose(c, [1.0, 0.5, 0.25, 0.125])

    def test_arma_matches_long_ma_expansion(self):
        a, b, sigma2 = 0.7, 0.3, 0.64
        c = true_cm(ProcessSpec("arma", 8, a=(a,), b=(b,), sigma2=sigma2)).first_col
        # impulse response of (1 + b z^-1) / (1 - a z^-1)
        taps = np.zeros(4000)
        taps[0] = 1.0
        taps[1] = a + b
        for k in range(2, taps.size):
            taps[k] = a * taps[k - 1]
        want = [sigma2 * np.dot(taps[: taps.size - k], taps[k:]) for k in range(8)]
        assert np.allclose(c, want, rtol=1e-10)

    def test_all_benchmark_settings_pd(self):
        specs = [
            ProcessSpec("ar", 64, a=(0.5,), sigma2=0.64),
            ProcessSpec("ar", 64, a=(0.5, 0.2, 0.05), sigma2=0.64),
            ProcessSpec("ma", 64, b=(0.5, 0.2, 0.05), sigma2=0.64),
            ProcessSpec("arma", 64, a=(0.7,), b=(0.3,), sigma2=0.64),
            ProcessSpec("fbm", 64, h=0.7),
        ]
        for spec in specs:
            toeplitz_logdet(true_cm(spec))  # raises when not PD

    def test_fbm_decreasing_positive(self):
        for h in (0.6, 0.75, 0.9, 1.0):
            c = true_cm(ProcessSpec("fbm", 32, h=h)).first_col
            assert np.all(c >= 0.0)
            assert np.all(np.diff(c[1:]) <= 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProcessSpec("fbm", 8, h=0.3)
        with pytest.raises(ValueError):
            ProcessSpec("ar", 8, a=(0.5,), sigma2=0.0)
        with pytest.raises(ValueError):
            ProcessSpec("pink", 8)


class TestSample:
    def test_singular_truth_not_sampled(self):
        """fBm at H = 1 is a valid process whose covariance has rank one."""
        spec = ProcessSpec("fbm", 8, h=1.0)
        with pytest.raises(NotPositiveDefiniteError, match="process covariance is not positive definite"):
            coloring(spec)
        with pytest.raises(NotPositiveDefiniteError):
            sample(spec, 4, 0)

    def test_seed_determinism(self):
        spec = ProcessSpec("ar", 12, a=(0.5,), sigma2=0.64)
        a = sample(spec, 5, 99).samples
        b = sample(spec, 5, 99).samples
        assert a.tobytes() == b.tobytes()
        c = sample(spec, 5, 100).samples
        assert a.tobytes() != c.tobytes()

    def test_large_sample_covariance(self):
        spec = ProcessSpec("ar", 4, a=(0.5,), sigma2=0.64)
        data = sample(spec, 1_000_000, 7)
        truth = true_cm(spec).dense()
        avg = toeplitz_avg(sample_cov(data.samples)).dense()
        assert np.linalg.norm(avg - truth) / np.linalg.norm(truth) < 0.02
        emp = sample_cov(data.samples)
        assert np.abs(emp - truth).max() / truth[0, 0] < 0.01

    def test_mean_is_near_zero(self):
        spec = ProcessSpec("ma", 8, b=(0.4,), sigma2=1.0)
        data = sample(spec, 4000, 11)
        sigma = np.sqrt(true_cm(spec).first_col[0])
        bound = 4.0 * sigma / np.sqrt(4000)
        assert np.abs(data.samples.mean(axis=0)).max() < bound


class TestNmse:
    def test_exact_match(self):
        truth = rng.normal(size=(5, 5))
        assert nmse(truth, truth) == 0.0

    def test_zero_estimate(self):
        truth = rng.normal(size=(4, 4))
        assert nmse(np.zeros_like(truth), truth) == pytest.approx(1.0)

    def test_doubling(self):
        truth = rng.normal(size=(4, 4))
        assert nmse(2 * truth, truth) == pytest.approx(1.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nmse(np.eye(3), np.eye(4))
