import numpy as np
import pytest

from toepcov.baselines import sample_cov
from toepcov.constraints import EPS0
from toepcov.likelihood import (
    DegenerateDataError,
    GsObjective,
    LikelihoodContext,
    ProfiledObjective,
    SampleSet,
    grad,
    loglik,
)
from toepcov.toeplitz import (
    GsParams,
    NotPositiveDefiniteError,
    UnstableARError,
    ar_to_autocov,
    ar_to_gs,
    gs_assemble,
)

rng = np.random.default_rng(555)


def feasible_alpha(p, complex_case=False, scale=None, order=None):
    """Random feasible point; ``order`` zeroes the coefficients past it."""
    scale = scale if scale is not None else 0.4 / max(p, 3)
    rest = rng.normal(size=p - 1) * scale
    if complex_case:
        rest = rest + 1j * rng.normal(size=p - 1) * scale
    if order is not None:
        rest[order:] = 0.0
    return GsParams(float(rng.uniform(0.5, 2.5)), rest)


def random_context(p, n=6, complex_case=False):
    x = rng.normal(size=(n, p))
    if complex_case:
        x = (x + 1j * rng.normal(size=(n, p))) / np.sqrt(2)
    return LikelihoodContext(sample_cov(x), n)


def fd_loglik_grad(ctx, alpha, support, h=1e-6):
    base = alpha.full
    complex_case = np.iscomplexobj(base)
    out = np.zeros(len(support), dtype=complex if complex_case else float)
    for j, idx in enumerate(support):
        steps = [h] if idx == 0 or not complex_case else [h, 1j * h]
        parts = []
        for step in steps:
            up = base.astype(complex if complex_case else float).copy()
            dn = up.copy()
            up[idx] += step
            dn[idx] -= step
            parts.append(
                (loglik(ctx, GsParams.from_full(up)) - loglik(ctx, GsParams.from_full(dn)))
                / (2 * h)
            )
        out[j] = parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]
    return out


class TestLoglik:
    def test_white_noise_identity(self):
        ctx = LikelihoodContext(np.eye(7), 4)
        assert loglik(ctx, GsParams(1.0, np.zeros(6))) == pytest.approx(-7.0)

    def test_scaled_white_noise(self):
        ctx = LikelihoodContext(np.eye(2), 4)
        want = 2 * np.log(2.0) - 4.0
        assert loglik(ctx, GsParams(2.0, np.zeros(1))) == pytest.approx(want)

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_matches_dense(self, complex_case):
        """Full and lower orders, down to white noise, and P = 2, 3, where
        the two table corners the value reads overlap; the gradient matches
        the dense path at the same points."""
        low = [(2, 1), (3, 1), (3, 2), (9, 0), (12, 3), (20, 6)]
        for p, order in low + [(int(rng.integers(2, 24)), None) for _ in range(25)]:
            ctx = random_context(p, complex_case=complex_case)
            alpha = feasible_alpha(p, complex_case, order=order)
            gam = gs_assemble(alpha)
            want = np.linalg.slogdet(gam)[1].real - np.real(np.trace(gam @ ctx.scm))
            assert loglik(ctx, alpha) == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert np.allclose(grad(ctx, alpha), grad(ctx, alpha, dense=True), rtol=1e-9, atol=1e-9)

    def test_deterministic(self):
        ctx = random_context(12)
        alpha = feasible_alpha(12)
        assert loglik(ctx, alpha) == loglik(ctx, alpha)

    def test_not_pd_raises(self):
        ctx = LikelihoodContext(np.eye(4), 2)
        with pytest.raises((NotPositiveDefiniteError, UnstableARError)):
            loglik(ctx, GsParams(1.0, np.array([-1.2, 0.0, 0.0])))


class TestGrad:
    def test_zero_at_population_optimum(self):
        cov = ar_to_autocov([0.5], 0.75, 8).dense()
        ctx = LikelihoodContext(cov, 100)
        g = grad(ctx, ar_to_gs([0.5], 0.75, 8), [0, 1])
        assert np.abs(g).max() < 1e-12

    def test_support_restriction(self):
        ctx = random_context(10)
        alpha = feasible_alpha(10)
        g = grad(ctx, alpha, [0])
        assert g.shape == (1,)
        full = grad(ctx, alpha)
        assert g[0] == pytest.approx(full[0])

    @pytest.mark.parametrize("p", [8, 16, 32])
    def test_matches_finite_differences(self, p):
        """Full and lower orders, and the white-noise start of the fits:
        order 0 with the gradient over coefficients 0..6."""
        ctx = random_context(p)
        for order in (None, None, None, None, None, 3, 1, 0):
            alpha = feasible_alpha(p, order=order)
            support = sorted(set([0]) | set(map(int, rng.integers(1, p, size=3))))
            if order == 0:
                support = list(range(7))
            fast = grad(ctx, alpha, support)
            dense = grad(ctx, alpha, support, dense=True)
            fd = fd_loglik_grad(ctx, alpha, support)
            assert np.allclose(fast, dense, atol=1e-8, rtol=1e-8)
            rel = np.abs(fast - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() < 1e-5

    def test_complex_case_matches_finite_differences(self):
        """Full and lower orders, the white-noise start and P = 2, 3."""
        low = [(2, None), (3, None), (3, 1), (12, 0), (12, 3)]
        for p, order in low + [(int(rng.integers(3, 14)), None) for _ in range(10)]:
            ctx = random_context(p, complex_case=True)
            alpha = feasible_alpha(p, complex_case=True, order=order)
            support = list(range(7)) if order == 0 else [0, 1, p - 1]
            fast = grad(ctx, alpha, support)
            dense = grad(ctx, alpha, support, dense=True)
            fd = fd_loglik_grad(ctx, alpha, support)
            assert np.allclose(fast, dense, atol=1e-8)
            rel = np.abs(fast - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() < 1e-5

    def test_bad_support_rejected(self):
        ctx = random_context(6)
        with pytest.raises(ValueError):
            grad(ctx, feasible_alpha(6), [0, 6])


class TestObjectiveCache:
    def test_value_and_gradient_consistent(self):
        ctx = random_context(12)
        obj = GsObjective(ctx)
        alpha = feasible_alpha(12)
        assert obj.value(alpha) == pytest.approx(loglik(ctx, alpha))
        assert np.allclose(obj.gradient(alpha, [0, 1, 2]), grad(ctx, alpha, [0, 1, 2]))


class TestProfiledObjective:
    """The likelihood with the scale maximized out, over the ratios u."""

    CASES = [(2, 1), (3, 1), (3, 2), (16, 1), (16, 3), (16, 15), (128, 1), (128, 3)]

    @staticmethod
    def central_differences(fn, x, h=1e-5):
        return np.array([(fn(x + h * e) - fn(x - h * e)) / (2 * h) for e in np.eye(x.size)])

    @pytest.mark.parametrize("complex_case", [False, True])
    @pytest.mark.parametrize("factor", [1.0, 1e4], ids=["interior", "floor"])
    def test_matches_loglik_and_central_differences(self, complex_case, factor):
        """Value against ``loglik`` at (alpha_0*(u), u); exact gradient and
        Hessian against central differences.  Off the floor the likelihood's
        derivative along the scale direction (alpha_0..alpha_w) vanishes.
        Samples times 1e4 put the best scale P/q below EPS0, on the floor."""
        for p, order in self.CASES:
            x = rng.normal(size=(6, p))
            if complex_case:
                x = (x + 1j * rng.normal(size=(6, p))) / np.sqrt(2)
            ctx = LikelihoodContext(sample_cov(factor * x), 6)
            prof = ProfiledObjective(ctx, order)
            point = rng.normal(size=order * (2 if complex_case else 1)) * 0.3 / order
            alpha = prof.params(point)
            assert alpha.order == order and np.iscomplexobj(alpha.alpha_rest) == complex_case
            assert (alpha.alpha0 == EPS0) == (factor > 1)
            want = loglik(ctx, alpha)
            assert abs(prof.value(point) - want) <= 1e-13 * abs(want)
            along_scale = np.real(np.vdot(grad(ctx, alpha, range(order + 1)), alpha.full[: order + 1]))
            assert (abs(along_scale) < 1e-12 * max(1.0, abs(want))) == (factor == 1.0)
            g, hess = prof.derivatives(point)
            fd_g = self.central_differences(prof.value, point)
            fd_hess = self.central_differences(lambda y: prof.derivatives(y)[0], point)
            assert np.abs(g - fd_g).max() <= 1e-7 * max(1.0, np.abs(fd_g).max())
            assert np.abs(hess - fd_hess).max() <= 1e-7 * max(1.0, np.abs(fd_hess).max())
            assert np.allclose(hess, hess.T, rtol=0, atol=1e-12 * max(1.0, np.abs(hess).max()))


class TestGradScaling:
    def test_quadratic_soft_bound(self):
        """Doubling the dimension multiplies one gradient evaluation by at most 5."""
        import time

        times = {}
        for p in (64, 128):
            ctx = random_context(p, n=8)
            ctx.scm_sums
            alpha = feasible_alpha(p)
            obj = GsObjective(ctx)
            support = list(range(7))
            obj.gradient(alpha, support)
            reps = 30
            best = np.inf
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(reps):
                    obj._cache.clear()
                    obj.gradient(alpha, support)
                best = min(best, (time.perf_counter() - start) / reps)
            times[p] = best
        assert times[128] <= 5.0 * times[64] + 1e-4


class TestSampleSet:
    def test_scm_matches_two_pass(self):
        x = rng.normal(size=(5, 9))
        data = SampleSet(x)
        want = sum(np.outer(row, row) for row in x) / 5
        assert np.allclose(data.scm, want, atol=1e-12)
        ctx = data.context()
        assert ctx.p == 9 and ctx.n == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        x = rng.normal(size=(4, 6))
        x[2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            SampleSet(x)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateDataError, match="all zero"):
            SampleSet(np.zeros((4, 6)))
        assert issubclass(DegenerateDataError, ValueError)


class TestLikelihoodContext:
    def test_zero_trace_rejected(self):
        with pytest.raises(DegenerateDataError, match="not positive"):
            LikelihoodContext(np.zeros((5, 5)), 3)

    def test_non_finite_trace_rejected(self):
        scm = np.eye(5)
        scm[1, 1] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            LikelihoodContext(scm, 3)
