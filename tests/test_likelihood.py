import numpy as np
import pytest

from toepcov.baselines import sample_cov
from toepcov.constraints import DEFAULT_FAMILIES, EPS_EIG, box_spec_for, frob_constraint
from toepcov import estimators
from toepcov.estimators import estimate_eig, estimate_frob, estimate_pgd
from toepcov.likelihood import (
    DegenerateDataError,
    GsObjective,
    LikelihoodContext,
    SampleSet,
    _GsFactors,
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
    gs_factor_b,
    gs_factor_z,
    gs_to_ar,
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


def grad_dense(ctx, alpha, support=None):
    """O(P^3) dense-matrix gradient, the oracle for :func:`grad`'s table
    kernels.  Like :func:`grad` it raises where the matrix is not positive
    definite."""
    loglik(ctx, alpha)
    p = ctx.p
    support = range(p) if support is None else support
    a0 = alpha.alpha0
    a, sigma2 = gs_to_ar(alpha)
    m = ar_to_autocov(a, sigma2, p).dense() - ctx.scm
    b = gs_factor_b(alpha).dense()
    z = gs_factor_z(alpha).dense()
    gamma = gs_assemble(alpha)
    shift = np.eye(p, k=-1)
    complex_out = np.iscomplexobj(alpha.full)
    out = np.zeros(len(support), dtype=np.complex128 if complex_out else np.float64)
    for pos, i in enumerate(support):
        if i == 0:
            out[pos] = np.real(np.trace(m @ (b + b.conj().T - gamma))) / a0
        else:
            tb = np.trace(m @ b @ np.linalg.matrix_power(shift, i).T)
            tz = np.trace(m @ z @ np.linalg.matrix_power(shift, p - i).T)
            out[pos] = 2.0 / a0 * (tb - np.conj(tz) if complex_out else np.real(tb - tz))
    return out


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
        the dense oracle at the same points."""
        low = [(2, 1), (3, 1), (3, 2), (9, 0), (12, 3), (20, 6)]
        for p, order in low + [(int(rng.integers(2, 24)), None) for _ in range(25)]:
            ctx = random_context(p, complex_case=complex_case)
            alpha = feasible_alpha(p, complex_case, order=order)
            gam = gs_assemble(alpha)
            want = np.linalg.slogdet(gam)[1].real - np.real(np.trace(gam @ ctx.scm))
            assert loglik(ctx, alpha) == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert np.allclose(grad(ctx, alpha), grad_dense(ctx, alpha), rtol=1e-9, atol=1e-9)

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
            dense = grad_dense(ctx, alpha, support)
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
            dense = grad_dense(ctx, alpha, support)
            fd = fd_loglik_grad(ctx, alpha, support)
            assert np.allclose(fast, dense, atol=1e-8)
            rel = np.abs(fast - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() < 1e-5

    def test_bad_support_rejected(self):
        ctx = random_context(6)
        with pytest.raises(ValueError):
            grad(ctx, feasible_alpha(6), [0, 6])


class TestFitReports:
    """A Newton fit reports the log-likelihood and gradient of the objective it
    maximized; they match the public P-length references ``loglik`` and
    ``grad``, also for fits stopped after one iteration, far from
    stationarity."""

    @pytest.mark.parametrize("capped", [False, True], ids=["converged", "capped"])
    @pytest.mark.parametrize("complex_case", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("name", ["pgd", "frob", "eig"])
    def test_loglik_and_grad_norm_match_public_references(self, name, complex_case, capped, monkeypatch):
        p, order = 16, 3
        ctx = random_context(p, n=8, complex_case=complex_case)
        if capped:
            for cap in ("_MAX_ITER", "_BARRIER_MAX_ITER", "_BARRIER_ROUNDS"):
                monkeypatch.setattr(estimators, cap, 1)
        if name == "pgd":
            spec = box_spec_for(DEFAULT_FAMILIES[1], p)
            rep = estimate_pgd(ctx, spec, order)
            hi = spec.k[:order]
        else:
            rep = (estimate_frob if name == "frob" else estimate_eig)(ctx, order)
            hi = np.full(order, np.inf)
        alpha = rep.alpha
        want = loglik(ctx, alpha)
        assert abs(rep.loglik - want) <= 1e-13 * abs(want)
        # the gradient in u = alpha_rest / alpha_0 with the scale maximized out
        # is alpha_0 times the gradient in alpha_rest; the box halves per part
        g = alpha.alpha0 * grad(ctx, alpha, range(1, order + 1))
        u = alpha.alpha_rest[:order] / alpha.alpha0
        if complex_case:
            g, u, hi = np.concatenate((g.real, g.imag)), np.concatenate((u.real, u.imag)), np.tile(hi / 2, 2)
        norm = np.linalg.norm(np.clip(u + g, -hi, hi) - u)
        assert abs(rep.grad_norm - norm) <= 1e-8 * norm + 1e-12 * abs(want)
        if capped:
            assert norm > 1e-6


class TestProfiledObjective:
    """:class:`GsObjective`, the likelihood with the scale maximized out, over
    the ratios u."""

    CASES = [(2, 1), (3, 1), (3, 2), (16, 1), (16, 3), (16, 15), (128, 1), (128, 3)]

    @staticmethod
    def central_differences(fn, x, h=1e-5):
        return np.array([(fn(x + h * e) - fn(x - h * e)) / (2 * h) for e in np.eye(x.size)])

    @pytest.mark.parametrize("complex_case", [False, True])
    @pytest.mark.parametrize("factor", [1.0, 1e4], ids=["interior", "large"])
    def test_matches_loglik_and_central_differences(self, complex_case, factor):
        """Value against ``loglik`` at (alpha_0*(u), u); exact gradient and
        Hessian against central differences.  alpha_0* is P / q with q =
        tr(Gamma S) / alpha_0, and the likelihood's derivative along the
        scale direction (alpha_0..alpha_w) vanishes, also for samples times
        1e4, whose best scale lies below the old absolute floor 1e-6."""
        for p, order in self.CASES:
            x = rng.normal(size=(6, p))
            if complex_case:
                x = (x + 1j * rng.normal(size=(6, p))) / np.sqrt(2)
            ctx = LikelihoodContext(sample_cov(factor * x), 6)
            prof = GsObjective(ctx, order)
            point = rng.normal(size=order * (2 if complex_case else 1)) * 0.3 / order
            alpha = prof.params(point)
            assert alpha.order == order and np.iscomplexobj(alpha.alpha_rest) == complex_case
            q = np.real(np.trace(gs_assemble(alpha) @ ctx.scm)) / alpha.alpha0
            assert alpha.alpha0 == pytest.approx(p / q, rel=1e-12)
            want = loglik(ctx, alpha)
            assert abs(prof.loglik(point) - want) <= 1e-13 * abs(want)
            along_scale = np.real(np.vdot(grad(ctx, alpha, range(order + 1)), alpha.full[: order + 1]))
            assert abs(along_scale) < 1e-12 * max(1.0, abs(want))
            g, hess = prof.gradient(point)
            fd_g = self.central_differences(prof.value, point)
            fd_hess = self.central_differences(lambda y: prof.gradient(y)[0], point)
            assert np.abs(g - fd_g).max() <= 1e-7 * max(1.0, np.abs(fd_g).max())
            assert np.abs(hess - fd_hess).max() <= 1e-7 * max(1.0, np.abs(fd_hess).max())
            assert np.allclose(hess, hess.T, rtol=0, atol=1e-12 * max(1.0, np.abs(hess).max()))

    @pytest.mark.parametrize("complex_case", [False, True], ids=["real", "complex"])
    def test_gain_is_the_increase_over_white_noise(self, complex_case):
        """``value(x) = loglik(x) - loglik(0)``, and unlike the loglik (which
        moves by ``-2 P log c``) it does not change when the data are scaled by
        c, up to x1e6 (the data have power 0.5 per entry)."""
        for p, order in self.CASES:
            x = rng.normal(size=(6, p))
            if complex_case:
                x = (x + 1j * rng.normal(size=(6, p))) / np.sqrt(2)
            x *= np.sqrt(0.5 * x.size / np.sum(np.abs(x) ** 2))
            point = rng.normal(size=order * (2 if complex_case else 1)) * 0.3 / order
            gains = []
            for factor in (1.0, 1e-4, 1e-2, 1e2, 1e3, 1e4, 1e6):
                prof = GsObjective(LikelihoodContext(sample_cov(factor * x), 6), order)
                value, gain = prof.loglik(point), prof.value(point)
                white = prof.loglik(np.zeros_like(point))
                assert abs(gain - (value - white)) <= 1e-12 * (1 + abs(value))
                gains.append(gain)
            assert np.abs(np.array(gains) - gains[0]).max() <= 1e-12 * abs(gains[0])

    @pytest.mark.parametrize("complex_case", [False, True], ids=["real", "complex"])
    def test_memo_serves_only_its_own_point(self, complex_case):
        """The memo holds one point: after ``gradient(x1)`` and ``value(x2)``,
        ``gradient`` at x2 and then at x1 equals a fresh objective's, bit for
        bit, so it never serves the derivatives of another point."""
        ctx = random_context(16, complex_case=complex_case)
        x1, x2 = (rng.normal(size=6 if complex_case else 3) * 0.1 for _ in range(2))
        prof = GsObjective(ctx, 3)
        prof.gradient(x1)
        prof.value(x2)
        for x in (x2, x1):
            for got, want in zip(prof.gradient(x), GsObjective(ctx, 3).gradient(x)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("complex_case", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("name", ["pgd", "frob"])
    def test_derivatives_once_per_point(self, name, complex_case, monkeypatch):
        """Within a fit the derivative kernel runs once per distinct point
        that ``gradient`` is asked at, and the report's final read is served
        by the memo."""
        kernel_points, reads = [], []
        kernel, gradient = GsObjective._derivatives_at, GsObjective.gradient

        def counted_kernel(self, x):
            kernel_points.append(x.tobytes())
            return kernel(self, x)

        def counted_gradient(self, x):
            before = len(kernel_points)
            out = gradient(self, x)
            reads.append((x.tobytes(), len(kernel_points) > before))
            return out

        monkeypatch.setattr(GsObjective, "_derivatives_at", counted_kernel)
        monkeypatch.setattr(GsObjective, "gradient", counted_gradient)
        for order in (1, 3, 6):
            kernel_points.clear()
            reads.clear()
            ctx = random_context(16, n=8, complex_case=complex_case)
            if name == "pgd":
                estimate_pgd(ctx, box_spec_for(DEFAULT_FAMILIES[1], 16), order)
            else:
                estimate_frob(ctx, order)
            assert len(kernel_points) == len(set(kernel_points)) == len({key for key, _ in reads})
            assert reads[-1] == (kernel_points[-1], False)


class TestGsFactors:
    """The GS-factor kernel against central differences, in the real vector
    x of the ratios u (real, then imaginary parts)."""

    @staticmethod
    def point(factors):
        return rng.normal(size=factors.jac.shape[1]) * 0.3 / factors.jac.shape[0]

    @staticmethod
    def assert_matches(got, fn, x, h=1e-5):
        want = TestProfiledObjective.central_differences(fn, x, h)
        assert np.abs(got - want).max() <= 1e-7 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("complex_case", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("order", [1, 3, 6])
    def test_eigenvalue_barrier(self, order, complex_case):
        """At n = P, gradient and Hessian of log det(G - EPS_EIG I) for the
        P-square assembly G of (1, u, 0, ..., 0)."""
        p = 16
        factors = _GsFactors(p, order, complex_case)
        jac = factors.jac

        def slack_matrix(x):
            padded = np.concatenate((jac @ x, np.zeros(p - 1 - order)))
            return gs_assemble(GsParams(1.0, padded)) - EPS_EIG * np.eye(p)

        def logdet(x):
            sign, value = np.linalg.slogdet(slack_matrix(x))
            assert sign > 0
            return value

        def derivatives(x):
            return factors.logdet_derivatives(jac @ x, np.linalg.inv(slack_matrix(x)))

        x = self.point(factors)
        g, hess = derivatives(x)
        self.assert_matches(g, logdet, x)
        self.assert_matches(hess, lambda y: derivatives(y)[0], x)
        assert np.allclose(hess, hess.T, rtol=0, atol=1e-12 * np.abs(hess).max())

    @pytest.mark.parametrize("complex_case", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("order", [1, 3, 6])
    def test_frobenius_gain_hessian(self, order, complex_case):
        """At n = w + 1, the Hessian of the squared Frobenius gain of (1, u)
        against differences of ``frob_constraint``'s exact gradient."""
        factors = _GsFactors(order + 1, order, complex_case)
        jac = factors.jac

        def gain_grad(x):
            g = frob_constraint(GsParams(1.0, jac @ x))[1][1:]
            return np.concatenate((g.real, g.imag)) if complex_case else g

        x = self.point(factors)
        hess = factors.gain_hessian(jac @ x)
        self.assert_matches(hess, gain_grad, x)
        assert np.allclose(hess, hess.T, rtol=0, atol=1e-12 * np.abs(hess).max())


class TestGradScaling:
    def test_quadratic_soft_bound(self):
        """Doubling the dimension multiplies one gradient evaluation by at most 5."""
        import time

        times = {}
        for p in (64, 128):
            ctx = random_context(p, n=8)
            ctx.scm_sums
            alpha = feasible_alpha(p)
            support = list(range(7))
            grad(ctx, alpha, support)
            reps = 30
            best = np.inf
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(reps):
                    grad(ctx, alpha, support)
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
