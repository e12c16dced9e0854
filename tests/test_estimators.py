import dataclasses
import functools
import itertools
import warnings

import numpy as np
import pytest

from toepcov.baselines import sample_cov
from toepcov.constraints import DEFAULT_FAMILIES, box_spec_for, spectral_pd_check
from toepcov import bench, constraints, estimators, likelihood, toeplitz
from toepcov.estimators import (
    EstimationReport,
    PgdOptions,
    best_family_fit,
    estimate_eig,
    estimate_frob,
    estimate_pgd,
    estimate_pls,
    tune_box_family,
    tune_order,
    white_noise_report,
)
from toepcov.likelihood import LikelihoodContext, SampleSet, grad, loglik
from toepcov.processes import ProcessSpec, nmse, sample, true_cm
from toepcov.toeplitz import GsParams, ar_to_autocov, gs_to_ar

rng = np.random.default_rng(31337)


def ar1_data(p=16, n=8, a=0.5, sigma2=0.64, seed=0):
    return sample(ProcessSpec("ar", p, a=(a,), sigma2=sigma2), n, seed)


def ma1_data(p=16, n=32, b=0.8, seed=0):
    """MA(1) samples, far from any low AR order: the order scan's likelihood
    bound prunes none of orders 2-7 at P=16, N=32."""
    return sample(ProcessSpec("ma", p, b=(b,), sigma2=0.64), n, seed)


def complex_ar1_data(p=16, n=8, seed=0):
    """Circular complex Gaussian samples with the AR(1) covariance."""
    chol = np.linalg.cholesky(true_cm(ProcessSpec("ar", p, a=(0.5,), sigma2=0.64)).dense())
    local = np.random.default_rng(seed)
    z = (local.standard_normal((n, p)) + 1j * local.standard_normal((n, p))) / np.sqrt(2)
    return SampleSet(z @ chol.T)


@pytest.fixture(scope="module")
def spec16():
    return box_spec_for(DEFAULT_FAMILIES[1], 16)


class TestPgd:
    def test_white_noise_optimum(self):
        ctx = LikelihoodContext(np.eye(8), 16)
        spec = box_spec_for(DEFAULT_FAMILIES[1], 8)
        rep = estimate_pgd(ctx, spec, order=1)
        assert np.allclose(rep.alpha.full, [1.0] + [0.0] * 7, atol=1e-4)
        assert rep.loglik == pytest.approx(-8.0, abs=1e-6)

    def test_population_recovery(self):
        cov = ar_to_autocov([0.5], 0.75, 8).dense()
        ctx = LikelihoodContext(cov, 64)
        spec = box_spec_for(DEFAULT_FAMILIES[2], 8)
        rep = estimate_pgd(ctx, spec, order=1)
        a_rec, _ = gs_to_ar(rep.alpha)
        assert abs(a_rec[0] - 0.5) < 1e-3

    @pytest.mark.parametrize("order", [1, 3])
    def test_monotone_feasible_stationary(self, order, spec16):
        for complex_case, seed in itertools.product((False, True), range(6)):
            ctx = (complex_ar1_data(seed=seed) if complex_case else ar1_data(seed=seed)).context()
            rep = estimate_pgd(ctx, spec16, order, opts=PgdOptions(track_iterates=True))
            objectives = rep.extras["objectives"]
            assert all(b >= a for a, b in zip(objectives, objectives[1:]))
            for alpha in rep.extras["iterates"]:
                assert alpha.alpha0 >= 1e-6
                # complex coefficients keep each part within half the bound
                rest = alpha.alpha_rest
                lim = spec16.k * alpha.alpha0 * (1 + 1e-12)
                if complex_case:
                    assert np.all(np.abs(rest.real) <= lim / 2) and np.all(np.abs(rest.imag) <= lim / 2)
                else:
                    assert np.all(np.abs(rest) <= lim)
                assert spectral_pd_check(alpha)
            assert np.iscomplexobj(rep.alpha.alpha_rest) == complex_case
            assert rep.grad_norm < 1e-5 * (1.0 + abs(rep.loglik))
            assert rep.converged

    @pytest.mark.parametrize(
        "kind, seed, family, order",
        [("ma", 300, 1, 4), ("ma", 300, 1, 5), ("ma", 300, 1, 6), ("ar", 107, 0, 4)],
    )
    def test_converges_where_gradient_ascent_stalled(self, kind, seed, family, order):
        """Fits that projected gradient ascent left unconverged at max_iter."""
        coef = {"b": (0.5,)} if kind == "ma" else {"a": (0.5,)}
        ctx = sample(ProcessSpec(kind, 16, sigma2=0.64, **coef), 8, seed).context()
        rep = estimate_pgd(ctx, box_spec_for(DEFAULT_FAMILIES[family], 16), order)
        assert rep.converged
        assert rep.iterations < estimators._MAX_ITER
        assert rep.grad_norm < 1e-5 * (1.0 + abs(rep.loglik))

    @pytest.mark.parametrize("order", [1, 3])
    def test_scale_profiled_exactly(self, order, spec16):
        """alpha_0 is the exact best scale for the fitted ratios, at unit
        scale and at x1e4 (whose best scale lay below the old absolute floor
        1e-6): the gradient along the scale direction (alpha_0..alpha_w)
        vanishes to rounding, and so does the derivative in log alpha_0 when
        no ratio sits on a bound."""
        for complex_case, seed, factor in itertools.product((False, True), range(6), (1.0, 1e4)):
            data = complex_ar1_data(seed=seed) if complex_case else ar1_data(seed=seed)
            ctx = SampleSet(factor * data.samples).context()
            rep = estimate_pgd(ctx, spec16, order)
            head = rep.alpha.full[: order + 1]
            g = grad(ctx, rep.alpha, range(order + 1))
            tol = 1 + abs(rep.loglik)
            assert abs(np.real(np.vdot(g, head))) < 1e-12 * tol
            lim = spec16.k[:order] / (2 if complex_case else 1) * (1 - 1e-12)
            ratios = head[1:] / head[0]
            if np.all(np.abs(ratios.real) < lim) and np.all(np.abs(ratios.imag) < lim):
                assert abs(g[0]) * head[0].real < 1e-7 * tol

    def test_fit_runs_on_the_traced_objective(self, spec16, monkeypatch):
        """Every likelihood value and gradient of the Newton loop goes through
        ``GsObjective.value`` and ``.gradient``, the calls a benchmark trace
        counts: at least one of each per iteration."""
        calls = {"value": 0, "gradient": 0}

        def counted(name):
            fn = getattr(likelihood.GsObjective, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(likelihood.GsObjective, name, counted(name))
        rep = estimate_pgd(ar1_data(seed=3).context(), spec16, 3)
        assert rep.iterations > 1
        assert min(calls.values()) >= rep.iterations

    def test_objective_shared_per_order(self, spec16):
        """One ``GsObjective`` per context and order; a fit on it gives the
        same report bit for bit whatever ran on it before, here the same fit
        and fits in two other boxes."""
        data = ar1_data(n=32, seed=5)
        ctx = data.context()
        assert ctx.objective(3) is ctx.objective(3)
        assert ctx.objective(2) is not ctx.objective(3)
        first = estimate_pgd(ctx, spec16, 3)
        for family in (DEFAULT_FAMILIES[0], DEFAULT_FAMILIES[4]):
            estimate_pgd(ctx, box_spec_for(family, 16), 3)
        for rep in (estimate_pgd(ctx, spec16, 3), estimate_pgd(data.context(), spec16, 3)):
            assert np.array_equal(rep.alpha.full, first.alpha.full)
            assert (rep.loglik, rep.grad_norm, rep.iterations, rep.converged) == (
                first.loglik, first.grad_norm, first.iterations, first.converged)

    def test_iteration_cap_reported(self, spec16, monkeypatch):
        """A fit stopped by its iteration cap before it converged says so."""
        ctx = ar1_data(seed=0).context()
        assert estimate_pgd(ctx, spec16, 3).iterations > 1
        monkeypatch.setattr(estimators, "_MAX_ITER", 1)
        rep = estimate_pgd(ctx, spec16, 3)
        assert rep.iterations == 1
        assert not rep.converged

    def test_order_bounds(self, spec16):
        ctx = ar1_data().context()
        with pytest.raises(ValueError):
            estimate_pgd(ctx, spec16, 0)
        with pytest.raises(ValueError):
            estimate_pgd(ctx, spec16, 16)

    @pytest.mark.parametrize("white_noise_start", [False, True])
    def test_no_stall_on_tiny_bounds(self, white_noise_start, monkeypatch):
        """At order 12 the exp-1.8 bounds reach 2e-9, so every Newton trial is
        clipped and the Newton line search fails from white noise: the fit
        stopped there, "converged", its projected gradient 0.85 and its
        loglik 2.4 nats short.  The projected gradient arc takes over and
        the fit reaches a stationary point."""
        if white_noise_start:
            monkeypatch.setattr(likelihood.GsObjective, "start", ZERO_START)
        ctx = ar1_data(seed=1).context()
        rep = estimate_pgd(ctx, box_spec_for(DEFAULT_FAMILIES[3], 16), 12)
        assert rep.converged
        assert rep.grad_norm < estimators._STAT_TOL * (1.0 + abs(rep.loglik))
        assert rep.loglik > white_noise_report(ctx).loglik + 2.0

    def test_small_gain_stop_reads_the_returned_point(self):
        """ARMA(1,1) at order 16 in the exp-1.4 box: a step that gains little
        lands where the projected gradient is 0.0175, 13 times the stop
        tolerance.  Read at the point before that step, the stop rule ended
        the fit there, "converged"; read at the point it returns, the fit
        goes on to a stationary point."""
        data = sample(ProcessSpec("arma", 128, a=(0.7,), b=(0.3,), sigma2=0.64), 64, 0)
        rep = estimate_pgd(data.context(), box_spec_for(DEFAULT_FAMILIES[2], 128), 16)
        assert rep.family_id == "exp-1.4"
        assert rep.converged
        assert rep.grad_norm < 1e-5


# The white-noise start of every fit before the closed-form start: an oracle
# for the tuned choices.
ZERO_START = property(lambda self: np.zeros(self._hess_q.shape[0]))


def _oracle_datasets():
    """The datasets the start is checked on, by name."""
    return {
        "ar1-n2": lambda seed: ar1_data(n=2, seed=seed),
        "ar1-a0.9-n4": lambda seed: ar1_data(n=4, a=0.9, seed=seed),
        "complex-ar1-n8": lambda seed: complex_ar1_data(n=8, seed=seed),
        "ma1-p64-n64": lambda seed: sample(ProcessSpec("ma", 64, b=(0.5,), sigma2=0.64), 64, seed),
        "arma11-p128-n64": lambda seed: sample(
            ProcessSpec("arma", 128, a=(0.7,), b=(0.3,), sigma2=0.64), 64, seed),
    }


class TestPgdStart:
    """``pgd`` starts at ``GsObjective.start`` clipped to its box, where the
    trace form q is stationary, when that beats white noise."""

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_start_is_stationary_for_q(self, complex_case):
        """The gradient of q(1, u) = v^H K v in x vanishes at the start to rounding."""
        for seed, order in itertools.product(range(3), (1, 3, 6)):
            data = complex_ar1_data(seed=seed) if complex_case else ar1_data(n=32, seed=seed)
            prof = data.context().objective(order)
            x = prof.start
            assert x.shape == (2 * order if complex_case else order,) and x.dtype == float
            v = np.append(1.0, prof.ratios(x))
            grad_q = 2.0 * np.real(prof.factors.jac.conj().T @ (prof._form[1:] @ v))
            assert np.linalg.norm(grad_q) <= 1e-12 * np.abs(prof._form).max() * np.linalg.norm(v)

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_first_iterate_is_the_clipped_start(self, complex_case):
        """The ascent's first iterate is the start clipped to the box, inside
        it, in the narrowest family (which clips) and a wide one (which does
        not)."""
        clipped_somewhere = False
        for seed, family in itertools.product(range(3), (DEFAULT_FAMILIES[0], DEFAULT_FAMILIES[4])):
            data = complex_ar1_data(n=8, seed=seed) if complex_case else ar1_data(n=8, a=0.9, seed=seed)
            ctx = data.context()
            spec = box_spec_for(family, 16)
            rep = estimate_pgd(ctx, spec, 2, opts=PgdOptions(track_iterates=True))
            prof = ctx.objective(2)
            hi = np.tile(spec.k[:2] / 2, 2) if complex_case else spec.k[:2]
            clipped = np.clip(prof.start, -hi, hi)
            clipped_somewhere |= not np.array_equal(clipped, prof.start)
            assert prof.value(clipped) > 0.0  # it beats white noise, so the fit starts there
            first = rep.extras["iterates"][0]
            assert np.array_equal(first.full, prof.params(clipped).full)
            assert rep.extras["objectives"][0] == prof.value(clipped)
            assert np.all(np.abs(clipped) <= hi)
            ratios = first.alpha_rest[:2] / first.alpha0  # rounded once by a* u / a*
            lim = hi * (1 + 1e-12)
            assert np.all(np.abs(ratios.real) <= lim[:2]) and np.all(np.abs(ratios.imag) <= lim[-2:])
            assert spectral_pd_check(first)
        assert clipped_somewhere

    @pytest.mark.parametrize("scm, order, why", [
        ([[1, 2], [2, 1]], 1, "K[1:, 1:] = 0 is singular"),
        ([[1, 0, 2], [0, 1, 0], [2, 0, 1]], 2, "the clipped start's value is -1.01"),
        ([[1, 2, 0], [2, 1, 2], [0, 2, 1]], 1, "q < 0 at the clipped start: infeasible"),
    ])
    def test_white_noise_fallback(self, scm, order, why):
        """On SCMs that are not positive semidefinite the clipped start does
        not beat white noise, so the fit starts at white noise, without an
        exception or a RuntimeWarning, and returns a positive definite fit."""
        ctx = LikelihoodContext(np.array(scm, dtype=float), 5)
        spec = box_spec_for(DEFAULT_FAMILIES[1], ctx.p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = estimate_pgd(ctx, spec, order, opts=PgdOptions(track_iterates=True))
        first = rep.extras["iterates"][0]
        assert not np.any(first.alpha_rest), why
        assert rep.extras["objectives"][0] == ctx.objective(order).value(np.zeros(order)) == 0.0
        assert spectral_pd_check(rep.alpha)

    @pytest.mark.parametrize("name", sorted(_oracle_datasets()))
    def test_tuned_choices_match_the_white_noise_start(self, name, monkeypatch):
        """Tuned ``pgd`` chooses what it chose from white noise: the same order
        and family, with a loglik within 1e-12 relative."""
        info = bench.ESTIMATORS["pgd"]
        for seed in range(3):
            data = _oracle_datasets()[name](seed)
            monkeypatch.undo()
            _, _, meta, rep = info.fit(data)
            monkeypatch.setattr(likelihood.GsObjective, "start", ZERO_START)
            _, _, expected_meta, expected = info.fit(data)
            assert (meta["order"], meta["family"]) == (expected_meta["order"], expected_meta["family"])
            assert rep.loglik == pytest.approx(expected.loglik, rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", sorted(_oracle_datasets()))
    def test_pinned_orders_match_the_white_noise_start(self, name, monkeypatch):
        """At every order below the BIC cap the family scan picks the family
        it picked from white noise.  The loglik agrees within 1e-12 relative
        unless both fits are stationary within the stop rule's tolerance,
        with many coefficients on their bounds (ARMA order 16 here; 4 of 1200
        comparisons over seeds 0-11, at most 7e-8 relative apart)."""
        info = bench.ESTIMATORS["pgd"]
        for seed in range(2):
            data = _oracle_datasets()[name](seed)
            for order in range(1, min(data.p - 1, int(round(2.0 * np.sqrt(data.p) + 8.0)))):
                monkeypatch.undo()
                _, _, meta, rep = info.fit(data, order)
                monkeypatch.setattr(likelihood.GsObjective, "start", ZERO_START)
                _, _, expected_meta, expected = info.fit(data, order)
                assert meta["family"] == expected_meta["family"]
                if rep.loglik != pytest.approx(expected.loglik, rel=1e-12, abs=0):
                    for fit in (rep, expected):
                        assert fit.grad_norm < estimators._STAT_TOL * (1.0 + abs(fit.loglik))


class TestFrob:
    def test_white_noise_optimum(self):
        ctx = LikelihoodContext(np.eye(8), 16)
        rep = estimate_frob(ctx, order=2)
        assert np.allclose(rep.alpha.full, [1.0] + [0.0] * 7, atol=1e-3)

    def test_strict_feasibility(self):
        for seed in range(4):
            ctx = ar1_data(seed=seed).context()
            rep = estimate_frob(ctx, order=3)
            assert rep.extras["constraint_value"] < 0
            assert spectral_pd_check(rep.alpha)

    def test_large_sample_consistency(self):
        data = ar1_data(p=16, n=1024, seed=11)
        rep = estimate_frob(data.context(), order=1)
        truth = np.linalg.inv(true_cm(ProcessSpec("ar", 16, a=(0.5,), sigma2=0.64)).dense())
        assert nmse(rep.icm_dense(), truth) < 1e-2

    def test_stationarity(self):
        for data in (ar1_data(p=16, n=1024, seed=3), complex_ar1_data(p=16, n=1024, seed=3)):
            rep = estimate_frob(data.context(), order=1)
            assert rep.grad_norm < 1e-5 * (1.0 + abs(rep.loglik))

    def test_converges_where_gradient_ascent_stalled(self):
        """A binding fit that gradient ascent left unconverged after 1154 iterations."""
        rep = estimate_frob(ar1_data(n=2, seed=0).context(), order=6)
        assert rep.converged
        assert rep.iterations < 8 * 150
        assert rep.extras["constraint_value"] < 0
        assert spectral_pd_check(rep.alpha)

    def test_converged_reports_the_last_round(self, monkeypatch):
        """An early round that converges does not mark a capped last round converged.
        Uncapped, the rounds take 5, 5, 4, 4, 5, 6, 6, 6 iterations: under a cap
        of 5 the third converges and the sixth, the last of six, is capped."""
        monkeypatch.setattr(estimators, "_BARRIER_ROUNDS", 6)
        monkeypatch.setattr(estimators, "_BARRIER_MAX_ITER", 5)
        rep = estimate_frob(ar1_data(n=2, seed=0).context(), order=6)
        assert rep.iterations < estimators._BARRIER_ROUNDS * estimators._BARRIER_MAX_ITER
        assert not rep.converged

    def test_work_is_order_sized(self, monkeypatch):
        """At P=512 the constraint runs on the order + 1 leading parameters
        (``fib_seq`` only up to order - 1), and neither the Newton iterations
        nor the report make a P-length likelihood value or gradient pass."""
        order = 6
        fib_calls, p_length_calls = [], []

        def counted(fn, calls):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)
            return wrapper

        for module in (constraints, toeplitz):
            monkeypatch.setattr(module, "fib_seq", counted(toeplitz.fib_seq, fib_calls))
        for name in ("_evaluate", "_grad"):
            monkeypatch.setattr(likelihood, name, counted(getattr(likelihood, name), p_length_calls))
        rep = estimate_frob(ar1_data(p=512, n=32, seed=4).context(), order=order)
        assert fib_calls and max(up_to for _, up_to in fib_calls) < order
        assert p_length_calls == []
        assert spectral_pd_check(rep.alpha)


class TestEig:
    def test_work_is_one_factorization_per_step(self, monkeypatch):
        """The barrier's derivatives are exact, from one Cholesky factorization
        of the P-square slack matrix: a Newton iteration assembles it for its
        line-search trials and reuses the accepted trial's factor for its
        derivatives, not once per finite-difference probe (170 assemblies per
        iteration in a complex order-6 fit)."""
        calls = []

        def counted(alpha):
            calls.append(alpha)
            return toeplitz.gs_assemble(alpha)

        monkeypatch.setattr(estimators, "gs_assemble", counted)
        rep = estimate_eig(complex_ar1_data(p=16, n=8, seed=2).context(), order=6)
        assert rep.converged and spectral_pd_check(rep.alpha)
        assert len(calls) <= 2 * rep.iterations

    def test_white_noise_optimum(self):
        ctx = LikelihoodContext(np.eye(8), 16)
        rep = estimate_eig(ctx, order=1)
        assert np.allclose(rep.alpha.full, [1.0] + [0.0] * 7, atol=1e-3)

    def test_agrees_with_frob_on_ar1(self):
        data = ar1_data(p=16, n=8, seed=5)
        ctx = data.context()
        truth = true_cm(ProcessSpec("ar", 16, a=(0.5,), sigma2=0.64)).dense()
        got_eig = nmse(estimate_eig(ctx, order=1).cm().dense(), truth)
        got_frob = nmse(estimate_frob(ctx, order=1).cm().dense(), truth)
        assert got_eig < 4 * got_frob + 0.05  # same performance band

    def test_pd_output(self):
        data = ar1_data(p=12, n=6, seed=9)
        rep = estimate_eig(data.context(), order=2)
        assert spectral_pd_check(rep.alpha)

    def test_dimension_guard(self):
        ctx = LikelihoodContext(np.eye(80), 8)
        with pytest.raises(ValueError):
            estimate_eig(ctx, order=1)


SCALE_DATA = ar1_data(p=16, n=32, seed=1)  # AR(1) a=0.5, sigma2=0.64


def _scale_fits(spec16):
    return {
        "pgd": lambda ctx: estimate_pgd(ctx, spec16, 2),
        "pls": lambda ctx: estimate_pls(ctx, spec16, order=2),
        "frob": lambda ctx: estimate_frob(ctx, order=2),
        "eig": lambda ctx: estimate_eig(ctx, order=2),
    }


@functools.lru_cache(maxsize=None)
def _unit_scale_cm(name, complex_case):
    samples = SCALE_DATA.samples
    if complex_case:
        samples = samples + 0.5j * np.random.default_rng(5).standard_normal(samples.shape)
    rep = _scale_fits(box_spec_for(DEFAULT_FAMILIES[1], 16))[name](SampleSet(samples).context())
    return samples, rep.cm().dense(), rep.icm_dense()


@pytest.mark.parametrize("factor", [1e-100, 1e-6, 1e-4, 1e-2, 1e2, 1e3, 1e4, 1e6, 1e100])
@pytest.mark.parametrize("name", ["pgd", "pls", "frob", "eig"])
def test_scale_equivariant(name, factor, spec16):
    """Every constraint (the box, the Frobenius and eigenvalue barriers) is a
    condition on the ratios u and the scale is maximized in closed form with
    no floor, so data scaled by c give c^2 times the covariance, for real
    and complex data, and c^-2 times the precision.  The precision assembled
    alpha_i alpha_j before dividing by alpha_0: inf at x1e-100, all zeros at
    x1e100.  An absolute floor alpha_0 >= 1e-6 held every fit at
    1e-6 from x1e4 up (98% covariance error); an eigenvalue floor
    proportional to the data's power exceeded the start's eigenvalues at
    x1e2; absolute difference steps in alpha_0 and stop rules on the
    scale-dependent likelihood left frob and eig 1e-5 off at x1e-4, and
    finite-difference barrier derivatives left complex eig 1.1e-8 off."""
    for complex_case in (False, True):
        samples, base, base_icm = _unit_scale_cm(name, complex_case)
        rep = _scale_fits(spec16)[name](SampleSet(factor * samples).context())
        assert spectral_pd_check(rep.alpha)
        assert np.abs(rep.cm().dense() / factor**2 - base).max() <= 1e-8 * np.abs(base).max()
        assert np.abs(rep.icm_dense() * factor**2 - base_icm).max() <= 1e-8 * np.abs(base_icm).max()


@pytest.mark.parametrize("name", ["pgd", "pls", "frob"])
def test_tuned_choice_does_not_depend_on_scale(name):
    """BIC tuning at x1e4 picks the unit-scale order and family (order 1,
    exp-0.6 for the box fits).  With the absolute floor alpha_0 >= 1e-6 it
    picked order 10, 7 (exp-1.4) and 14 for pgd, pls and frob."""
    tuned = bench.ESTIMATORS[name].fit
    _, _, unit, _ = tuned(SCALE_DATA)
    _, _, large, _ = tuned(SampleSet(1e4 * SCALE_DATA.samples))
    assert (large["order"], large["family"]) == (unit["order"], unit["family"])
    assert unit["order"] == 1


def test_not_psd_input_stays_feasible():
    """An SCM that is not positive semidefinite leaves the likelihood
    unbounded in the scale: tr(Gamma S) / alpha_0 reaches zero inside the
    box.  The fits treat that as infeasible and return a positive definite
    estimate without a RuntimeWarning (the floored scale max(P / q, 1e-6)
    raised ZeroDivisionError here)."""
    ctx = LikelihoodContext(np.array([[1.0, 2.0], [2.0, 1.0]]), 5)
    for rep in (estimate_pgd(ctx, box_spec_for(DEFAULT_FAMILIES[1], 2), 1), estimate_frob(ctx, order=1)):
        assert spectral_pd_check(rep.alpha)
        assert np.isfinite(rep.loglik)


class TestPls:
    def test_hand_example(self):
        x = np.array([[1.0, 2.0, 3.0]])
        ctx = LikelihoodContext(sample_cov(x), 1)
        spec = box_spec_for(DEFAULT_FAMILIES[1], 3)
        rep = estimate_pls(ctx, spec, order=1, with_loglik=False)
        assert rep.extras["a_hat"][0] == pytest.approx(1.6, abs=1e-12)
        assert rep.extras["sigma2_hat"] == pytest.approx(0.1, abs=1e-12)
        # unconstrained parameters (10, -16) leave the box; output is projected and PD
        assert rep.alpha.alpha0 == pytest.approx(10.0)
        assert abs(rep.alpha.alpha_rest[0]) < 16.0
        assert spectral_pd_check(rep.alpha)

    def test_order_zero_white_noise(self):
        x = rng.normal(size=(4, 8))
        ctx = LikelihoodContext(sample_cov(x), 4)
        spec = box_spec_for(DEFAULT_FAMILIES[1], 8)
        rep = estimate_pls(ctx, spec, order=0)
        assert rep.alpha.alpha0 == pytest.approx(8.0 / np.trace(ctx.scm))
        assert np.all(rep.alpha.alpha_rest == 0.0)

    def test_order_zero_complex_white_noise(self):
        """Order 0 solves the empty system of the data's dtype: complex data
        gets complex zero coefficients, the scale of the mean variance, and
        the white-noise likelihood."""
        x = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        ctx = LikelihoodContext(sample_cov(x), 4)
        rep = estimate_pls(ctx, box_spec_for(DEFAULT_FAMILIES[1], 8), order=0)
        assert rep.alpha.alpha0 == pytest.approx(8.0 / np.trace(ctx.scm).real)
        assert rep.alpha.alpha_rest.dtype == complex and np.all(rep.alpha.alpha_rest == 0.0)
        assert rep.extras["a_hat"].size == 0 and rep.stationary
        assert rep.loglik == pytest.approx(white_noise_report(ctx).loglik, rel=1e-12)

    def test_matches_normal_equations_oracle(self):
        for _ in range(30):
            p = int(rng.integers(4, 24))
            n = int(rng.integers(1, 8))
            w = int(rng.integers(1, min(5, p - 1)))
            x = rng.normal(size=(n, p))
            ctx = LikelihoodContext(sample_cov(x), n)
            spec = box_spec_for(DEFAULT_FAMILIES[1], p)
            rep = estimate_pls(ctx, spec, order=w, with_loglik=False)
            rows, ys = [], []
            for smp in range(n):
                for t in range(w, p):
                    ys.append(x[smp, t])
                    rows.append([x[smp, t - 1 - m] for m in range(w)])
            a_oracle, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(ys), rcond=None)
            assert np.allclose(rep.extras["a_hat"], a_oracle, atol=1e-10)

    def test_conditional_optimality(self):
        """The closed form beats ten thousand random perturbations on the
        conditional objective."""
        p, n, w = 12, 4, 2
        x = ar1_data(p=p, n=n, seed=21).samples
        lagged = np.stack([x[:, w - 1 - m : p - 1 - m] for m in range(w)], axis=-1)
        target = x[:, w:]

        def conditional_ll(a, sigma2):
            resid = float(np.sum((target - lagged @ a) ** 2))
            return -(p - w) * np.log(sigma2) - resid / (sigma2 * n)

        ctx = LikelihoodContext(sample_cov(x), n)
        spec = box_spec_for(DEFAULT_FAMILIES[1], p)
        rep = estimate_pls(ctx, spec, order=w, with_loglik=False)
        best = conditional_ll(rep.extras["a_hat"], rep.extras["sigma2_hat"])
        for _ in range(10_000):
            pert_a = rep.extras["a_hat"] + rng.normal(size=w) * 0.05
            pert_s = rep.extras["sigma2_hat"] * float(np.exp(rng.normal() * 0.05))
            assert conditional_ll(pert_a, pert_s) <= best + 1e-9

    def test_tuned_beyond_underflowing_bounds(self):
        """At P=512 two default families have bounds that underflow to zero."""
        ctx = ar1_data(p=512, n=8, seed=4).context()
        rep = tune_box_family(lambda c, w, spec: estimate_pls(c, spec, order=w), ctx)
        assert rep.order >= 1
        assert spectral_pd_check(rep.alpha)

    @pytest.mark.parametrize("row, order, flag", [
        (np.random.default_rng(0).standard_normal(8), 7, "ridge_used"),
        (np.cos(0.7 * np.arange(8)), 2, "variance_floored"),
    ], ids=["singular-moments", "exact-ar2"])
    def test_numerical_guards(self, row, order, flag):
        """One sample row leaves the order-7 moment matrix of rank one, so the
        solve falls back to a ridge; ``cos(0.7 t)`` is exactly AR(2), so the
        conditional residual variance is floored.  Either way the estimate is
        positive definite with a finite likelihood and no warning."""
        ctx = SampleSet(row[None, :]).context()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = estimate_pls(ctx, box_spec_for(DEFAULT_FAMILIES[1], 8), order=order)
        assert rep.extras[flag] is True
        assert spectral_pd_check(rep.alpha)
        assert np.isfinite(rep.loglik)

    def test_banded_output(self):
        data = ar1_data(p=10, n=6, seed=2)
        spec = box_spec_for(DEFAULT_FAMILIES[1], 10)
        rep = estimate_pls(data.context(), spec, order=2)
        gam = rep.icm_dense()
        i, j = np.indices(gam.shape)
        assert np.all(gam[np.abs(i - j) > 2] == 0.0)


class TestNewtonAscent:
    def test_rounding_level_step_skips_the_line_search(self, monkeypatch):
        """A Newton step whose predicted gain g.d = 1e-20 lies below the
        objective's rounding ends the ascent, converged, without evaluating
        a trial point (the search used to take up to 40 evaluations)."""
        values, searches = [], []

        def evaluate(x):
            values.append(x.copy())
            return -0.5 * float(x @ x)

        monkeypatch.setattr(estimators, "_line_search", lambda *args: searches.append(args))
        x0 = np.array([-1e-10])
        x, iters, converged = estimators._newton_ascent(
            evaluate, lambda x: (-x, -np.eye(1)), x0, np.array([-np.inf]), np.array([np.inf]), 50,
        )
        assert (iters, converged) == (1, True) and x is x0
        assert len(values) == 1 and searches == []

    def test_step_without_curvature_is_the_gradient(self):
        """A zero Hessian leaves no curvature to scale by, so the step is the
        gradient, which the clip and the line search bound; a Hessian with
        any curvature keeps its floored Newton step."""
        g = np.array([-2.0, 0.5])
        assert np.array_equal(estimators._newton_step(np.zeros((2, 2)), g), g)
        d = estimators._newton_step(-np.diag([4.0, 0.0]), g)
        assert np.allclose(d, [-0.5, 0.5 / (4.0 * estimators._CURVATURE_FLOOR)])

    def test_tuned_fit_on_a_hessian_with_no_curvature(self):
        """Rows (1, 1), (2, 2), (-1, -1) give S = c [[1, 1], [1, 1]]: at
        order 1 the Hessian is exactly 0 at the start u = 0.  Tuned ``pgd``
        fits it, as ``pls``, ``frob`` and ``eig`` do, with no RuntimeWarning
        (an error under the test settings); it used to fail with "Newton
        direction is not finite" after a division by zero."""
        data = SampleSet(np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0]]))
        for name in ("pgd", "pls", "frob", "eig"):
            cm, icm, _, _ = bench.ESTIMATORS[name].fit(data)
            icm = icm()
            assert np.all(np.isfinite(cm)) and np.all(np.isfinite(icm))
            np.linalg.cholesky(icm)


class TestTuneOrder:
    def test_recovers_ar1_order(self, spec16):
        hits = 0
        for seed in range(25):
            data = ar1_data(p=16, n=256, seed=seed)
            rep = tune_order(
                lambda c, w: estimate_pls(c, spec16, order=w), data.context()
            )
            hits += rep.order == 1
        assert hits >= 22

    def test_white_noise_selects_order_zero(self, spec16):
        hits = 0
        for seed in range(25):
            x = np.random.default_rng(seed).standard_normal((256, 16))
            ctx = LikelihoodContext(sample_cov(x), 256)
            rep = tune_order(lambda c, w: estimate_pls(c, spec16, order=w), ctx)
            hits += rep.order == 0
        assert hits >= 22

    def test_report_loglik_is_reevaluable(self, spec16):
        data = ar1_data(n=32, seed=7)
        ctx = data.context()
        rep = tune_order(lambda c, w: estimate_pls(c, spec16, order=w), ctx)
        assert rep.loglik == pytest.approx(loglik(ctx, rep.alpha), abs=1e-12)

    def test_infeasible_candidates_strike(self, spec16):
        """An infeasible candidate counts as a worse one: on MA(1) data, where
        the likelihood bound prunes no order, five infeasible orders after
        order 1 end the scan.  On AR(1) data the bound prunes orders 3-6
        after the infeasible order 2: pruned and infeasible candidates strike
        alike, and the scan ends at the same order."""
        calls = []

        def fit(ctx, order):
            calls.append(order)
            if order >= 2:
                raise toeplitz.NotPositiveDefiniteError("infeasible")
            return estimate_pls(ctx, spec16, order=order)

        rep = tune_order(fit, ma1_data(seed=0).context())
        assert calls == [1, 2, 3, 4, 5, 6]
        assert rep.order == 1
        assert (rep.extras["scan"]["fits"], rep.extras["scan"]["pruned"]) == (6, 0)
        calls.clear()
        rep = tune_order(fit, ar1_data(n=32, seed=7).context())
        assert calls == [1, 2]
        assert rep.order == 1
        assert (rep.extras["scan"]["fits"], rep.extras["scan"]["pruned"]) == (2, 4)

    @pytest.mark.parametrize("p, a", [(2, (0.9,)), (3, (0.5, -0.6))])
    @pytest.mark.parametrize("name", ["pgd", "pls", "frob", "eig"])
    def test_top_order_is_a_candidate(self, name, p, a):
        """Order P - 1 is scanned where the cap allows it.  The scan stopped
        below ``min(P - 1, cap)``, so at P = 2 every tuned fit returned white
        noise, which scores BIC 491.6 against order 1's 340.3 (pgd) on this
        AR(1) data, and at P = 3 AR(2) data got order 1."""
        data = sample(ProcessSpec("ar", p, a=a, sigma2=1.0), 200, 1)
        assert bench.ESTIMATORS[name].fit(data)[2]["order"] == p - 1

    def test_single_sample_rejected(self, spec16):
        data = ar1_data(n=1)
        with pytest.raises(ValueError):
            tune_order(lambda c, w: estimate_pls(c, spec16, order=w), data.context())


def unpruned_tune_order(fit, ctx):
    """:func:`tune_order` without the likelihood bound: every order is fitted
    until ``_PATIENCE`` candidates in a row fail to improve the BIC score.
    The oracle the pruned scan must match bit for bit."""
    if ctx.n < 2:
        raise ValueError("BIC order tuning needs at least two samples")
    cap = min(ctx.p, int(round(2.0 * np.sqrt(ctx.p) + 8.0)))
    log_n = np.log(ctx.n)
    best = white_noise_report(ctx)
    best_score = log_n - 0.5 * ctx.n * best.loglik
    strikes = 0
    for order in range(1, cap):
        try:
            rep = fit(ctx, order)
            score = (order + 1) * log_n - 0.5 * ctx.n * rep.loglik
        except estimators._INFEASIBLE:
            score = np.inf
        if score < best_score:
            best, best_score, strikes = rep, score, 0
        else:
            strikes += 1
            if strikes >= estimators._PATIENCE:
                break
    best.extras["scan"] = estimators._scan_totals()
    return best


def arma_data(p, n, seed):
    return sample(ProcessSpec("arma", p, a=(0.7,), b=(0.3,), sigma2=0.64), n, seed)


# (name, data(seed)) of the likelihood-bound checks: N < P and N > P, P = 16
# and 64, real and complex, data the bound prunes (AR(1)) and data it barely
# prunes (MA(1), ARMA(1,1)).
BOUND_CASES = [
    ("ar1-p16-n4", lambda s: ar1_data(16, 4, seed=s)),
    ("ar1-p16-n8", lambda s: ar1_data(16, 8, seed=s)),
    ("ar1-p16-n32", lambda s: ar1_data(16, 32, seed=s)),
    ("ar1-p16-n128", lambda s: ar1_data(16, 128, seed=s)),
    ("ma1-p16-n32", lambda s: ma1_data(seed=s)),
    ("arma-p32-n16", lambda s: arma_data(32, 16, s)),
    ("complex-p16-n8", lambda s: complex_ar1_data(16, 8, s)),
    ("complex-p16-n64", lambda s: complex_ar1_data(16, 64, s)),
    ("ar1-p64-n32", lambda s: ar1_data(64, 32, seed=s)),
    ("ar1-p64-n128", lambda s: ar1_data(64, 128, seed=s)),
]


class TestLoglikBound:
    @pytest.mark.parametrize("make", [m for _, m in BOUND_CASES], ids=[c for c, _ in BOUND_CASES])
    def test_every_fitted_candidate_is_below_the_bound(self, monkeypatch, make):
        """Every candidate a tuned ``pgd``, ``pls`` or ``frob`` scan fits
        reports a loglik at most its order's bound B_w (to 1e-12 relative
        rounding), which is what makes pruning exact."""
        checked = []

        def checking(fn):
            def run(ctx, *args, **kwargs):
                rep = fn(ctx, *args, **kwargs)
                bound = ctx.objective(rep.order).loglik_bound
                assert rep.loglik <= bound + 1e-12 * max(1.0, abs(bound))
                checked.append(rep.order)
                return rep
            return run

        for fn in ("estimate_pgd", "estimate_pls", "estimate_frob"):
            monkeypatch.setattr(bench, fn, checking(getattr(bench, fn)))
        for seed in range(2):
            data = make(seed)
            for name in ("pgd", "pls", "frob"):
                bench.ESTIMATORS[name].fit(data)
        assert checked

    @pytest.mark.parametrize("make", [m for _, m in BOUND_CASES], ids=[c for c, _ in BOUND_CASES])
    def test_registry_matches_unpruned_scan(self, monkeypatch, make):
        """On 24 datasets per case (240 in all), tuned ``pgd`` (every third
        dataset), ``frob`` (every sixth) and ``pls`` (all) give what the
        unpruned scan gives: the same order, family, loglik and parameters,
        bit for bit."""
        def fits(name, data):
            return [bench.ESTIMATORS[name].fit(d)[3] for d in data]

        data = [make(seed) for seed in range(24)]
        runs = {"pls": data, "pgd": data[::3], "frob": data[::6]}
        pruned = {name: fits(name, sets) for name, sets in runs.items()}
        for module in (estimators, bench):
            monkeypatch.setattr(module, "tune_order", unpruned_tune_order)
        for name, sets in runs.items():
            for got, want in zip(pruned[name], fits(name, sets)):
                assert (got.order, got.family_id, got.loglik) == (want.order, want.family_id, want.loglik)
                assert np.array_equal(got.alpha.full, want.alpha.full)

    def test_order_without_a_definite_form_is_fitted(self):
        """At orders 8-10 of AR(1) P=16 N=32 data, ``K11`` (the order-w form
        on the ratios, from the SCM table's corners) is not positive
        definite: the bound is +inf and the scan fits those orders, while it
        prunes orders 6 and 7 after order 5 reached its bound."""
        ctx = ar1_data(16, 32, seed=0).context()
        table = ctx.scm_sums.table
        for w in (8, 9, 10):
            k11 = table[1 : w + 1, 1 : w + 1] - table[-w:, -w:][::-1, ::-1]
            assert np.linalg.eigvalsh(k11).min() < 0
            assert ctx.objective(w).loglik_bound == np.inf
        worse = white_noise_report(ctx).loglik - 1.0
        calls = []

        def fit(c, w):
            calls.append(w)
            value = c.objective(w).loglik_bound if w == 5 else worse
            return EstimationReport(GsParams(1.0, np.zeros(15)), w, value, 0, True)

        rep = tune_order(fit, ctx)
        assert calls == [1, 2, 3, 4, 5, 8, 9, 10]
        assert rep.order == 5 and rep.extras["scan"]["pruned"] == 2


class TestTuneBoxFamily:
    def test_single_family_matches_direct(self):
        data = ar1_data(n=32, seed=13)
        ctx = data.context()
        family = DEFAULT_FAMILIES[1]
        direct = tune_order(
            lambda c, w: estimate_pls(c, box_spec_for(family, 16), order=w), ctx
        )
        wrapped = tune_box_family(
            lambda c, w, spec: estimate_pls(c, spec, order=w),
            ctx,
            families=(family,),
        )
        assert wrapped.loglik == pytest.approx(direct.loglik)
        assert wrapped.family_id == family.family_id

    def test_returns_max_loglik(self):
        data = ar1_data(n=16, seed=17)
        ctx = data.context()
        per_family = [
            tune_order(
                lambda c, w, s=box_spec_for(f, 16): estimate_pls(c, s, order=w), ctx
            ).loglik
            for f in DEFAULT_FAMILIES
        ]
        best = tune_box_family(lambda c, w, spec: estimate_pls(c, spec, order=w), ctx)
        assert best.loglik == pytest.approx(max(per_family))

    @pytest.mark.parametrize("path", ["tuned", "pinned"])
    def test_rounding_noise_keeps_earlier_family(self, monkeypatch, path):
        """A family ahead by 1e-12 relative loglik loses to the earlier one;
        one ahead by 1e-6 wins.  Both the BIC-tuned and the pinned-order
        registry fit apply the rule.  Each fake fit sits on its family's
        first bound (alpha_1 = K_1 alpha_0), so no family reuses another's."""
        data = ar1_data()
        ids = [f.family_id for f in DEFAULT_FAMILIES]

        def selected(gain):
            def fake_pgd(ctx, spec, order):
                value = 100.0 * (1.0 + (gain if spec.family_id == ids[1] else 0.0))
                rest = np.zeros(15)
                rest[0] = spec.k[0]
                return EstimationReport(GsParams(1.0, rest), order, value, 1, True,
                                        family_id=spec.family_id)

            monkeypatch.setattr(bench, "estimate_pgd", fake_pgd)
            info = bench.ESTIMATORS["pgd"]
            _, _, meta, _ = info.fit(data) if path == "tuned" else info.fit(data, 2)
            return meta["family"]

        assert selected(1e-12) == ids[0]
        assert selected(1e-6) == ids[1]

    @pytest.mark.parametrize(
        "p, n, complex_case",
        [(16, 4, False), (16, 8, False), (16, 32, False), (64, 64, False), (16, 8, True)],
    )
    def test_matches_independent_family_fits(self, p, n, complex_case):
        """The shared objective, interior reuse and one family loop choose
        what independent per-family fits on fresh contexts choose: the same
        order and family, and the same loglik to 1e-12 relative, tuned and at
        a pinned order."""
        for seed in range(3):
            data = complex_ar1_data(p, n, seed) if complex_case else ar1_data(p, n, seed=seed)
            specs = [box_spec_for(f, p) for f in DEFAULT_FAMILIES]
            tuned = best_family_fit(
                tune_order(lambda c, w, s=s: estimate_pgd(c, s, w), data.context()) for s in specs
            )
            pinned = best_family_fit(estimate_pgd(data.context(), s, 3) for s in specs)
            info = bench.ESTIMATORS["pgd"]
            for expected, (_, _, meta, rep) in ((tuned, info.fit(data)), (pinned, info.fit(data, 3))):
                assert (meta["order"], meta["family"]) == (expected.order, expected.family_id)
                assert rep.loglik == pytest.approx(expected.loglik, rel=1e-12, abs=0)

    def test_pls_reuse_is_exact(self):
        """For ``pls`` an interior fit is the unprojected closed form, the same
        in every box that contains it: reuse changes no bit."""
        for seed in range(4):
            data = ar1_data(n=32, seed=seed)
            alone = best_family_fit(
                tune_order(lambda c, w, s=box_spec_for(f, 16): estimate_pls(c, s, order=w), data.context())
                for f in DEFAULT_FAMILIES
            )
            shared = tune_box_family(lambda c, w, s: estimate_pls(c, s, order=w), data.context())
            assert (shared.order, shared.family_id, shared.loglik) == (alone.order, alone.family_id, alone.loglik)
            assert np.array_equal(shared.alpha.full, alone.alpha.full)

    def test_pls_moments_built_once_per_order(self, monkeypatch):
        """A tuned ``pls`` fit over the five default families builds each
        scanned order's conditional moments once, and every fit in it equals
        the same fit on a fresh context (alpha bit for bit, and loglik).  On
        MA(1) data the likelihood bound prunes no order the families fit."""
        built, fits = [], []
        real = likelihood._conditional_moments

        def counted(scm, order):
            built.append(order)
            return real(scm, order)

        def fit(ctx, w, spec):
            fits.append((w, spec, estimate_pls(ctx, spec, order=w)))
            return fits[-1][2]

        monkeypatch.setattr(likelihood, "_conditional_moments", counted)
        for seed in range(3):
            data = ma1_data(seed=seed)
            built.clear()
            fits.clear()
            tune_box_family(fit, data.context())
            assert sorted(built) == sorted({w for w, _, _ in fits})
            assert len(fits) > len(built)  # families share the moments
            for w, spec, rep in fits:
                fresh = estimate_pls(data.context(), spec, order=w)
                assert np.array_equal(rep.alpha.full, fresh.alpha.full)
                assert rep.loglik == fresh.loglik

    @staticmethod
    def _fake_family_loop(monkeypatch, point, order=None):
        """``tune_box_family`` over fake fits at ``point(spec)``: returns the
        (family, order) of each fit it ran and the reports it compared.  BIC
        picks order 2 of the fake likelihood.  On its data (AR(1) a=0.95, times
        0.025) white noise's loglik, 70, lies below the fake ones, 75-100, and
        the order scan's likelihood bound, 112-115 or +inf, above them, as
        :func:`tune_order`'s contract asks: the bound prunes no order."""
        calls, compared = [], []

        def fit(ctx, w, spec):
            calls.append((spec.family_id, w))
            return EstimationReport(GsParams(1.0, point(spec)), w, 100.0 - (w - 2) ** 2, 3, True,
                                    family_id=spec.family_id, stationary=True)

        def best(reports):
            compared.extend(reports)
            return best_family_fit(compared)

        monkeypatch.setattr(estimators, "best_family_fit", best)
        tune_box_family(fit, SampleSet(0.025 * ar1_data(n=32, a=0.95, seed=7).samples).context(), order=order)
        return calls, compared

    @pytest.mark.parametrize("order", [None, 2], ids=["tuned", "pinned"])
    def test_no_reuse_on_a_bound(self, monkeypatch, order):
        """A fit with a coefficient on its family's bound is no stationary
        point of the likelihood: every family fits again."""

        def on_bound(spec):
            rest = np.zeros(15)
            rest[0] = -spec.k[0]
            return rest

        calls, compared = self._fake_family_loop(monkeypatch, on_bound, order)
        ids = [f.family_id for f in DEFAULT_FAMILIES]
        orders = [2] if order else list(range(1, 8))
        assert calls == [(i, w) for i in ids for w in orders]
        assert [r.iterations for r in compared] == [3] * 5

    @pytest.mark.parametrize("order", [None, 2], ids=["tuned", "pinned"])
    def test_interior_fit_reused(self, monkeypatch, order):
        """A fit strictly inside its box is fitted by the first family whose
        box strictly contains it (the first two clamp it to their bound) and
        reused, with zero iterations, by every later family."""
        k1 = [box_spec_for(f, 16).k[0] for f in DEFAULT_FAMILIES]
        target = 0.5 * (k1[1] + k1[2])  # beyond the first two bounds, inside the rest

        def clamped(spec):
            rest = np.zeros(15)
            rest[0] = min(target, spec.k[0])
            return rest

        calls, compared = self._fake_family_loop(monkeypatch, clamped, order)
        ids = [f.family_id for f in DEFAULT_FAMILIES]
        orders = [2] if order else list(range(1, 8))
        assert calls == [(i, w) for i in ids[:3] for w in orders]
        assert [r.family_id for r in compared] == ids
        assert [r.iterations for r in compared] == [3, 3, 3, 0, 0]
        assert compared[3].alpha is compared[2].alpha

    def test_no_reuse_of_a_converged_fit_that_is_not_stationary(self):
        """A real ``pgd`` fit stopped one ulp inside the narrowest family's
        first bound reads ``converged`` and strictly inside that box, but its
        gradient points out of it: the wider family fits again and wins
        instead of reusing it."""
        data = ar1_data(n=32, a=0.9, seed=0)  # lag-one ratio -0.88, beyond both first bounds
        narrow, wide = DEFAULT_FAMILIES[:2]
        calls = []

        def fit(ctx, w, spec):
            calls.append(spec.family_id)
            fitted = spec
            if spec.family_id == narrow.family_id:
                fitted = dataclasses.replace(spec, k=np.nextafter(spec.k, 0.0))
            return estimate_pgd(ctx, fitted, w)

        ctx = data.context()
        stalled = fit(ctx, 1, box_spec_for(narrow, 16))
        assert stalled.converged and not stalled.stationary
        assert estimators.strictly_inside_box(stalled.alpha, box_spec_for(narrow, 16), 1)
        calls.clear()
        best = tune_box_family(fit, ctx, families=(narrow, wide), order=1)
        assert calls == [narrow.family_id, wide.family_id]
        assert best.family_id == wide.family_id and best.iterations > 0
        assert best.loglik > stalled.loglik

    def test_decay_tracks_coefficient_size(self):
        """The selected bound family must accommodate the lag-one ratio.

        Across the shipped families the lag-one bound grows with the decay
        rate (the scale grows faster than the exponential shrinks), so strong
        AR(1) coupling selects fast-decay families and weak coupling selects
        slow-decay ones.
        """
        k1 = [box_spec_for(f, 16).k[0] for f in DEFAULT_FAMILIES]
        assert np.all(np.diff(k1) > 0)

        decay = {f.family_id: f.decay for f in DEFAULT_FAMILIES}

        def mean_selected_decay(a, trials=30):
            decays = []
            for seed in range(1000, 1000 + trials):
                data = sample(ProcessSpec("ar", 16, a=(a,), sigma2=0.64), 32, seed)
                rep = tune_box_family(lambda c, w, spec: estimate_pls(c, spec, order=w), data.context())
                decays.append(decay[rep.family_id])
            return float(np.mean(decays))

        assert mean_selected_decay(0.9) > mean_selected_decay(0.1)


class TestWhiteNoiseReport:
    def test_closed_form(self):
        ctx = LikelihoodContext(2.0 * np.eye(6), 8)
        rep = white_noise_report(ctx)
        assert rep.alpha.alpha0 == pytest.approx(0.5)
        assert rep.order == 0
        assert rep.loglik == pytest.approx(loglik(ctx, rep.alpha))


class TestReports:
    def test_every_estimator_output_is_pd(self, spec16):
        data = ar1_data(n=8, seed=4)
        ctx = data.context()
        reports = [
            estimate_pgd(ctx, spec16, 2),
            estimate_frob(ctx, order=2),
            estimate_eig(ctx, order=2),
            estimate_pls(ctx, spec16, order=2),
        ]
        for rep in reports:
            assert spectral_pd_check(rep.alpha)
            assert rep.alpha.order <= rep.order

    def test_cm_icm_duality(self, spec16):
        data = ar1_data(n=16, seed=30)
        rep = estimate_pgd(data.context(), spec16, 2)
        prod = rep.icm_dense() @ rep.cm().dense()
        assert np.allclose(prod, np.eye(16), atol=1e-8)
