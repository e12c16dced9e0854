import functools
import itertools

import numpy as np
import pytest

from toepcov.baselines import sample_cov
from toepcov.constraints import DEFAULT_FAMILIES, box_spec_for, spectral_pd_check
from toepcov import bench, constraints, estimators, likelihood, toeplitz
from toepcov.estimators import (
    BarrierOptions,
    EstimationReport,
    PgdOptions,
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
        assert rep.iterations < PgdOptions().max_iter
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

    def test_iteration_cap_reported(self, spec16):
        """A fit stopped by max_iter before it converged says so."""
        ctx = ar1_data(seed=0).context()
        assert estimate_pgd(ctx, spec16, 3).iterations > 1
        rep = estimate_pgd(ctx, spec16, 3, opts=PgdOptions(max_iter=1))
        assert rep.iterations == 1
        assert not rep.converged

    def test_order_bounds(self, spec16):
        ctx = ar1_data().context()
        with pytest.raises(ValueError):
            estimate_pgd(ctx, spec16, 0)
        with pytest.raises(ValueError):
            estimate_pgd(ctx, spec16, 16)


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

    def test_converged_reports_the_last_round(self):
        """An early round that converges does not mark a capped last round converged.
        Uncapped, the rounds take 6, 6, 5, 5, 6, 7, 6, 6 iterations: under a cap
        of 6 the third converges and the sixth, the last of six, is capped."""
        opts = BarrierOptions(outer_iters=6, inner_max_iter=6)
        rep = estimate_frob(ar1_data(n=2, seed=0).context(), order=6, opts=opts)
        assert rep.iterations < opts.outer_iters * opts.inner_max_iter
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
    fit = _scale_fits(box_spec_for(DEFAULT_FAMILIES[1], 16))[name]
    return samples, fit(SampleSet(samples).context()).cm().dense()


@pytest.mark.parametrize("factor", [1e-6, 1e-4, 1e-2, 1e2, 1e3, 1e4, 1e6])
@pytest.mark.parametrize("name", ["pgd", "pls", "frob", "eig"])
def test_scale_equivariant(name, factor, spec16):
    """Every constraint (the box, the Frobenius and eigenvalue barriers) is a
    condition on the ratios u and the scale is maximized in closed form with
    no floor, so data scaled by c give c^2 times the covariance, for real
    and complex data.  An absolute floor alpha_0 >= 1e-6 held every fit at
    1e-6 from x1e4 up (98% covariance error); an eigenvalue floor
    proportional to the data's power exceeded the start's eigenvalues at
    x1e2; absolute difference steps in alpha_0 and stop rules on the
    scale-dependent likelihood left frob and eig 1e-5 off at x1e-4, and
    finite-difference barrier derivatives left complex eig 1.1e-8 off."""
    for complex_case in (False, True):
        samples, base = _unit_scale_cm(name, complex_case)
        rep = _scale_fits(spec16)[name](SampleSet(factor * samples).context())
        assert spectral_pd_check(rep.alpha)
        assert np.abs(rep.cm().dense() / factor**2 - base).max() <= 1e-8 * np.abs(base).max()


@pytest.mark.parametrize("name", ["pgd", "pls", "frob"])
def test_tuned_choice_does_not_depend_on_scale(name):
    """BIC tuning at x1e4 picks the unit-scale order and family (order 1,
    exp-0.6 for the box fits).  With the absolute floor alpha_0 >= 1e-6 it
    picked order 10, 7 (exp-1.4) and 14 for pgd, pls and frob."""
    tuned = bench.ESTIMATORS[name].tuned
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
        rep = tune_box_family(lambda spec: (lambda c, w: estimate_pls(c, spec, order=w)), ctx)
        assert rep.order >= 1
        assert spectral_pd_check(rep.alpha)

    def test_banded_output(self):
        data = ar1_data(p=10, n=6, seed=2)
        spec = box_spec_for(DEFAULT_FAMILIES[1], 10)
        rep = estimate_pls(data.context(), spec, order=2)
        gam = rep.icm_dense()
        i, j = np.indices(gam.shape)
        assert np.all(gam[np.abs(i - j) > 2] == 0.0)


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
        """An infeasible candidate counts as a worse one: after order 1, five
        infeasible orders end the scan."""
        calls = []

        def fit(ctx, order):
            calls.append(order)
            if order >= 2:
                raise toeplitz.NotPositiveDefiniteError("infeasible")
            return estimate_pls(ctx, spec16, order=order)

        rep = tune_order(fit, ar1_data(n=32, seed=7).context())
        assert calls == [1, 2, 3, 4, 5, 6]
        assert rep.order == 1

    def test_single_sample_rejected(self, spec16):
        data = ar1_data(n=1)
        with pytest.raises(ValueError):
            tune_order(lambda c, w: estimate_pls(c, spec16, order=w), data.context())


class TestTuneBoxFamily:
    def test_single_family_matches_direct(self):
        data = ar1_data(n=32, seed=13)
        ctx = data.context()
        family = DEFAULT_FAMILIES[1]
        direct = tune_order(
            lambda c, w: estimate_pls(c, box_spec_for(family, 16), order=w), ctx
        )
        wrapped = tune_box_family(
            lambda spec: (lambda c, w: estimate_pls(c, spec, order=w)),
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
        best = tune_box_family(
            lambda spec: (lambda c, w: estimate_pls(c, spec, order=w)), ctx
        )
        assert best.loglik == pytest.approx(max(per_family))

    @pytest.mark.parametrize("path", ["tuned", "pinned"])
    def test_rounding_noise_keeps_earlier_family(self, monkeypatch, path):
        """A family ahead by 1e-12 relative loglik loses to the earlier one;
        one ahead by 1e-6 wins.  Both the BIC-tuned and the pinned-order
        registry fit apply the rule."""
        data = ar1_data()
        ids = [f.family_id for f in DEFAULT_FAMILIES]

        def selected(gain):
            def fake_pgd(ctx, spec, order):
                value = 100.0 * (1.0 + (gain if spec.family_id == ids[1] else 0.0))
                return EstimationReport(GsParams(1.0, np.zeros(15)), order, value, 1, True,
                                        family_id=spec.family_id)

            monkeypatch.setattr(bench, "estimate_pgd", fake_pgd)
            info = bench.ESTIMATORS["pgd"]
            _, _, meta, _ = info.tuned(data) if path == "tuned" else info.pinned(data, 2)
            return meta["family"]

        assert selected(1e-12) == ids[0]
        assert selected(1e-6) == ids[1]

    def test_decay_tracks_coefficient_size(self):
        """The selected bound family must accommodate the lag-one ratio.

        Across the shipped families the lag-one bound grows with the decay
        rate (the scale grows faster than the exponential shrinks), so strong
        AR(1) coupling selects fast-decay families and weak coupling selects
        slow-decay ones.
        """
        k1 = [box_spec_for(f, 16).k[0] for f in DEFAULT_FAMILIES]
        assert np.all(np.diff(k1) > 0)

        def mean_selected_decay(a, trials=30):
            decays = []
            for seed in range(1000, 1000 + trials):
                data = sample(ProcessSpec("ar", 16, a=(a,), sigma2=0.64), 32, seed)
                rep = tune_box_family(
                    lambda spec: (lambda c, w: estimate_pls(c, spec, order=w)),
                    data.context(),
                )
                decays.append(float(rep.family_id.split("-")[1]))
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
