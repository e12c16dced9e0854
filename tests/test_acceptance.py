"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run with -s to see them inline).
"""

import json
import time

import numpy as np
import pytest

from toepcov.baselines import _em_iterates, cv_tune_mask, sample_cov
from toepcov.bench import ExperimentConfig, run_benchmark, timing_benchmark
from toepcov.constraints import (
    DEFAULT_FAMILIES,
    bisect_box_scale,
    box_spec_for,
    frobenius_gain_sq,
    spectral_pd_check,
)
from toepcov.estimators import (
    PgdOptions,
    estimate_eig,
    estimate_frob,
    estimate_pgd,
    estimate_pls,
    tune_order,
)
from toepcov.likelihood import LikelihoodContext, grad, loglik
from toepcov.processes import ProcessSpec, sample
from toepcov.toeplitz import (
    GsParams,
    PartialDiagSums,
    ar_to_autocov,
    ar_to_gs,
    gs_assemble,
    gs_factor_b,
    gs_factor_z,
    trace_general_tri_shift,
    trace_toep_tri_shift,
)

rng = np.random.default_rng(0xACCE97)


def _report(criterion, message):
    print(f"[criterion {criterion:02d}] PASS: {message}")


def random_stable_ar(order, max_refl=0.9):
    a = np.zeros(0)
    for _ in range(order):
        km = rng.uniform(-max_refl, max_refl)
        a = np.concatenate((a - km * a[::-1], [km]))
    return a


def test_criterion_01_gs_duality():
    """Assembled precision times the recursion-built covariance is identity."""
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        w = int(rng.integers(0, 9))
        p = int(rng.integers(max(2, w + 1), 65))
        a = random_stable_ar(w)
        sigma2 = float(rng.uniform(0.2, 3.0))
        gam = gs_assemble(ar_to_gs(a, sigma2, p))
        cov = ar_to_autocov(a, sigma2, p).dense()
        err = np.linalg.norm(gam @ cov - np.eye(p)) / np.linalg.norm(np.eye(p))
        worst = max(worst, err)
        assert err <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(1, f"500 random AR specs, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_cross_factor_closed_form():
    """Closed-form squared Frobenius gain matches the dense product."""
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(2, 129))
        rest = rng.normal(size=p - 1) * rng.uniform(0.02, 1.0)
        alpha = GsParams(float(rng.uniform(0.3, 3.0)), rest)
        b = gs_factor_b(alpha).dense()
        z = gs_factor_z(alpha).dense()
        dense = np.linalg.norm(z.conj().T @ np.linalg.inv(b.conj().T), "fro") ** 2
        got = frobenius_gain_sq(alpha)
        err = abs(dense - got) / max(1.0, abs(dense))
        worst = max(worst, err)
        assert err <= 1e-10
    _report(2, f"1000 random parameter vectors (P <= 128), worst error {worst:.2e}")


def test_criterion_03_box_certificate():
    """Every point inside a calibrated box assembles positive definite."""
    p = 32
    checked = 0
    for family in DEFAULT_FAMILIES:
        spec = box_spec_for(family, p)
        for _ in range(10_000):
            a0 = float(rng.uniform(0.05, 20.0))
            rest = rng.uniform(-1.0, 1.0, size=p - 1) * spec.k * a0
            assert spectral_pd_check(GsParams(a0, rest))
            checked += 1
    _report(3, f"{checked} box points across {len(DEFAULT_FAMILIES)} families, zero violations")


def test_criterion_04_scale_table():
    """Bisection reproduces the published family scales at P = 128."""
    expected = {"exp-0.6": 0.822, "exp-1": 1.718, "exp-1.4": 3.055, "exp-1.8": 5.047, "exp-2.2": 8.025}
    got = {}
    for family in DEFAULT_FAMILIES:
        eta, _ = bisect_box_scale(family, 128, tol=1e-3)
        got[family.family_id] = eta
        assert eta == pytest.approx(expected[family.family_id], abs=0.01)
    pretty = ", ".join(f"{k}={v:.3f}" for k, v in got.items())
    _report(4, pretty)


def test_criterion_05_conditional_ls_closed_form():
    """Hand-worked closed form plus agreement with a normal-equations oracle."""
    x = np.array([[1.0, 2.0, 3.0]])
    ctx = LikelihoodContext(sample_cov(x), 1)
    spec = box_spec_for(DEFAULT_FAMILIES[1], 3)
    rep = estimate_pls(ctx, spec, order=1, with_loglik=False)
    assert rep.extras["a_hat"][0] == pytest.approx(1.6, abs=1e-12)
    assert rep.extras["sigma2_hat"] == pytest.approx(0.1, abs=1e-12)
    worst = 0.0
    done = 0
    while done < 500:
        p = int(rng.integers(6, 28))
        n = int(rng.integers(1, 8))
        w = int(rng.integers(1, min(6, p - 1)))
        if n * (p - w) < 2 * w:  # closed form needs an invertible system
            continue
        x = rng.normal(size=(n, p))
        ctx = LikelihoodContext(sample_cov(x), n)
        rep = estimate_pls(ctx, box_spec_for(DEFAULT_FAMILIES[1], p), order=w, with_loglik=False)
        rows, ys = [], []
        for smp in range(n):
            for t in range(w, p):
                ys.append(x[smp, t])
                rows.append([x[smp, t - 1 - m] for m in range(w)])
        rows = np.asarray(rows)
        if np.linalg.cond(rows.T @ rows) > 1e8:
            continue
        a_oracle, *_ = np.linalg.lstsq(rows, np.asarray(ys), rcond=None)
        err = np.abs(rep.extras["a_hat"] - a_oracle).max()
        worst = max(worst, err)
        assert err <= 1e-10
        done += 1
    _report(5, f"hand example exact; 500 oracle comparisons, worst deviation {worst:.2e}")


def test_criterion_06_gradient_against_finite_differences():
    """Analytic gradient matches central differences componentwise."""
    h = 1e-6
    worst = 0.0
    points = 0
    for p in (8, 16, 32):
        family = DEFAULT_FAMILIES[1]
        spec = box_spec_for(family, p)
        x = rng.normal(size=(6, p))
        ctx = LikelihoodContext(sample_cov(x), 6)
        for _ in range(34):
            a0 = float(rng.uniform(0.5, 2.0))
            rest = rng.uniform(-0.95, 0.95, size=p - 1) * spec.k * a0
            alpha = GsParams(a0, rest)
            support = list(range(p))
            analytic = grad(ctx, alpha, support)
            fd = np.zeros(p)
            base = alpha.full
            for idx in support:
                up = base.copy()
                dn = base.copy()
                up[idx] += h
                dn[idx] -= h
                fd[idx] = (
                    loglik(ctx, GsParams.from_full(up)) - loglik(ctx, GsParams.from_full(dn))
                ) / (2 * h)
            rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
            worst = max(worst, rel.max())
            assert rel.max() < 1e-5
            points += 1
    _report(6, f"{points} feasible points (P in 8/16/32), worst relative error {worst:.2e}")


def test_criterion_07_trace_kernels():
    """O(P) trace kernels: exactness and near-linear per-call scaling."""
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(2, 48))
        k = int(rng.integers(0, p))
        c = rng.normal(size=p)
        d = rng.normal(size=p)
        q = rng.normal(size=(p, p))
        shift = np.linalg.matrix_power(np.eye(p, k=-1), k)
        from toepcov.toeplitz import HermitianToeplitz, LowerTriToeplitz

        want = np.trace(HermitianToeplitz(c).dense() @ LowerTriToeplitz(d).dense() @ shift.T)
        got = trace_toep_tri_shift(c, d, k)
        err = abs(want - got) / max(1.0, abs(want))
        want_q = np.trace(q @ LowerTriToeplitz(d).dense() @ shift.T)
        got_q = trace_general_tri_shift(PartialDiagSums.from_matrix(q), d, k)
        err = max(err, abs(want_q - got_q) / max(1.0, abs(want_q)))
        worst = max(worst, err)
        assert err <= 1e-12
    times = {}
    for p in (64, 128, 256, 512):
        c = rng.normal(size=p)
        d = rng.normal(size=p)
        sums = PartialDiagSums.from_matrix(rng.normal(size=(p, p)))
        calls = 2000
        best = np.inf
        for _ in range(3):
            start = time.perf_counter()
            for k in range(calls):
                trace_toep_tri_shift(c, d, k % p)
                trace_general_tri_shift(sums, d, k % p)
            best = min(best, (time.perf_counter() - start) / calls)
        times[p] = best
    ratios = [times[2 * p] / times[p] for p in (64, 128, 256)]
    assert max(ratios) <= 3.0
    _report(7, f"worst error {worst:.2e}; per-call doubling ratios {[f'{r:.2f}' for r in ratios]}")


def test_criterion_08_optimizer_contracts():
    """Monotone feasible ascent; every estimator's output is positive definite."""
    pd_checked = 0
    p = 16
    spec = box_spec_for(DEFAULT_FAMILIES[1], p)
    for seed in range(10):
        for process in (
            ProcessSpec("ar", p, a=(0.5,), sigma2=0.64),
            ProcessSpec("ma", p, b=(0.5,), sigma2=0.64),
        ):
            ctx = sample(process, 8, 9000 + seed).context()
            pgd = estimate_pgd(ctx, spec, 3, opts=PgdOptions(track_iterates=True))
            objectives = pgd.extras["objectives"]
            assert all(b >= a for a, b in zip(objectives, objectives[1:]))
            for alpha in pgd.extras["iterates"]:
                assert alpha.alpha0 >= 1e-6
                assert np.all(np.abs(alpha.alpha_rest) <= spec.k * alpha.alpha0 * (1 + 1e-12))
                assert spectral_pd_check(alpha)
            reports = [
                pgd,
                estimate_pls(ctx, spec, order=3),
                estimate_frob(ctx, order=2),
                estimate_eig(ctx, order=1),
            ]
            for rep in reports:
                assert spectral_pd_check(rep.alpha)
                pd_checked += 1
    _report(8, f"{pd_checked} estimator outputs positive definite; ascent monotone and feasible")


def test_criterion_09_em_monotone_likelihood():
    """EM's Gaussian likelihood never decreases across iterations."""
    p = 32
    total_iters = 0
    for seed in range(100):
        local = np.random.default_rng(7000 + seed)
        a = float(local.uniform(0.15, 0.85)) * (1 if local.uniform() < 0.5 else -1)
        data = sample(ProcessSpec("ar", p, a=(a,), sigma2=0.64), 8, 7000 + seed)
        scm = data.scm
        lls = []
        for _, cp in _em_iterates(scm, 2 * p, 60, 1e-8, 1e-10):
            ll = -np.linalg.slogdet(cp)[1] - np.trace(np.linalg.solve(cp, scm))
            lls.append(ll)
        assert all(b >= a_ - 1e-9 for a_, b in zip(lls, lls[1:])), f"seed {seed}"
        total_iters += len(lls)
    _report(9, f"100 AR(1) datasets, {total_iters} total iterations, slack 1e-9 never violated")


def test_criterion_10_icm_error_ordering(tmp_path):
    """Proposed estimators beat the likelihood baselines on precision error."""
    start = time.perf_counter()
    cfg = ExperimentConfig(
        kind="ar",
        points=((0.5,),),
        sigma2=0.64,
        dims=(16,),
        sample_counts=(8,),
        estimators=("pgd", "pls", "circ", "em", "shrink_const"),
        runs=200,
        seed=20240501,
    )
    rows = run_benchmark(cfg, str(tmp_path / "criterion10"))
    by = {r["estimator"]: r for r in rows}
    for name in cfg.estimators:
        assert by[name]["failures"] == 0
        assert by[name]["nmse_icm_count"] == 200
    for proposed in ("pgd", "pls"):
        hi = by[proposed]["nmse_icm_mean"] + 2 * by[proposed]["nmse_icm_se"]
        for baseline in ("circ", "em", "shrink_const"):
            lo = by[baseline]["nmse_icm_mean"] - 2 * by[baseline]["nmse_icm_se"]
            assert by[proposed]["nmse_icm_mean"] < by[baseline]["nmse_icm_mean"]
            assert hi < lo, f"{proposed} vs {baseline}"
    # the tuned choices on these 200 datasets: a change to the fits or the
    # tuning loop that moves them shows here
    assert (by["pgd"]["order_hist"], by["pgd"]["family_hist"]) == (
        {"1": 187, "2": 13}, {"exp-0.6": 73, "exp-1": 120, "exp-1.4": 7})
    assert (by["pls"]["order_hist"], by["pls"]["family_hist"]) == (
        {"1": 188, "2": 12}, {"exp-0.6": 83, "exp-1": 112, "exp-1.4": 5})
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    means = {k: by[k]["nmse_icm_mean"] for k in cfg.estimators}
    _report(10, "precision NMSE " + ", ".join(f"{k}={v:.3f}" for k, v in means.items()) + f"; {elapsed:.0f}s")


def test_criterion_11_banding_duality(tmp_path):
    """MA(1) data: banding picks bandwidth one, the AR-side order stays small."""
    p, n, runs = 16, 64, 200
    process = ProcessSpec("ma", p, b=(0.5,), sigma2=0.64)
    spec = box_spec_for(DEFAULT_FAMILIES[1], p)
    mask_hist: dict = {}
    order_hist: dict = {}
    for seed in range(runs):
        data = sample(process, n, 8800 + seed)
        k = cv_tune_mask(data.samples, kind="banding").k
        mask_hist[k] = mask_hist.get(k, 0) + 1
        rep = tune_order(lambda c, w: estimate_pls(c, spec, order=w), data.context())
        order_hist[rep.order] = order_hist.get(rep.order, 0) + 1
    with open(tmp_path / "criterion11_hyperparameter_histograms.json", "w") as fh:
        json.dump(
            {
                "process": "ma(1) b=0.5 sigma2=0.64 P=16 N=64",
                "runs": runs,
                "banding_bandwidth": {str(k): v for k, v in sorted(mask_hist.items())},
                "gs_order": {str(k): v for k, v in sorted(order_hist.items())},
            },
            fh,
            indent=1,
        )
    modal_k = max(mask_hist.items(), key=lambda kv: kv[1])[0]
    assert modal_k == 1
    small_orders = sum(v for k, v in order_hist.items() if k <= 4)
    assert small_orders >= 0.8 * runs
    _report(
        11,
        f"modal bandwidth {modal_k}; order <= 4 in {small_orders}/{runs} runs; histograms archived",
    )


def test_criterion_12_order_selection_consistency():
    """BIC recovers the generative order at N = 256."""
    p, n, trials = 16, 256, 100
    spec = box_spec_for(DEFAULT_FAMILIES[1], p)
    ar_hits = 0
    for seed in range(trials):
        data = sample(ProcessSpec("ar", p, a=(0.5,), sigma2=0.64), n, 6600 + seed)
        rep = tune_order(lambda c, w: estimate_pls(c, spec, order=w), data.context())
        ar_hits += rep.order == 1
    noise_hits = 0
    for seed in range(trials):
        x = np.random.default_rng(5500 + seed).standard_normal((n, p))
        ctx = LikelihoodContext(sample_cov(x), n)
        rep = tune_order(lambda c, w: estimate_pls(c, spec, order=w), ctx)
        noise_hits += rep.order == 0
    assert ar_hits >= 90
    assert noise_hits >= 90
    _report(12, f"AR(1) order recovered {ar_hits}/100; white noise {noise_hits}/100")


def test_criterion_13_timing_scaling():
    """Wall-time doubling ratios stay inside the complexity classes."""
    dims = (64, 128, 256)
    rows = timing_benchmark(dims, ("pgd", "pls", "banding", "em"), n=64, reps=3)
    by = {(r["estimator"], r["dim"]): r["median_ms"] for r in rows}

    def ratios(name):
        return [by[(name, 2 * p)] / by[(name, p)] for p in (64, 128)]

    pgd_ratios = ratios("pgd")
    pls_ratios = ratios("pls")
    band_ratios = ratios("banding")
    em_ratios = ratios("em")
    assert max(pgd_ratios) <= 5.0
    assert max(pls_ratios) <= 3.0
    assert max(band_ratios) <= 3.0
    for p in dims:
        assert by[("pls", p)] < by[("pgd", p)]
    # em is permitted cubic growth; recorded but not bounded
    _report(
        13,
        "doubling ratios "
        f"pgd={[f'{r:.2f}' for r in pgd_ratios]} "
        f"pls={[f'{r:.2f}' for r in pls_ratios]} "
        f"banding={[f'{r:.2f}' for r in band_ratios]} "
        f"em={[f'{r:.2f}' for r in em_ratios]} (em unbounded)",
    )
