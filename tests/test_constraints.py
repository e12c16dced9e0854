import warnings

import numpy as np
import pytest

from toepcov.constraints import (
    DEFAULT_FAMILIES,
    BoxSpec,
    FunctionFamily,
    ToleranceSet,
    bisect_box_scale,
    box_bound,
    box_spec_for,
    cross_diagonals,
    eig_constraints,
    frob_constraint,
    frobenius_gain_sq,
    project_box,
    spectral_pd_check,
)
from toepcov.toeplitz import GsParams, gs_assemble, gs_factor_b, gs_factor_z

rng = np.random.default_rng(998877)


def random_alpha(p, scale=0.5, complex_case=False):
    rest = rng.normal(size=p - 1) * scale
    if complex_case:
        rest = rest + 1j * rng.normal(size=p - 1) * scale
    return GsParams(float(rng.uniform(0.3, 3.0)), rest)


def dense_cross_factor(alpha):
    b = gs_factor_b(alpha).dense()
    z = gs_factor_z(alpha).dense()
    return z.conj().T @ np.linalg.inv(b.conj().T)


class TestCrossDiagonals:
    def test_two_by_two(self):
        a1 = 0.37
        g = cross_diagonals(GsParams(1.0, np.array([a1])))
        assert np.allclose(g, [a1])
        assert abs(frobenius_gain_sq(GsParams(1.0, np.array([a1]))) - a1**2) < 1e-15

    def test_zero_tail(self):
        alpha = GsParams(2.0, np.zeros(7))
        assert np.all(cross_diagonals(alpha) == 0.0)
        assert frobenius_gain_sq(alpha) == 0.0

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_matches_dense_frobenius(self, complex_case):
        for _ in range(50):
            p = int(rng.integers(2, 40))
            alpha = random_alpha(p, scale=rng.uniform(0.05, 1.0), complex_case=complex_case)
            want = np.linalg.norm(dense_cross_factor(alpha), "fro") ** 2
            got = frobenius_gain_sq(alpha)
            assert abs(want - got) <= 1e-10 * max(1.0, abs(want))


class TestSpectralPdCheck:
    def test_white_noise(self):
        assert spectral_pd_check(GsParams(1.0, np.zeros(5)))

    def test_boundary_excluded(self):
        assert not spectral_pd_check(GsParams(1.0, np.array([-1.0])))

    def test_agrees_with_eigenvalues(self):
        for _ in range(60):
            p = int(rng.integers(2, 24))
            alpha = random_alpha(p, scale=rng.uniform(0.1, 1.2))
            want = bool(np.linalg.eigvalsh(gs_assemble(alpha)).min() > 0)
            assert spectral_pd_check(alpha) == want

    def test_frobenius_bound_implies_pd(self):
        hits = 0
        while hits < 30:
            alpha = random_alpha(int(rng.integers(2, 20)), scale=0.2)
            if frobenius_gain_sq(alpha) < 1.0:
                assert spectral_pd_check(alpha)
                hits += 1


class TestBoxBound:
    def test_zero(self):
        assert box_bound(np.zeros(7)) == 0.0

    def test_single_coordinate(self):
        assert abs(box_bound([0.7]) - 0.49) < 1e-14

    def test_componentwise_monotone(self):
        for _ in range(50):
            k1 = np.abs(rng.normal(size=9)) * 0.2
            k2 = k1 + np.abs(rng.normal(size=9)) * 0.1
            assert box_bound(k2) >= box_bound(k1) - 1e-12

    def test_certificate_implies_pd(self):
        spec = box_spec_for(DEFAULT_FAMILIES[2], 16)
        for _ in range(500):
            a0 = float(rng.uniform(0.05, 20.0))
            rest = rng.uniform(-1.0, 1.0, size=15) * spec.k * a0
            assert spectral_pd_check(GsParams(a0, rest))

    def test_bounds_frobenius_gain(self):
        spec = box_spec_for(DEFAULT_FAMILIES[1], 12)
        for _ in range(200):
            a0 = float(rng.uniform(0.1, 5.0))
            rest = rng.uniform(-1.0, 1.0, size=11) * spec.k * a0
            assert frobenius_gain_sq(GsParams(a0, rest)) <= box_bound(spec.k) + 1e-12


class TestBisectBoxScale:
    def test_lands_in_band(self):
        tol = 1e-3
        for family in DEFAULT_FAMILIES:
            eta, k = bisect_box_scale(family, 32, tol)
            b = box_bound(k)
            assert 1.0 - tol <= b < 1.0

    def test_dimension_stability(self):
        for family in DEFAULT_FAMILIES:
            e32, _ = bisect_box_scale(family, 32)
            e256, _ = bisect_box_scale(family, 256)
            assert abs(e32 - e256) < 0.01

    def test_constant_family(self):
        fam = FunctionFamily("flat", lambda eta, i: eta * np.ones_like(np.asarray(i, dtype=float)))
        eta, k = bisect_box_scale(fam, 16)
        assert np.allclose(k, eta)
        assert 1.0 - 1e-3 <= box_bound(k) < 1.0

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError):
            FunctionFamily("offset", lambda eta, i: eta + 1.0)
        with pytest.raises(ValueError):
            FunctionFamily("decreasing", lambda eta, i: np.maximum(1.0 - eta, 0.0) * np.ones_like(np.asarray(i, dtype=float)))


class TestBoxSpec:
    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            BoxSpec(np.array([0.2, -0.1]))

    def test_zero_bound_pins_coefficient(self):
        spec = BoxSpec(np.array([0.3, 0.0]))
        alpha = project_box(GsParams(2.0, np.array([5.0, -5.0])), spec)
        assert alpha.alpha_rest[1] == 0.0
        assert spectral_pd_check(alpha)

    @pytest.mark.parametrize("p", [340, 600, 1000, 1300, 4096])
    def test_default_families_calibrate_at_large_dims(self, p):
        """Decaying bounds underflow to zero here; calibration must still land."""
        for family in DEFAULT_FAMILIES:
            spec = box_spec_for(family, p)
            assert spec.dim == p
            assert np.all(spec.k >= 0)
            assert 1.0 - 1e-3 <= box_bound(spec.k) < 1.0


class TestProjectBox:
    def test_interior_unchanged(self):
        spec = box_spec_for(DEFAULT_FAMILIES[1], 8)
        alpha = GsParams(1.0, spec.k * 0.5)
        assert np.allclose(project_box(alpha, spec).full, alpha.full)

    def test_clamp(self):
        spec = BoxSpec(np.array([0.8]))
        out = project_box(GsParams(1.0, np.array([5.0])), spec)
        assert np.allclose(out.full, [1.0, 0.8])

    def test_idempotent_and_pd(self):
        spec = box_spec_for(DEFAULT_FAMILIES[0], 10)
        for _ in range(100):
            alpha = GsParams(float(rng.uniform(1e-4, 4.0)), rng.normal(size=9) * 3)
            once = project_box(alpha, spec)
            twice = project_box(once, spec)
            assert np.array_equal(once.full, twice.full)
            assert spectral_pd_check(once)

    def test_complex_parts_clamped(self):
        spec = box_spec_for(DEFAULT_FAMILIES[1], 6)
        alpha = GsParams(2.0, (rng.normal(size=5) + 1j * rng.normal(size=5)) * 4)
        out = project_box(alpha, spec)
        assert np.all(np.abs(out.alpha_rest.real) <= spec.k * out.alpha0 / 2 + 1e-15)
        assert np.all(np.abs(out.alpha_rest.imag) <= spec.k * out.alpha0 / 2 + 1e-15)
        assert spectral_pd_check(out)


class TestFrobConstraint:
    def test_white_noise_strictly_feasible(self):
        val, _ = frob_constraint(GsParams(1.0, np.zeros(7)), 1e-4)
        assert val == pytest.approx(1e-4 - 1.0)

    def test_feasible_implies_pd(self):
        hits = 0
        while hits < 25:
            alpha = random_alpha(int(rng.integers(2, 16)), scale=0.25)
            val, _ = frob_constraint(alpha, 1e-4)
            if val < 0:
                assert spectral_pd_check(alpha)
                hits += 1

    @pytest.mark.parametrize("complex_case", [False, True], ids=["real", "complex"])
    def test_gradient_matches_central_differences(self, complex_case):
        """Every coordinate, including the scale; complex entries pack d/dRe + i d/dIm."""
        for p in (2, 3, 10, 33):
            alpha = random_alpha(p, scale=0.5 / np.sqrt(p), complex_case=complex_case)
            val, grad = frob_constraint(alpha, 1e-4)
            assert val == pytest.approx(frobenius_gain_sq(alpha) - 1.0 + 1e-4, abs=1e-15)
            assert grad.shape == (p,) and np.iscomplexobj(grad) == complex_case
            full = alpha.full.astype(grad.dtype)
            parts = [(i, 1.0) for i in range(p)] + [(i, 1j) for i in range(1, p) if complex_case]
            for i, part in parts:
                h = 1e-6 * max(1.0, abs(full[i]))
                up, down = full.copy(), full.copy()
                up[i] += h * part
                down[i] -= h * part
                want = (frobenius_gain_sq(GsParams.from_full(up))
                        - frobenius_gain_sq(GsParams.from_full(down))) / (2 * h)
                got = grad[i].real if part == 1.0 else grad[i].imag
                assert got == pytest.approx(want, rel=1e-6, abs=1e-8)

    def test_support_selects_entries(self):
        alpha = random_alpha(12, scale=0.1, complex_case=True)
        _, grad = frob_constraint(alpha, 1e-4)
        _, sub = frob_constraint(alpha, 1e-4, support=[0, 3, 7])
        assert np.array_equal(sub, grad[[0, 3, 7]])

    def test_no_overflow_warning_far_outside(self):
        """Far from the feasible set the value is inf, not a numpy warning."""
        alpha = GsParams(1.0, np.array([1e3] * 6 + [0.0] * 121))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frobenius_gain_sq(alpha) == np.inf
            assert frob_constraint(alpha, 1e-4)[0] == np.inf
            assert not np.all(np.isfinite(cross_diagonals(alpha)))
            assert not spectral_pd_check(alpha)


class TestEigConstraints:
    def test_white_noise(self):
        vals = eig_constraints(GsParams(1.0, np.zeros(15)), 1e-6)
        assert np.allclose(vals, 1.0 - 1e-6)

    def test_matches_oracle_eigenvalues(self):
        for _ in range(10):
            alpha = random_alpha(16, scale=0.3)
            got = eig_constraints(alpha, 0.0)
            want = np.linalg.eigvalsh(gs_assemble(alpha))
            assert np.allclose(np.sort(got), np.sort(want), atol=1e-9)

    def test_positive_iff_pd(self):
        for _ in range(30):
            alpha = random_alpha(int(rng.integers(2, 12)), scale=rng.uniform(0.2, 1.0))
            assert (eig_constraints(alpha, 0.0).min() > 0) == spectral_pd_check(alpha)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="Frobenius or box"):
            eig_constraints(GsParams(1.0, np.zeros(100)), 1e-6)


class TestContainment:
    def test_box_inside_frobenius_inside_eig(self):
        """Feasibility nesting on ten thousand draws: box-feasible implies the
        Frobenius surrogate holds, which implies positive definiteness."""
        p = 16
        spec = box_spec_for(DEFAULT_FAMILIES[3], p)
        tol = ToleranceSet()
        checked = 0
        for trial in range(10_000):
            a0 = float(rng.uniform(0.1, 5.0))
            if trial % 2 == 0:
                rest = rng.uniform(-1.0, 1.0, size=p - 1) * spec.k * a0
            else:
                rest = rng.normal(size=p - 1) * rng.uniform(0.02, 0.8)
            alpha = GsParams(a0, rest)
            in_box = bool(np.all(np.abs(rest) <= spec.k * a0))
            frob_ok = frobenius_gain_sq(alpha) - 1.0 + tol.eps_f < 0
            if in_box:
                assert frobenius_gain_sq(alpha) < 1.0
            if frob_ok:
                pd = bool(np.linalg.eigvalsh(gs_assemble(alpha)).min() > 0)
                assert pd
                checked += 1
        assert checked > 1000


class TestToleranceSet:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            ToleranceSet(eps0=0.0)
