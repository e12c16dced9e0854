import warnings

import numpy as np
import pytest

from toepcov.constraints import (
    DEFAULT_FAMILIES,
    EPS_EIG,
    EPS_F,
    BoxSpec,
    FunctionFamily,
    bisect_box_scale,
    box_bound,
    box_spec_for,
    cross_diagonals,
    frob_constraint,
    frobenius_gain_sq,
    project_box,
    spectral_pd_check,
    strictly_inside_box,
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

    def test_family_is_its_decay(self):
        """A family is its decay rate: the id names it, the bounds are
        ``scale * exp(-decay * i)``, and a rate outside the defaults
        calibrates like them."""
        assert [f.family_id for f in DEFAULT_FAMILIES] == ["exp-0.6", "exp-1", "exp-1.4", "exp-1.8", "exp-2.2"]
        fam = FunctionFamily(0.3)
        eta, k = bisect_box_scale(fam, 16)
        assert fam.family_id == "exp-0.3"
        assert np.array_equal(k, eta * np.exp(-0.3 * np.arange(1, 16)))
        assert 1.0 - 1e-3 <= box_bound(k) < 1.0


    def test_box_is_cached_per_decay(self):
        """The cache keys on the family itself, not on its ``%g`` id: decay
        2.2000004 printed as ``exp-2.2`` and got the box of decay 2.2."""
        near = FunctionFamily(2.2000004)
        assert near.family_id == DEFAULT_FAMILIES[4].family_id
        box = box_spec_for(DEFAULT_FAMILIES[4], 16)
        assert box_spec_for(FunctionFamily(2.2), 16) is box
        assert np.array_equal(box_spec_for(near, 16).k, bisect_box_scale(near, 16)[1])
        assert not np.array_equal(box_spec_for(near, 16).k, box.k)


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

    def test_one_dimension_is_the_empty_box(self):
        """At P = 1 there is no coefficient to bound: every family's box is
        empty, certified by ``box_bound([]) = 0``, and keeps its family."""
        for family in DEFAULT_FAMILIES:
            spec = box_spec_for(family, 1)
            assert (spec.dim, spec.k.size, spec.family_id) == (1, 0, family.family_id)
            assert box_bound(spec.k) == 0.0


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


class TestStrictlyInsideBox:
    def test_real_geometry(self):
        spec = box_spec_for(DEFAULT_FAMILIES[1], 8)
        a0 = 2.5
        inside = GsParams(a0, spec.k * a0 * 0.99)
        assert strictly_inside_box(inside, spec, 7)
        on_bound = GsParams(a0, np.concatenate(([-spec.k[0] * a0], np.zeros(6))))
        assert not strictly_inside_box(on_bound, spec, 1)
        # coefficients beyond the order are not checked
        beyond = GsParams(a0, np.concatenate((np.zeros(2), [5.0], np.zeros(4))))
        assert strictly_inside_box(beyond, spec, 2) and not strictly_inside_box(beyond, spec, 3)

    def test_complex_parts_within_half_the_bound(self):
        spec = box_spec_for(DEFAULT_FAMILIES[1], 6)
        half = spec.k[0] / 2
        for part in (1.0, 1j):
            near = GsParams(1.0, np.concatenate(([0.99 * half * part], np.zeros(4, complex))))
            assert strictly_inside_box(near, spec, 1)
            # |a_1| = 0.6 K_1 < K_1, but one part exceeds half the bound
            over = GsParams(1.0, np.concatenate(([1.2 * half * part], np.zeros(4, complex))))
            assert not strictly_inside_box(over, spec, 1)

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_clamped_coordinate_is_never_inside(self, complex_case):
        """A coordinate that ``project_box`` clamped sits on the bound."""
        spec = box_spec_for(DEFAULT_FAMILIES[0], 10)
        seen = set()
        for _ in range(200):
            a0 = float(rng.uniform(1e-4, 4.0))
            bound = spec.k * a0 / (2 if complex_case else 1)  # of a coefficient, or of each part
            rest = rng.uniform(-1.1, 1.1, size=9) * bound
            if complex_case:
                rest = rest + 1j * rng.uniform(-1.1, 1.1, size=9) * bound
            out = project_box(GsParams(a0, rest), spec)
            clamped = not np.array_equal(out.alpha_rest, rest)
            assert strictly_inside_box(out, spec, 9) is not clamped
            seen.add(clamped)
        assert seen == {False, True}


class TestFrobConstraint:
    def test_white_noise_strictly_feasible(self):
        val, _ = frob_constraint(GsParams(1.0, np.zeros(7)))
        assert val == pytest.approx(1e-4 - 1.0)

    def test_feasible_implies_pd(self):
        hits = 0
        while hits < 25:
            alpha = random_alpha(int(rng.integers(2, 16)), scale=0.25)
            val, _ = frob_constraint(alpha)
            if val < 0:
                assert spectral_pd_check(alpha)
                hits += 1

    @pytest.mark.parametrize("complex_case", [False, True], ids=["real", "complex"])
    def test_gradient_matches_central_differences(self, complex_case):
        """Every coordinate, including the scale; complex entries pack d/dRe + i d/dIm."""
        for p in (2, 3, 10, 33):
            alpha = random_alpha(p, scale=0.5 / np.sqrt(p), complex_case=complex_case)
            val, grad = frob_constraint(alpha)
            assert val == pytest.approx(frobenius_gain_sq(alpha) - 1.0 + EPS_F, abs=1e-15)
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

    @pytest.mark.parametrize("complex_case", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("order", [1, 3, 6])
    def test_order_sized_truncation(self, complex_case, order):
        """At order w the gain and the gradient entries 0..w read alpha_0..alpha_w
        alone: dimension P gives what the (w+1)-term truncation gives, up to
        rounding (``np.dot`` groups its sum by position, so the leading zero
        diagonals can move the last bit)."""
        for p in (order + 1, 16, 128, 512):
            for _ in range(5):
                alpha = random_alpha(order + 1, scale=0.6 / order, complex_case=complex_case)
                rest = np.zeros(p - 1, dtype=alpha.alpha_rest.dtype)
                rest[:order] = alpha.alpha_rest
                padded = GsParams(alpha.alpha0, rest)
                gain = frobenius_gain_sq(alpha)
                assert frobenius_gain_sq(padded) == pytest.approx(gain, rel=1e-15, abs=0)
                val, grad = frob_constraint(padded)
                want_val, want = frob_constraint(alpha)
                assert val == pytest.approx(want_val, rel=1e-15, abs=0)
                assert np.abs(grad[: order + 1] - want).max() <= 1e-15 * np.abs(want).max()

    def test_no_overflow_warning_far_outside(self):
        """Far from the feasible set the value is inf, not a numpy warning."""
        alpha = GsParams(1.0, np.array([1e3] * 6 + [0.0] * 121))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frobenius_gain_sq(alpha) == np.inf
            assert frob_constraint(alpha)[0] == np.inf
            assert not np.all(np.isfinite(cross_diagonals(alpha)))
            assert not spectral_pd_check(alpha)


class TestEigConstraints:
    def test_white_noise(self):
        vals = np.linalg.eigvalsh(gs_assemble(GsParams(1.0, np.zeros(15))))
        assert np.allclose(vals, 1.0) and vals.min() > EPS_EIG

    def test_matches_oracle_eigenvalues(self):
        """Eigenvalues of the assembled matrix are those of (B B^H - Z Z^H) / a_0."""
        for _ in range(10):
            alpha = random_alpha(16, scale=0.3)
            b = gs_factor_b(alpha).dense()
            z = gs_factor_z(alpha).dense()
            got = np.linalg.eigvalsh(gs_assemble(alpha))
            want = np.linalg.eigvalsh((b @ b.T - z @ z.T) / alpha.alpha0)
            assert np.allclose(got, want, atol=1e-9)

    def test_positive_iff_pd(self):
        for _ in range(30):
            alpha = random_alpha(int(rng.integers(2, 12)), scale=rng.uniform(0.2, 1.0))
            assert (np.linalg.eigvalsh(gs_assemble(alpha)).min() > 0) == spectral_pd_check(alpha)


class TestContainment:
    def test_box_inside_frobenius_inside_eig(self):
        """Feasibility nesting on ten thousand draws: box-feasible implies the
        Frobenius surrogate holds, which implies positive definiteness."""
        p = 16
        spec = box_spec_for(DEFAULT_FAMILIES[3], p)
        checked = 0
        for trial in range(10_000):
            a0 = float(rng.uniform(0.1, 5.0))
            if trial % 2 == 0:
                rest = rng.uniform(-1.0, 1.0, size=p - 1) * spec.k * a0
            else:
                rest = rng.normal(size=p - 1) * rng.uniform(0.02, 0.8)
            alpha = GsParams(a0, rest)
            in_box = bool(np.all(np.abs(rest) <= spec.k * a0))
            frob_ok = frobenius_gain_sq(alpha) - 1.0 + EPS_F < 0
            if in_box:
                assert frobenius_gain_sq(alpha) < 1.0
            if frob_ok:
                pd = bool(np.linalg.eigvalsh(gs_assemble(alpha)).min() > 0)
                assert pd
                checked += 1
        assert checked > 1000
