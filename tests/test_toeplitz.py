import numpy as np
import pytest

from toepcov.toeplitz import (
    GsParams,
    HermitianToeplitz,
    LowerTriToeplitz,
    NotPositiveDefiniteError,
    PartialDiagSums,
    UnstableARError,
    ar_to_autocov,
    ar_to_gs,
    fib_seq,
    gs_assemble,
    gs_factor_b,
    gs_factor_z,
    gs_to_ar,
    lag_sums,
    toeplitz_from_lags,
    toeplitz_logdet,
    trace_general_tri_shift,
    trace_toep_tri_shift,
)

rng = np.random.default_rng(20240817)


def random_stable_ar(order, dtype=float):
    """Stable AR coefficients built by stepping up random reflection coefficients."""
    a = np.zeros(0, dtype=dtype)
    for _ in range(order):
        if dtype is complex:
            km = (rng.uniform(-0.85, 0.85) + 1j * rng.uniform(-0.85, 0.85)) / np.sqrt(2)
        else:
            km = rng.uniform(-0.9, 0.9)
        a = np.concatenate((a - km * np.conj(a[::-1]), [km]))
    return a


def shift_down(p, k):
    return np.linalg.matrix_power(np.eye(p, k=-1), k)


class TestFibSeq:
    def test_starts_at_one(self):
        assert fib_seq(rng.normal(size=6), 0)[0] == 1.0

    def test_zero_weights(self):
        f = fib_seq(np.zeros(5), 5)
        assert f[0] == 1.0
        assert np.all(f[1:] == 0.0)

    def test_classic_sequence(self):
        f = fib_seq([1.0, 1.0, 0.0, 0.0, 0.0], 5)
        assert np.array_equal(f, [1, 1, 2, 3, 5, 8])

    def test_monotone_in_weights(self):
        r = np.abs(rng.normal(size=8)) * 0.4
        bigger = r.copy()
        bigger[3] += 0.2
        assert np.all(fib_seq(bigger, 8) >= fib_seq(r, 8) - 1e-15)

    def test_rejects_overrun(self):
        with pytest.raises(ValueError):
            fib_seq(np.ones(3), 4)


class TestFactors:
    def test_first_columns(self):
        alpha = GsParams(1.0, np.array([-0.5, 0.0]))
        assert np.array_equal(gs_factor_b(alpha).first_col, [1.0, -0.5, 0.0])
        assert np.array_equal(gs_factor_z(alpha).first_col, [0.0, 0.0, -0.5])

    def test_real_parameters_give_real_mirror(self):
        alpha = GsParams(2.0, rng.normal(size=5))
        assert not np.iscomplexobj(gs_factor_z(alpha).first_col)

    def test_two_by_two_mirror(self):
        z = gs_factor_z(GsParams(2.0, np.array([1.0]))).dense()
        expected = np.zeros((2, 2))
        expected[1, 0] = 1.0
        assert np.array_equal(z, expected)


class TestGsAssemble:
    def test_hand_example(self):
        alpha = GsParams(1.0, np.array([-0.5, 0.0]))
        expected = np.array([[1.0, -0.5, 0.0], [-0.5, 1.25, -0.5], [0.0, -0.5, 1.0]])
        assert np.allclose(gs_assemble(alpha), expected, atol=1e-15)

    def test_white_noise_is_identity(self):
        alpha = GsParams(1.0, np.zeros(5))
        assert np.array_equal(gs_assemble(alpha), np.eye(6))

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_matches_naive_product(self, complex_case):
        for _ in range(25):
            p = int(rng.integers(2, 24))
            rest = rng.normal(size=p - 1)
            if complex_case:
                rest = rest + 1j * rng.normal(size=p - 1)
            alpha = GsParams(float(rng.uniform(0.3, 3.0)), rest)
            b = gs_factor_b(alpha).dense()
            z = gs_factor_z(alpha).dense()
            naive = (b @ b.conj().T - z @ z.conj().T) / alpha.alpha0
            assert np.allclose(gs_assemble(alpha), naive, atol=1e-12)

    def test_banded_parameters_give_banded_matrix(self):
        rest = np.zeros(11)
        rest[:3] = rng.normal(size=3) * 0.3
        gam = gs_assemble(GsParams(1.5, rest))
        assert np.all(gam[np.abs(np.subtract.outer(range(12), range(12))) > 3] == 0.0)


class TestArMaps:
    def test_hand_map(self):
        alpha = ar_to_gs([0.5], 1.0, 3)
        assert np.allclose(alpha.full, [1.0, -0.5, 0.0])

    def test_white_noise(self):
        alpha = ar_to_gs([], 2.0, 4)
        assert np.allclose(alpha.full, [0.5, 0, 0, 0])

    def test_round_trip(self):
        for _ in range(20):
            w = int(rng.integers(0, 6))
            a = random_stable_ar(w)
            sigma2 = float(rng.uniform(0.2, 3.0))
            back, s2 = gs_to_ar(ar_to_gs(a, sigma2, 12))
            assert np.allclose(back, a, atol=1e-12)
            assert abs(s2 - sigma2) < 1e-14

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            ar_to_gs([0.5], 0.0, 4)


class TestArToAutocov:
    def test_ar1_closed_form(self):
        c = ar_to_autocov([0.5], 0.75, 5)
        assert np.allclose(c.first_col, [1.0, 0.5, 0.25, 0.125, 0.0625])

    def test_white_noise(self):
        c = ar_to_autocov([], 1.7, 4)
        assert np.allclose(c.first_col, [1.7, 0, 0, 0])

    def test_inverse_of_assembled(self):
        for _ in range(15):
            w = int(rng.integers(1, 4))
            a = random_stable_ar(w)
            sigma2 = float(rng.uniform(0.3, 2.0))
            p = int(rng.integers(w + 1, 24))
            gam = gs_assemble(ar_to_gs(a, sigma2, p))
            cov = ar_to_autocov(a, sigma2, p).dense()
            assert np.allclose(gam @ cov, np.eye(p), atol=1e-8)

    def test_complex_inverse_of_assembled(self):
        for _ in range(10):
            w = int(rng.integers(1, 4))
            a = random_stable_ar(w, dtype=complex)
            sigma2 = float(rng.uniform(0.3, 2.0))
            p = int(rng.integers(w + 1, 16))
            gam = gs_assemble(ar_to_gs(a, sigma2, p))
            cov = ar_to_autocov(a, sigma2, p).dense()
            assert np.allclose(gam @ cov, np.eye(p), atol=1e-8)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableARError):
            ar_to_autocov([1.01], 1.0, 8)


class TestToeplitzLogdet:
    def test_identity(self):
        assert toeplitz_logdet(HermitianToeplitz(np.array([1.0, 0, 0]))) == 0.0

    def test_scaled_identity(self):
        got = toeplitz_logdet(HermitianToeplitz(np.array([2.0, 0, 0, 0])))
        assert abs(got - 4 * np.log(2)) < 1e-14

    def test_matches_dense_factorization(self):
        for _ in range(20):
            w = int(rng.integers(0, 5))
            a = random_stable_ar(w)
            c = ar_to_autocov(a, float(rng.uniform(0.3, 2.0)), 32)
            dense = np.linalg.slogdet(c.dense())[1]
            assert abs(toeplitz_logdet(c) - dense) < 1e-9 * max(1.0, abs(dense))

    def test_not_pd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            toeplitz_logdet(HermitianToeplitz(np.array([1.0, 2.0])))


class TestTraceKernels:
    def test_pure_shift_has_zero_trace(self):
        got = trace_toep_tri_shift(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), 1)
        assert got == 0.0

    def test_all_ones_hand_value(self):
        got = trace_toep_tri_shift(np.ones(3), np.array([1.0, 0, 0]), 1)
        assert got == 2.0

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_array_of_shifts_matches_one_shift_at_a_time(self, complex_case):
        for p in (1, 2, 7, 33):
            c = rng.normal(size=p)
            d = rng.normal(size=p)
            if complex_case:
                c = c + 1j * rng.normal(size=p)
                c[0] = c[0].real
                d = d + 1j * rng.normal(size=p)
            shifts = rng.permutation(p)
            got = trace_toep_tri_shift(c, d, shifts)
            want = [trace_toep_tri_shift(c, d, int(k)) for k in shifts]
            assert got.shape == (p,) and list(got) == want  # bit for bit

    @pytest.mark.parametrize("bad", [-1, 5, [0, 5]])
    def test_shift_out_of_range(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            trace_toep_tri_shift(np.ones(5), np.ones(5), bad)

    def test_zero_matrix(self):
        sums = PartialDiagSums.from_matrix(np.zeros((4, 4)))
        assert trace_general_tri_shift(sums, rng.normal(size=4), 2) == 0.0

    def test_identity_trace(self):
        sums = PartialDiagSums.from_matrix(np.eye(6))
        d = np.zeros(6)
        d[0] = 1.0
        assert trace_general_tri_shift(sums, d, 0) == 6.0

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_against_dense_products(self, complex_case):
        for _ in range(60):
            p = int(rng.integers(2, 40))
            k = int(rng.integers(0, p))
            c = rng.normal(size=p)
            d = rng.normal(size=p)
            q = rng.normal(size=(p, p))
            if complex_case:
                c = c + 1j * rng.normal(size=p)
                c[0] = c[0].real
                d = d + 1j * rng.normal(size=p)
                q = q + 1j * rng.normal(size=(p, p))
            ct = HermitianToeplitz(c)
            dt = LowerTriToeplitz(d)
            ek = shift_down(p, k)
            want = np.trace(ct.dense() @ dt.dense() @ ek.T)
            got = trace_toep_tri_shift(ct.first_col, dt.first_col, k)
            assert abs(want - got) <= 1e-12 * max(1.0, abs(want))
            want_q = np.trace(q @ dt.dense() @ ek.T)
            got_q = trace_general_tri_shift(PartialDiagSums.from_matrix(q), dt.first_col, k)
            assert abs(want_q - got_q) <= 1e-12 * max(1.0, abs(want_q))


class TestTypes:
    def test_gs_params_requires_positive_scale(self):
        with pytest.raises(ValueError):
            GsParams(0.0, np.zeros(3))
        with pytest.raises(ValueError):
            GsParams(-1.0, np.zeros(3))

    def test_hermitian_toeplitz_requires_real_leading_entry(self):
        with pytest.raises(ValueError):
            HermitianToeplitz(np.array([1.0 + 0.5j, 0.2 + 0.1j]))

    def test_hermitian_dense_symmetry(self):
        c = rng.normal(size=6) + 1j * rng.normal(size=6)
        c[0] = c[0].real
        m = HermitianToeplitz(c).dense()
        assert np.allclose(m, m.conj().T)

    def test_partial_diag_sums_recursion(self):
        q = rng.normal(size=(7, 7))
        table = PartialDiagSums.from_matrix(q).table
        for k in range(7):
            for m in range(7):
                run = min(7 - k, 7 - m)
                want = sum(q[k + j, m + j] for j in range(run))
                assert abs(table[k, m] - want) < 1e-12
        assert abs(table[0, 0] - np.trace(q)) < 1e-12

    @pytest.mark.parametrize("complex_case", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 17, 128])
    def test_partial_diag_sums_equal_row_loop_bit_for_bit(self, p, complex_case):
        q = rng.normal(size=(p, p)) + (1j * rng.normal(size=(p, p)) if complex_case else 0)
        # reference: the bottom-up row recursion, one new temporary per row
        want = q.astype(np.result_type(q.dtype, np.float64), copy=True)
        for k in range(p - 2, -1, -1):
            want[k, :-1] = q[k, :-1] + want[k + 1, 1:]
        got = PartialDiagSums.from_matrix(q).table
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_partial_diag_sums_table_is_private_and_read_only(self, complex_case):
        """Whether built by ``from_matrix`` or from a caller's table, the
        table is read-only and shares no memory with what was passed in."""
        q = rng.normal(size=(9, 9)) + (1j * rng.normal(size=(9, 9)) if complex_case else 0)
        kept = q.copy()
        for sums in (PartialDiagSums.from_matrix(q), PartialDiagSums(q)):
            assert not sums.table.flags.writeable and not np.shares_memory(sums.table, q)
            with pytest.raises(ValueError):
                sums.table[0, 0] = 1.0
        assert np.array_equal(q, kept) and np.array_equal(PartialDiagSums(q).table, q)
        ints = PartialDiagSums.from_matrix(np.eye(3, dtype=int)).table
        assert ints.dtype == np.float64 and not ints.flags.writeable

    @pytest.mark.parametrize("complex_case", [False, True])
    def test_hermitian_dense_matches_index_formula(self, complex_case):
        for p in (1, 2, 9):
            c = rng.normal(size=p) + (1j * rng.normal(size=p) if complex_case else 0)
            c[0] = c[0].real
            i, j = np.indices((p, p))
            lag = i - j
            want = np.where(lag >= 0, c[np.abs(lag)], np.conj(c[np.abs(lag)]))
            got = HermitianToeplitz(c).dense()
            assert got.dtype == c.dtype and np.array_equal(got, want)

    def test_lag_sums_against_traces(self):
        for p in (1, 2, 6):
            q = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
            for max_lag in (None, 0, 1, p - 1, p + 2):
                last = p - 1 if max_lag is None else min(max_lag, p - 1)
                want = [np.trace(q, offset=-lag) for lag in range(-last, last + 1)]
                got = lag_sums(q, max_lag)
                assert got.shape == (2 * last + 1,)
                assert np.allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_toeplitz_from_lags_inverts_lag_layout(self):
        lags = np.arange(-3.0, 4.0)  # lags -3 .. 3 of a 4 x 4 matrix
        m = toeplitz_from_lags(lags)
        assert np.array_equal(m[:, 0], [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(m[0], [0.0, -1.0, -2.0, -3.0])
        assert np.array_equal(lag_sums(m), lags * (4 - np.abs(lags)))
        with pytest.raises(ValueError):
            toeplitz_from_lags(np.zeros(4))

    def test_order_property(self):
        assert GsParams(1.0, np.array([0.3, 0.0, 0.1, 0.0])).order == 3
        assert GsParams(1.0, np.zeros(4)).order == 0

    def test_immutability(self):
        alpha = GsParams(1.0, np.array([0.5]))
        with pytest.raises(ValueError):
            alpha.alpha_rest[0] = 0.0
