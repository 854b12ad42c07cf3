import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cluttercov import (
    AspectRatio,
    MPLaw,
    RegimeWarning,
    eigh,
    mp_cdf,
    mp_median,
    mp_pdf,
    sample_covariance,
)
from cluttercov.rng import substream


def law_of(gamma_num, gamma_den):
    return MPLaw(AspectRatio(gamma_num, gamma_den))


class TestAspectRatio:
    def test_gamma_is_exact_ratio(self):
        r = AspectRatio(128, 512)
        assert r.gamma == 128 / 512

    def test_rejects_gamma_above_one(self):
        with pytest.raises(ValueError):
            AspectRatio(10, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            AspectRatio(0, 5)

    def test_equal_p_n_warns(self):
        with pytest.warns(RegimeWarning) as record:
            AspectRatio(16, 16)
        assert record[0].filename == __file__  # names the caller


class TestMpPdf:
    def test_vanishes_at_support_edges(self):
        law = law_of(1, 4)
        assert mp_pdf(law.support_lo, law) == 0.0
        assert mp_pdf(law.support_hi, law) == 0.0

    def test_zero_outside_support(self):
        law = law_of(1, 4)
        assert mp_pdf(law.support_lo - 0.1, law) == 0.0
        assert mp_pdf(law.support_hi + 0.1, law) == 0.0

    @pytest.mark.parametrize("num,den", [(1, 10), (1, 4), (1, 2), (9, 10)])
    def test_integrates_to_one(self, num, den):
        law = law_of(num, den)
        total, err = integrate.quad(
            lambda x: mp_pdf(x, law), law.support_lo, law.support_hi,
            epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        assert abs(total - 1.0) < 1e-8

    @given(st.floats(min_value=-1.0, max_value=6.0))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_everywhere(self, x):
        law = law_of(1, 2)
        assert mp_pdf(x, law) >= 0.0


class TestMpMedian:
    def test_small_gamma_approaches_one(self):
        # the law collapses to a point mass at 1
        assert abs(mp_median(law_of(1, 10_000)) - 1.0) < 0.02

    def test_cdf_at_median_is_half(self):
        law = law_of(1, 4)
        med = mp_median(law)
        assert law.support_lo < med < law.support_hi
        assert abs(mp_cdf(med, law) - 0.5) < 1e-10

    def test_monotone_in_gamma(self):
        # strictly decreasing: widening the bulk skews mass below 1, consistent
        # with the empirical white-noise median check below
        meds = [mp_median(law_of(k, 10)) for k in range(1, 10)]
        assert all(a > b for a, b in zip(meds, meds[1:]))
        assert all(m < 1.0 for m in meds)

    def test_matches_empirical_median_white_noise(self):
        # gamma = 1/2: eigenvalues of a 1000 x 2000 unit-variance complex
        # white sample covariance
        p, n = 1000, 2000
        rng = substream(7, 0)
        w = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2)
        lam = np.linalg.eigvalsh(w @ w.conj().T / n)
        emp = np.median(lam)
        assert abs(emp - mp_median(law_of(1, 2))) / emp < 0.01


class TestSampleCovariance:
    def test_single_snapshot_rank_one(self):
        p = 6
        y = np.full(p, np.sqrt(1.0), dtype=complex)  # norm^2 = p
        with pytest.warns(RegimeWarning):
            scm = sample_covariance(y[:, None])
        np.testing.assert_allclose(scm, np.outer(y, y.conj()), atol=1e-15)
        assert np.linalg.matrix_rank(scm, hermitian=True) == 1
        assert abs(np.trace(scm).real - p) < 1e-12

    def test_duplicate_snapshots_average_to_same_matrix(self):
        rng = substream(1, 0)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        with pytest.warns(RegimeWarning):
            one = sample_covariance(y[:, None])
        with pytest.warns(RegimeWarning):
            two = sample_covariance(np.column_stack([y, y]))
        np.testing.assert_allclose(one, two, atol=1e-15)

    def test_white_noise_trace_recovers_power(self):
        p, sigma2 = 40, 2.5
        n = 10 * p
        rng = substream(2, 0)
        data = np.sqrt(sigma2 / 2) * (
            rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        )
        scm = sample_covariance(data)
        assert abs(np.trace(scm).real / p - sigma2) / sigma2 < 0.05

    def test_exactly_hermitian_array_and_nonfinite_left_to_eigh(self):
        rng = substream(4, 0)
        data = rng.standard_normal((6, 30)) + 1j * rng.standard_normal((6, 30))
        scm = sample_covariance(data)
        assert isinstance(scm, np.ndarray) and scm.shape == (6, 6)
        np.testing.assert_array_equal(scm, scm.conj().T)
        data[2, 7] = np.nan
        with pytest.raises(ValueError, match="invalid matrix"), np.errstate(invalid="ignore"):
            eigh(sample_covariance(data))

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no training samples"):
            sample_covariance(np.empty((4, 0)))

    def test_mp_support_containment(self):
        # all eigenvalues inside the 20%-slackened MP support in >= 99% of trials
        p, sigma2 = 50, 1.7
        n = 20 * p
        law = law_of(1, 20)
        lo = sigma2 * law.support_lo * 0.8
        hi = sigma2 * law.support_hi * 1.2
        good = 0
        trials = 100
        for t in range(trials):
            rng = substream(3, t)
            data = np.sqrt(sigma2 / 2) * (
                rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
            )
            lam = np.linalg.eigvalsh(sample_covariance(data))
            good += bool(lam.min() >= lo and lam.max() <= hi)
        assert good >= 99


class TestEigh:
    def test_identity(self):
        dec = eigh(np.eye(4))
        np.testing.assert_allclose(dec.eigenvalues, np.ones(4))
        v = dec.eigenvectors
        np.testing.assert_allclose(v @ v.conj().T, np.eye(4), atol=1e-12)

    def test_diagonal_sorted_descending(self):
        dec = eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 2.0, 1.0])

    def test_nonfinite_rejected(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="invalid matrix"):
            eigh(m)

    def test_non_hermitian_rejected(self):
        m = np.arange(9.0).reshape(3, 3)
        with pytest.raises(ValueError, match="invalid matrix"):
            eigh(m)

    @pytest.mark.parametrize("p,count", [(8, 60), (64, 30), (256, 10)])
    def test_random_hermitian_contract(self, p, count):
        for t in range(count):
            rng = substream(4, p, t)
            z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
            m = (z + z.conj().T) / 2
            dec = eigh(m)
            v = dec.eigenvectors
            assert np.abs(v.conj().T @ v - np.eye(p)).max() < 1e-10
            resid = np.abs(dec.matrix() - m).max()
            assert resid < 1e-8 * max(np.abs(m).max(), 1.0)
            assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_reconstruction_p50(self):
        rng = substream(5, 0)
        z = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        m = (z + z.conj().T) / 2
        dec = eigh(m)
        assert np.abs(dec.matrix() - m).max() < 1e-8 * np.abs(m).max()
