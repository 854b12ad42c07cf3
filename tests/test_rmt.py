import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, linalg, optimize

from cluttercov import (
    AspectRatio,
    MPLaw,
    RegimeWarning,
    eigh,
    mp_median,
    sample_covariance,
)
from cluttercov import rmt
from cluttercov.rmt import _mp_cdf_of_gamma
from cluttercov.rng import substream
from oracles import mp_pdf


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
        assert abs(_mp_cdf_of_gamma(med, law.gamma) - 0.5) < 1e-10

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


# (p, n) with p / n the oracle gammas 1e-3, 0.2193, 0.5, 0.9 and 1
ORACLE_RATIOS = [(1, 1000), (2193, 10000), (1, 2), (9, 10), (1, 1)]


def oracle_law(p, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)  # gamma = 1
        return law_of(p, n)


def quad_cdf(x, law):
    """MP CDF by adaptive quadrature of the density, independent of the closed form.

    The integral is split at the midpoint of [a, x], so that each piece has
    at most one square-root edge singularity (two on one piece cost quad
    about 3e-10 at gamma = 1).
    """
    a, b = law.support_lo, law.support_hi
    if x <= a:
        return 0.0
    x = min(x, b)
    mid = 0.5 * (a + x)
    return sum(
        integrate.quad(lambda t: mp_pdf(t, law), lo, hi, epsabs=1e-14, epsrel=1e-14, limit=200)[0]
        for lo, hi in ((a, mid), (mid, x))
    )


class TestMpOracles:
    """The closed-form CDF and the Newton median against quadrature oracles."""

    @pytest.mark.parametrize("p,n", ORACLE_RATIOS)
    def test_cdf_matches_quadrature(self, p, n):
        law = oracle_law(p, n)
        a, b = law.support_lo, law.support_hi
        fractions = [1e-9, 1e-6, 1e-3, 0.01, *np.linspace(0.05, 0.95, 19), 0.99, 1 - 1e-6]
        xs = [a - 0.1, a, *(a + f * (b - a) for f in fractions), b, b + 0.1]
        for x in xs:
            assert abs(_mp_cdf_of_gamma(x, law.gamma) - quad_cdf(x, law)) < 1e-11, x

    @pytest.mark.parametrize("p,n", ORACLE_RATIOS)
    def test_median_matches_root_of_quadrature(self, p, n):
        law = oracle_law(p, n)
        ref = optimize.brentq(
            lambda x: quad_cdf(x, law) - 0.5, law.support_lo, law.support_hi,
            xtol=1e-15, rtol=1e-15,
        )
        assert abs(mp_median(law) - ref) <= 1e-12 * ref


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

    # p = 150 spans three blocks of the triangle mirror, p = 24 one
    @pytest.mark.parametrize("p", [24, 150])
    @pytest.mark.parametrize(
        "kind", ["complex", "real", "one-snapshot", "training-view", "fortran", "fortran-real"]
    )
    def test_matches_dense_product_and_is_exactly_hermitian(self, kind, p):
        rng = substream(6, p)
        data = rng.standard_normal((p, 2 * p + 1))
        if not kind.endswith("real"):
            data = data + 1j * rng.standard_normal((p, 2 * p + 1))
        if kind.startswith("fortran"):
            # a column-major block is the rank-n update's own operand: bitwise
            # the result of the wrapper's column-major copy of a row-major one
            c_order = sample_covariance(data)
            data = np.asfortranarray(data)
            assert sample_covariance(data).tobytes(order="C") == c_order.tobytes(order="C")
        if kind == "one-snapshot":
            data = data[:, 0]
        elif kind == "training-view":
            data = data[:, :-1]  # what ``detect`` passes: all but the test column
            assert not data.flags.c_contiguous
        y = data.reshape(p, -1)
        ref = y @ y.conj().T / y.shape[1]
        if kind == "one-snapshot":
            with pytest.warns(RegimeWarning):
                scm = sample_covariance(data)
        else:
            scm = sample_covariance(data)
        assert scm.dtype == complex  # real snapshots are read as complex
        assert np.abs(scm - ref).max() <= 1e-13 * np.abs(ref).max()
        np.testing.assert_array_equal(scm, scm.conj().T)
        np.testing.assert_array_equal(np.diagonal(scm).imag, 0.0)

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


def reconstruct(dec):
    """sum_i lambda_i v_i v_i^H over the full basis ``leading(p)``."""
    v = dec.leading(dec.p)
    return (v * dec.eigenvalues) @ v.conj().T


class TestEigh:
    def test_identity(self):
        dec = eigh(np.eye(4))
        np.testing.assert_allclose(dec.eigenvalues, np.ones(4))
        v = dec.leading(4)
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
            v = dec.leading(p)
            assert np.abs(v.conj().T @ v - np.eye(p)).max() < 1e-10
            resid = np.abs(reconstruct(dec) - m).max()
            assert resid < 1e-8 * max(np.abs(m).max(), 1.0)
            assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_reconstruction_p50(self):
        rng = substream(5, 0)
        z = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        m = (z + z.conj().T) / 2
        dec = eigh(m)
        assert np.abs(reconstruct(dec) - m).max() < 1e-8 * np.abs(m).max()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_real_symmetric_input_is_reduced_as_complex(self, order):
        z = substream(5, 1).standard_normal((64, 192))
        m = np.asarray(z @ z.T / 192, order=order)
        before = m.copy(order="A")
        dec = eigh(m, overwrite_a=True)  # a real array is never the reduction's own
        assert m.tobytes(order="A") == before.tobytes(order="A")
        ref = np.linalg.eigvalsh(m)[::-1]
        assert np.abs(dec.eigenvalues - ref).max() <= 1e-12 * np.abs(ref).max()
        v = dec.leading(3)
        assert v.dtype == complex
        assert np.abs(v.conj().T @ v - np.eye(3)).max() <= 1e-10
        assert np.abs(m @ v - v * dec.eigenvalues[:3]).max() <= 1e-10 * np.abs(m).max()


B = rmt._MIRROR_BLOCK
P_PARTIAL = 2 * B + 5  # two full blocks of eigh's row pass and a partial one


def exactly_hermitian(p, seed, real=False):
    rng = substream(9, p, seed)
    z = rng.standard_normal((p, p))
    if not real:
        z = z + 1j * rng.standard_normal((p, p))
    return (z + z.conj().T) / 2  # entry (j, i) is the exact conjugate of (i, j)


def spy_on_reduction(monkeypatch):
    """Copies of the symmetrized matrices ``eigh`` hands to the tridiagonal reduction."""
    seen = []
    zhetrd = rmt.lapack.zhetrd

    def spy(a, *args, **kwargs):
        seen.append(a.copy(order="K"))  # in the layout the reduction reads
        return zhetrd(a, *args, **kwargs)

    monkeypatch.setattr(rmt.lapack, "zhetrd", spy)
    return seen


class TestBlockedEigh:
    """The row-block symmetrize-and-check pass of ``eigh``."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("p", [1, B - 1, B, B + 1, P_PARTIAL])
    def test_packed_matrix_is_bitwise_the_symmetrized_input(self, monkeypatch, p, real):
        # a general product, so the input carries a rounding-level skew; a
        # real input is reduced as complex
        rng = substream(10, p, int(real))
        z = rng.standard_normal((p, 2 * p))
        if not real:
            z = z + 1j * rng.standard_normal((p, 2 * p))
        m = z @ z.conj().T / (2 * p)
        seen = spy_on_reduction(monkeypatch)
        dec = eigh(m)
        want = ((m + m.conj().T) / 2).astype(complex)
        assert len(seen) == 1 and seen[0].dtype == want.dtype and seen[0].flags.f_contiguous
        # the reduction reads the lower triangle only, so that is all that is formed
        assert np.tril(seen[0]).tobytes() == np.tril(want).tobytes()
        np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(want)[::-1],
                                   atol=1e-12 * np.abs(want).max())

    def test_fortran_ordered_and_integer_input(self):
        m = exactly_hermitian(P_PARTIAL, 0)
        assert eigh(np.asfortranarray(m)).eigenvalues.tobytes() == eigh(m).eigenvalues.tobytes()
        ints = np.arange(9).reshape(3, 3)
        ints = ints + ints.T
        np.testing.assert_allclose(eigh(ints).eigenvalues, np.linalg.eigvalsh(ints)[::-1],
                                   atol=1e-12)

    @pytest.mark.parametrize(
        "real,value",
        [(False, np.nan), (False, np.inf), (False, -np.inf), (False, complex(0.0, np.nan)),
         (True, np.nan), (True, np.inf), (True, -np.inf)],
        ids=["complex-nan", "complex-inf", "complex-neg-inf", "complex-imag-nan",
             "real-nan", "real-inf", "real-neg-inf"],
    )
    @pytest.mark.parametrize(
        "where",
        [(3, P_PARTIAL - 2), (P_PARTIAL - 2, 3), (P_PARTIAL - 1, P_PARTIAL - 1), (2 * B + 1, B)],
        ids=["upper", "lower", "last-block-diagonal", "last-block-lower"],
    )
    def test_nonfinite_entry_rejected_wherever_it_sits(self, where, real, value):
        # an entry below the first block also enters that block's mirror, where
        # a maximum would drop a NaN: the finiteness check must see every row
        m = exactly_hermitian(P_PARTIAL, 1, real=real)
        m[where] = value
        with pytest.raises(ValueError, match="invalid matrix"):
            eigh(m)

    @pytest.mark.parametrize("gain", [1e-3, 1.0, 1e3], ids=["scale-floor", "unit", "large"])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_skew_threshold_is_relative_to_max_abs_or_one(self, gain, real):
        m = exactly_hermitian(P_PARTIAL, 2, real=real) * gain
        scale = max(np.abs(m).max(), 1.0)
        i, j = P_PARTIAL - 1, 1  # an off-diagonal entry of the partial last block
        below, above = m.copy(), m.copy()
        below[i, j] += 0.99e-10 * scale
        above[i, j] += 1.01e-10 * scale
        assert np.abs(below - below.conj().T).max() < 1e-10 * scale
        assert np.abs(above - above.conj().T).max() > 1e-10 * scale
        eigh(below)
        with pytest.raises(ValueError, match="invalid matrix"):
            eigh(above)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 4), (4,)])
    def test_empty_or_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="invalid matrix"):
            eigh(np.zeros(shape))

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_working_set_is_one_copy_plus_a_few_tiles(self, peak_bytes, real):
        # the pass's two scratch tiles and the ufuncs' buffers for the
        # strided tile operands, not a B x p block of rows (8 tiles at this p);
        # the copy, and so the tiles, are complex for a real input too
        p = 8 * B + 5
        m = exactly_hermitian(p, 3, real=real)
        budget = (p * p + 6 * B * B) * np.dtype(complex).itemsize
        assert peak_bytes(eigh, m) <= budget


    @pytest.mark.parametrize("in_place", [False, True], ids=["copy", "in-place"])
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("p", [1, B + 1, P_PARTIAL])
    def test_strictly_upper_triangle_is_never_read(self, monkeypatch, p, real, in_place):
        # NaN in the strictly upper triangle the reduction is handed moves no
        # output of the decomposition: LAPACK's uplo = L contract, which lets
        # ``symmetrized`` form the lower triangle only
        a = skewed(p, 2, real)
        want = eigh(a)
        zhetrd = rmt.lapack.zhetrd

        def poison(x, *args, **kwargs):
            x[np.triu_indices(x.shape[0], 1)] = np.nan
            return zhetrd(x, *args, **kwargs)

        monkeypatch.setattr(rmt.lapack, "zhetrd", poison)
        got = eigh(np.asfortranarray(a), overwrite_a=True) if in_place else eigh(a)
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        k = min(3, p)
        assert got.leading(k).tobytes() == want.leading(k).tobytes()
        x = substream(13, p, 2).standard_normal((p, 2)) + 0j
        assert got.to_eigenbasis(x).tobytes() == want.to_eigenbasis(x).tobytes()
        assert got.from_eigenbasis(x).tobytes() == want.from_eigenbasis(x).tobytes()


class TestSymmetrized:
    """The tiled symmetrize-and-check pass on its own."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("p", [1, B + 1, 3 * B + 7])
    def test_bitwise_the_expression(self, p, order, real):
        # a general product carries a rounding-level skew; a Fortran-ordered
        # input is what ``sample_covariance`` returns, and a real one becomes complex
        rng = substream(11, p, int(real))
        z = rng.standard_normal((p, 2 * p))
        if not real:
            z = z + 1j * rng.standard_normal((p, 2 * p))
        m = np.asarray(z @ z.conj().T / (2 * p), order=order)
        ours = rmt.symmetrized(m)
        want = ((m + m.conj().T) / 2).astype(complex)
        assert ours.flags.f_contiguous and ours.dtype == want.dtype
        assert np.tril(ours).tobytes() == np.tril(want).tobytes()

    def test_integer_input_becomes_complex128(self):
        m = np.arange(9).reshape(3, 3)
        m = m + m.T
        ours = rmt.symmetrized(m)
        want = np.asfortranarray((m + m.T) / 2.0, dtype=complex)
        assert ours.dtype == np.complex128 and ours.tobytes(order="A") == want.tobytes(order="A")

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan), "skew"])
    @pytest.mark.parametrize("where", [(B + 3, 2 * B + 5), (2 * B + 5, B + 3)],
                             ids=["upper-tile", "lower-tile"])
    def test_off_diagonal_tile_rejected(self, where, value):
        # tile (1, 2) of 3 x 3 tiles, or its mirror; the skew is 1e-8 of max |A|
        m = exactly_hermitian(3 * B + 7, 4)
        m[where] += 1e-8 * np.abs(m).max() if value == "skew" else value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no arithmetic warning on the way
            with pytest.raises(ValueError, match="invalid matrix"):
                rmt.symmetrized(m)


def skewed(p, seed, real=False):
    """A general product, so the matrix carries a rounding-level skew inside the tolerance."""
    rng = substream(13, p, seed)
    z = rng.standard_normal((p, 2 * p))
    if not real:
        z = z + 1j * rng.standard_normal((p, 2 * p))
    return z @ z.conj().T / (2 * p)


def read_only(a):
    a = np.asfortranarray(a)
    a.flags.writeable = False
    return a


class TestOverwrite:
    """``eigh(a, overwrite_a=True)``: a complex128 column-major array is reduced in place."""

    # a real array, of either layout, is not the reduction's own: it is copied
    @pytest.mark.parametrize("real,order", [(False, "F"), (True, "F"), (True, "C")],
                             ids=["complex", "real", "real-row-major"])
    @pytest.mark.parametrize("p", [1, B + 1, P_PARTIAL])
    @pytest.mark.parametrize("skew", ["rounding", "near-tolerance"])
    def test_bitwise_the_copying_decomposition(self, monkeypatch, p, real, order, skew):
        a = skewed(p, 0, real)
        if skew == "near-tolerance" and p > 1:
            a[p - 1, 1] += 0.99e-10 * max(np.abs(a).max(), 1.0)
        want = eigh(a)
        owned = a.copy(order=order)
        before = owned.tobytes(order="A")
        reduced = []
        zhetrd = rmt.lapack.zhetrd

        def spy(x, *args, **kwargs):
            reduced.append(np.shares_memory(x, owned))
            return zhetrd(x, *args, **kwargs)

        monkeypatch.setattr(rmt.lapack, "zhetrd", spy)
        got = eigh(owned, overwrite_a=True)
        assert reduced == [not real]  # the caller's complex array, not a copy
        if real:
            assert owned.tobytes(order="A") == before
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        k = min(3, p)
        assert got.leading(k).tobytes() == want.leading(k).tobytes()
        x = substream(13, p, 1).standard_normal((p, 2)) + 0j
        assert got.to_eigenbasis(x).tobytes() == want.to_eigenbasis(x).tobytes()

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, "skew"])
    @pytest.mark.parametrize("where", [(3, P_PARTIAL - 2), (P_PARTIAL - 1, 1)], ids=["upper", "lower"])
    def test_invalid_input_rejected_as_by_the_copy(self, where, bad, real):
        a = exactly_hermitian(P_PARTIAL, 5, real=real)
        a[where] += 1.01e-10 * max(np.abs(a).max(), 1.0) if bad == "skew" else bad
        with pytest.raises(ValueError, match="invalid matrix"):
            eigh(a)
        for order in ("F", "C") if real else ("F",):
            with pytest.raises(ValueError, match="invalid matrix"):
                eigh(a.copy(order=order), overwrite_a=True)

    @pytest.mark.parametrize(
        "make",
        [np.ascontiguousarray,
         lambda a: np.asfortranarray(a.real.round() * 4).astype(np.int64, order="F"),
         lambda a: np.asfortranarray(a).astype(np.complex64, order="F"),
         read_only],
        ids=["c-ordered", "integer", "complex64", "read-only"],
    )
    def test_other_layouts_and_dtypes_are_copied(self, make):
        a = make(exactly_hermitian(P_PARTIAL, 6))
        before = a.tobytes(order="A")
        got = eigh(a, overwrite_a=True)
        assert a.tobytes(order="A") == before
        assert got.eigenvalues.tobytes() == eigh(a).eigenvalues.tobytes()

    def test_in_place_working_set_is_under_one_p_by_p_array(self, peak_bytes):
        # a p = 512 SCM of column-major snapshots, column-major as
        # ``sample_covariance`` returns it for them
        p = 512
        rng = substream(14, 0)
        data = np.asfortranarray(rng.standard_normal((p, 2 * p)) + 1j * rng.standard_normal((p, 2 * p)))
        scm = sample_covariance(data)
        assert scm.flags.f_contiguous and scm.dtype == complex
        square = p * p * scm.itemsize
        assert peak_bytes(eigh, scm) >= square
        assert peak_bytes(eigh, scm, overwrite_a=True) < square


def hermitian(p, seed, real=False, spikes=(40.0, 20.0, 10.0)):
    """A sample-covariance-like Hermitian matrix with a few separated top eigenvalues."""
    rng = substream(8, p, seed)
    z = rng.standard_normal((p, 3 * p))
    if not real:
        z = z + 1j * rng.standard_normal((p, 3 * p))
    z[: len(spikes)] *= np.sqrt(np.asarray(spikes[:p]))[:, None]
    return z @ z.conj().T / (3 * p)


class TestLeadingEigenvectors:
    """The tridiagonal path of ``eigh`` against ``np.linalg.eigh`` as the oracle."""

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 8, 64, 200])
    def test_eigenvalues_match_eigvalsh(self, p, real):
        m = hermitian(p, 0, real)
        ref = np.linalg.eigvalsh(m)[::-1]
        lam = eigh(m).eigenvalues
        assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 8, 64, 200])
    def test_leading_blocks(self, p, real):
        m = hermitian(p, 1, real)
        dec = eigh(m)
        ref_lam, ref_vec = np.linalg.eigh(m)
        ref_lam, ref_vec = ref_lam[::-1], ref_vec[:, ::-1]
        scale = np.abs(m).max()
        for k in sorted({0, 1, p - 1, p}):
            v = dec.leading(k)
            assert v.shape == (p, k)
            assert v.dtype == complex  # a real input too
            if k == 0:
                continue
            assert np.abs(v.conj().T @ v - np.eye(k)).max() <= 1e-10
            assert np.abs(m @ v - v * dec.eigenvalues[:k]).max() <= 1e-10 * scale
            if k < p:
                assert ref_lam[k - 1] - ref_lam[k] > 1e-6 * scale  # an eigengap
                top = ref_vec[:, :k]
                proj = v @ v.conj().T - top @ top.conj().T
                assert np.abs(proj).max() <= 1e-9

    def test_identity_all_ties(self):
        dec = eigh(np.eye(6))
        np.testing.assert_array_equal(dec.eigenvalues, np.ones(6))
        for k in (1, 3, 6):
            v = dec.leading(k)
            assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-12

    def test_repeated_leading_solves_once_and_returns_caller_owned_blocks(self, monkeypatch):
        solves = []
        stemr = rmt.lapack.dstemr
        monkeypatch.setattr(rmt.lapack, "dstemr", lambda *a, **k: solves.append(1) or stemr(*a, **k))
        dec = eigh(hermitian(40, 5))
        first = dec.leading(6)
        again = dec.leading(6)
        fewer = dec.leading(3)
        assert len(solves) == 1
        np.testing.assert_array_equal(again, first)
        np.testing.assert_array_equal(fewer, first[:, :3])
        for a, b in ((first, again), (first, fewer), (again, fewer)):
            assert not np.shares_memory(a, b)
        again[:] = 0.0  # a caller writing its block leaves later blocks intact
        fewer[:] = 0.0
        np.testing.assert_array_equal(dec.leading(6), first)
        more = dec.leading(8)  # a larger block is solved afresh
        assert len(solves) == 2
        assert np.abs(np.abs(np.sum(more[:, :6].conj() * first, axis=0)) - 1.0).max() < 1e-10

    def test_out_of_range_k(self):
        dec = eigh(hermitian(8, 2))
        for k in (-1, 9):
            with pytest.raises(ValueError):
                dec.leading(k)


LAPACK_SIZES = [1, 2, 40, 512]


class TestLapackPath:
    """``eigh`` and ``leading`` call ``dsterf`` and ``dstemr`` as ``scipy.linalg``'s wrappers do."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("p", LAPACK_SIZES)
    def test_eigenvalues_are_scipys_sterf(self, p, real):
        dec = eigh(hermitian(p, 2, real))
        _, d, e, _ = dec._reduction
        ref = linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf")[::-1]
        np.testing.assert_array_equal(dec.eigenvalues, ref)

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("p", LAPACK_SIZES)
    def test_leading_is_scipys_stemr_then_the_reflectors(self, p, real):
        dec = eigh(hermitian(p, 3, real))
        _, d, e, _ = dec._reduction
        for k in sorted({1, min(3, p), p}):  # each block larger than the last, so solved afresh
            z = linalg.eigh_tridiagonal(
                d, e, select="i", select_range=(p - k, p - 1), lapack_driver="stemr"
            )[1]
            ref = np.array(z[:, ::-1], dtype=complex, order="C")
            dec._reflect(ref, "N")
            np.testing.assert_array_equal(dec.leading(k), ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("p,where", [(1, "d"), (2, "d"), (2, "e"), (40, "d"), (40, "e")])
    def test_non_finite_tridiagonal_is_rejected(self, p, where, bad):
        d, e = np.linspace(1.0, 2.0, p), np.full(p - 1, 0.5)
        (d if where == "d" else e)[-1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            rmt._tridiagonal_eigenvalues(d, e)

    def test_reduction_that_overflows_is_rejected(self):
        # finite and symmetric, so it passes the input checks; the Householder
        # reduction overflows to a non-finite tridiagonal
        with pytest.raises(ValueError, match="infs or NaNs"):
            eigh(np.full((3, 3), 8e307))

    def test_info_codes(self):
        rmt._check_info(0, "dsterf")
        with pytest.raises(ValueError, match="argument 3"):
            rmt._check_info(-3, "dsterf")
        with pytest.raises(np.linalg.LinAlgError):
            rmt._check_info(2, "dstemr")

    @pytest.mark.parametrize("info,error", [(-2, ValueError), (1, np.linalg.LinAlgError)],
                             ids=["illegal-argument", "failed"])
    @pytest.mark.parametrize("routine", ["zhetrd", "zunmqr", "dsbevd"])
    def test_every_lapack_call_reports_info_alike(self, monkeypatch, routine, info, error):
        # the reduction, the reflectors of leading and the basis of the rotations
        real = getattr(rmt.lapack, routine)
        monkeypatch.setattr(rmt.lapack, routine, lambda *a, **k: (*real(*a, **k)[:-1], info))
        with pytest.raises(error, match=routine[1:]) as caught:  # the routine is named
            dec = eigh(hermitian(8, 5))
            dec.leading(1)
            dec.to_eigenbasis(np.ones(8))
        assert type(caught.value) is error  # a LinAlgError is a ValueError too


class TestEigenbasisRotations:
    """``to_eigenbasis`` and ``from_eigenbasis``: V^H x and V x from the stored reduction."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("p", [1, 2, 8, 64, 200])
    def test_frame_is_lapacks_basis(self, p, real):
        m = hermitian(p, 3, real)
        dec = eigh(m)
        ref = np.linalg.eigh(m)[1][:, ::-1]
        basis = dec.from_eigenbasis(np.eye(p))
        assert basis.shape == (p, p) and basis.dtype == complex
        # numpy and scipy may link different LAPACK builds; the vectors of
        # this spectrum's closest eigenvalues then differ by eps over the gap
        assert np.abs(basis - ref).max() <= 1e-12
        np.testing.assert_allclose(dec.to_eigenbasis(np.eye(p)), ref.conj().T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_shapes_dtypes_and_round_trip(self, real):
        p = 24
        dec = eigh(hermitian(p, 4, real))
        x = substream(11, 0).standard_normal((p, 3)) + 1j * substream(11, 1).standard_normal((p, 3))
        for block in (x, x.real, np.asfortranarray(x), x[:, :0]):
            there = dec.to_eigenbasis(block)
            back = dec.from_eigenbasis(there)
            assert there.shape == back.shape == block.shape and there.dtype == back.dtype == complex
            np.testing.assert_allclose(back, block, rtol=0, atol=1e-13)
        vec = dec.to_eigenbasis(x[:, 1])
        assert vec.shape == (p,)
        # one column and a block take different BLAS kernels: equal to roundoff
        np.testing.assert_allclose(vec, dec.to_eigenbasis(x)[:, 1], rtol=0, atol=1e-14)
        back = dec.from_eigenbasis(vec)
        assert back.shape == (p,)
        np.testing.assert_allclose(back, x[:, 1], rtol=0, atol=1e-13)

    def test_rotations_leave_their_input_and_leading_intact(self):
        dec = eigh(hermitian(32, 6))
        first = dec.leading(4)
        x = substream(12, 0).standard_normal((32, 2)) + 0j
        before = x.copy()
        dec.to_eigenbasis(x)
        dec.from_eigenbasis(x)
        assert x.tobytes() == before.tobytes()
        assert dec.leading(4).tobytes() == first.tobytes()

    def test_z_is_solved_once(self, monkeypatch):
        solves = []
        solver = rmt.lapack.dsbevd
        monkeypatch.setattr(rmt.lapack, "dsbevd", lambda *a, **k: solves.append(1) or solver(*a, **k))
        dec = eigh(hermitian(40, 7))
        dec.to_eigenbasis(np.ones(40))
        dec.from_eigenbasis(np.ones((40, 2)))
        assert len(solves) == 1

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_z_is_the_divide_and_conquer_basis_of_the_tridiagonal(self, real):
        # dsbevd on T runs dstedc on d and e as they are: dstevd's Z, entry for
        # entry (a zero may differ in sign)
        stevd = getattr(rmt.lapack, "dstevd", None)
        if stevd is None:
            pytest.skip("this scipy does not wrap dstevd")
        dec = eigh(hermitian(150, 8, real))
        _, d, e, _ = dec._reduction
        _, ref, info = stevd(d, e)
        assert info == 0
        np.testing.assert_array_equal(dec._z(), ref)
