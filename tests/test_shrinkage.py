import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluttercov import (
    AspectRatio,
    CltParams,
    ModelOrderWarning,
    SpikedCovariance,
    cosine2,
    detect_spikes,
    eigh,
    estimate_noise,
    f_map,
    g_map,
    mp_median,
    MPLaw,
    sample_covariance,
    shrink_spectrum,
    stein_shrinker,
)
from cluttercov.rcml import rcml_estimate
from cluttercov.rng import substream
from oracles import dense_estimate, eta_prime_fd, shrink_whitened


def spiked_snapshots(model: SpikedCovariance, n: int, rng) -> np.ndarray:
    """Snapshots with a diagonal spiked covariance (basis-free for eigenvalues)."""
    root = np.sqrt(model.spectrum())
    w = (rng.standard_normal((model.p, n)) + 1j * rng.standard_normal((model.p, n))) / np.sqrt(2)
    return root[:, None] * w


class TestGMap:
    def test_super_critical_value(self):
        assert g_map(2.0, 0.25) == pytest.approx(2.5, abs=1e-15)

    def test_boundary_continuity(self):
        g = 0.25
        edge = 1 + np.sqrt(g)
        assert g_map(edge, g) == pytest.approx(edge**2, abs=1e-12)

    def test_flat_branch(self):
        assert g_map(1.1, 0.25) == pytest.approx(2.25, abs=1e-15)

    def test_below_floor_errors(self):
        with pytest.raises(ValueError, match="below noise floor"):
            g_map(0.9, 0.25)


class TestFMap:
    def test_inverts_g(self):
        assert f_map(2.5, 0.25) == pytest.approx(2.0, abs=1e-14)
        assert f_map(g_map(5.0, 0.5), 0.5) == pytest.approx(5.0, abs=1e-12)

    def test_edge_limit_after_clamp(self):
        g = 0.25
        edge2 = (1 + np.sqrt(g)) ** 2
        val = f_map(edge2 + 1e-13, g)
        assert val == pytest.approx(1 + np.sqrt(g), abs=1e-5)

    def test_inside_bulk_errors(self):
        g = 0.25
        with pytest.raises(ValueError, match="inside bulk"):
            f_map((1 + np.sqrt(g)) ** 2, g)

    @pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5])
    def test_roundtrip_grid(self, gamma):
        # 1000 points strictly inside (edge + 1e-6, 50]; at the open left
        # endpoint itself the inverse map's derivative blows up and double
        # precision cannot hold 1e-12
        edge = 1 + np.sqrt(gamma)
        grid = np.linspace(edge + 1e-6, 50.0, 1001)[1:]
        for ell in grid:
            assert abs(f_map(g_map(ell, gamma), gamma) - ell) < 1e-12


class TestCosine2:
    def test_reference_value(self):
        assert cosine2(2.0, 0.25) == pytest.approx(0.6, abs=1e-15)

    def test_subthreshold_zero(self):
        assert cosine2(1.0, 0.25) == 0.0
        assert cosine2(1.5, 0.25) == 0.0

    def test_limit_to_one(self):
        assert cosine2(1e9, 0.25) == pytest.approx(1.0, abs=1e-8)

    @given(st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_range(self, ell):
        assert 0.0 <= cosine2(ell, 0.3) <= 1.0


class TestSteinShrinker:
    def test_reference_value(self):
        assert stein_shrinker(2.0, 0.25) == pytest.approx(10 / 7, abs=1e-15)

    def test_no_penalty_at_gamma_zero(self):
        assert stein_shrinker(3.0, 1e-12) == pytest.approx(3.0, rel=1e-6)

    def test_range_between_one_and_ell(self):
        for ell in np.linspace(1.6, 40.0, 50):
            val = stein_shrinker(ell, 0.25)
            assert 1.0 < val < ell

    def test_inside_bulk_errors(self):
        with pytest.raises(ValueError, match="inside bulk"):
            stein_shrinker(1.5, 0.25)

    @given(st.floats(min_value=2.1, max_value=200.0))
    @settings(max_examples=100, deadline=None)
    def test_whitened_shrinker_bounds(self, lam):
        # never expands past the sample eigenvalue nor below the noise floor
        val = shrink_whitened(lam, 0.25)
        assert 1.0 <= val <= lam


class TestEstimateNoise:
    def test_ratio_definition(self):
        # all eigenvalues equal to 2 * mu_med: estimate is exactly 2
        ratio = AspectRatio(6, 24)
        mu = mp_median(MPLaw(ratio))
        lam = np.full(6, 2 * mu)
        dec = eigh(np.diag(lam).astype(complex))
        assert estimate_noise(dec, ratio) == pytest.approx(2.0, rel=1e-14)

    def test_insufficient_samples(self):
        rng = substream(0, 0)
        data = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        with pytest.warns(Warning):
            dec = eigh(sample_covariance(data))
        with pytest.raises(ValueError):
            estimate_noise(dec, AspectRatio(8, 4))

    def test_pure_noise_consistency(self):
        # smaller-scale analogue of the acceptance run: sigma2 = 3
        p, n, sigma2, trials = 200, 1000, 3.0, 40
        ratio = AspectRatio(p, n)
        model = SpikedCovariance.diagonal(p, sigma2, np.array([]))
        vals = []
        for t in range(trials):
            data = spiked_snapshots(model, n, substream(11, t))
            dec = eigh(sample_covariance(data))
            vals.append(estimate_noise(dec, ratio))
        assert abs(np.mean(vals) - sigma2) / sigma2 < 0.03

    def test_spikes_do_not_move_median(self):
        p, n, sigma2, trials = 200, 1000, 3.0, 40
        ratio = AspectRatio(p, n)
        model = SpikedCovariance.diagonal(p, sigma2, sigma2 * np.array([12.0, 8.0, 5.0]))
        vals = []
        for t in range(trials):
            data = spiked_snapshots(model, n, substream(12, t))
            dec = eigh(sample_covariance(data))
            vals.append(estimate_noise(dec, ratio))
        assert abs(np.mean(vals) - sigma2) / sigma2 < 0.03

    @pytest.mark.parametrize("p", [1, 2, 3, 64, 65])
    def test_median_is_bitwise_numpys(self, p):
        # the middle of the sorted eigenvalues, or the central pair's mean
        ratio = AspectRatio(p, 4 * p)
        rng = substream(13, p)
        data = rng.standard_normal((p, ratio.n)) + 1j * rng.standard_normal((p, ratio.n))
        dec = eigh(sample_covariance(data))
        expected = float(np.median(dec.eigenvalues)) / mp_median(MPLaw(ratio))
        assert estimate_noise(dec, ratio) == expected

    def test_invariant_exact_ratio(self):
        # sigma2_hat is exactly the median sample eigenvalue over the MP median,
        # the central pair averaged for even p
        ratio = AspectRatio(4, 16)
        lam = np.array([9.0, 5.0, 3.0, 0.5])
        dec = eigh(np.diag(lam).astype(complex))
        assert estimate_noise(dec, ratio) == 4.0 / mp_median(MPLaw(ratio))


class TestShrinkSpectrum:
    def _decomp(self, eigenvalues):
        return eigh(np.diag(np.asarray(eigenvalues, dtype=float)).astype(complex))

    def test_bulk_only_gives_scaled_identity(self):
        ratio = AspectRatio(6, 24)
        mu = mp_median(MPLaw(ratio))
        lam = np.full(6, mu)  # whitened spectrum all at the MP median
        est = shrink_spectrum(self._decomp(lam), ratio)
        assert est.r == 0
        np.testing.assert_allclose(dense_estimate(est), est.sigma2 * np.eye(6))

    def test_single_spike_reference_composition(self):
        # whitened eigenvalues [2.5, ..1..]: spike shrinks to eta(f(2.5)) = 10/7
        ratio = AspectRatio(5, 20)
        mu = mp_median(MPLaw(ratio))
        lam = np.array([2.5, 1.02, 1.01, 1.0, 0.99]) * mu
        lam = lam / np.median(lam) * mu  # keep the median pinned so sigma2_hat = 1
        est = shrink_spectrum(self._decomp(lam), ratio)
        s2 = est.sigma2
        whitened_top = lam[0] / s2
        expected = s2 * stein_shrinker(f_map(whitened_top, 0.25), 0.25)
        assert est.r == 1
        assert est.spikes[0] == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(np.diag(dense_estimate(est)).real, [est.spikes[0]] + [s2] * 4)

    def test_matches_asymptotic_prediction(self):
        # spikes {5, 3, 2.5}, gamma = 0.2: shrunk values approach eta(beta)
        p, n = 400, 2000
        ratio = AspectRatio(p, n)
        model = SpikedCovariance.diagonal(p, 1.0, np.array([5.0, 3.0, 2.5]))
        trials = 12
        tops = np.zeros(3)
        for t in range(trials):
            data = spiked_snapshots(model, n, substream(13, t))
            est = shrink_spectrum(eigh(sample_covariance(data)), ratio)
            tops += est.spikes[:3]
        tops /= trials
        for i, ell in enumerate(model.spikes):
            target = CltParams(ell, ratio.gamma).eta_of_beta
            assert abs(tops[i] - target) / target < 0.05

    def test_error_decreases_with_dimension(self):
        model_spikes = np.array([5.0, 3.0, 2.5])
        errs = []
        for p in (100, 200, 400):
            n = 5 * p
            ratio = AspectRatio(p, n)
            model = SpikedCovariance.diagonal(p, 1.0, model_spikes)
            targets = np.array(
                [CltParams(ell, ratio.gamma).eta_of_beta for ell in model_spikes]
            )
            err = 0.0
            trials = 16
            for t in range(trials):
                data = spiked_snapshots(model, n, substream(14, p, t))
                est = shrink_spectrum(eigh(sample_covariance(data)), ratio)
                err += np.abs(est.spikes[:3] - targets).max()
            errs.append(err / trials)
        assert errs[0] > errs[1] > errs[2]

    def test_scale_equivariance(self):
        ratio = AspectRatio(32, 128)
        rng = substream(15, 0)
        data = rng.standard_normal((32, 128)) + 1j * rng.standard_normal((32, 128))
        data[0] *= 4.0
        dec = eigh(sample_covariance(data))
        base = shrink_spectrum(dec, ratio)
        for c in (0.25, 3.0, 1e6):
            scaled = eigh(sample_covariance(np.sqrt(c) * data))
            est = shrink_spectrum(scaled, ratio)
            assert est.r == base.r
            np.testing.assert_allclose(est.spikes, c * base.spikes, rtol=1e-9)
            assert est.sigma2 == pytest.approx(c * base.sigma2, rel=1e-9)

    def test_order_preserving(self):
        ratio = AspectRatio(16, 64)
        rng = substream(16, 0)
        data = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
        data[:3] *= np.array([5.0, 3.0, 2.0])[:, None]
        est = shrink_spectrum(eigh(sample_covariance(data)), ratio)
        spectrum = np.append(est.spikes, est.sigma2)  # spikes, then the floor
        assert np.all(np.diff(spectrum) <= 1e-15)

    def test_detect_spikes_is_the_edge_rule(self):
        # whitened eigenvalues strictly above (1 + sqrt(1/4))^2 = 2.25; 2.2 is not
        ratio = AspectRatio(10, 40)
        lam = np.array([40.0, 30.0, 20.0, 1.0, 0.95, 0.9, 0.88, 0.86, 0.84, 0.82])
        s2 = np.median(lam) / mp_median(MPLaw(ratio))
        lam[3] = 2.2 * s2  # the median is unchanged
        got_s2, detected = detect_spikes(self._decomp(lam), ratio)
        assert got_s2 == s2
        np.testing.assert_array_equal(detected, lam[:3] / s2)

    def test_budget_warning(self):
        ratio = AspectRatio(10, 40)
        lam = np.array([40.0, 30.0, 20.0, 1.0, 0.95, 0.9, 0.88, 0.86, 0.84, 0.82])
        with pytest.warns(ModelOrderWarning):
            est = shrink_spectrum(self._decomp(lam), ratio)
        assert est.r == 3

    def test_vectors_are_the_leading_eigenvectors(self):
        ratio = AspectRatio(12, 48)
        rng = substream(17, 0)
        data = rng.standard_normal((12, 48)) + 1j * rng.standard_normal((12, 48))
        data[0] *= 4.0  # one spike, so the block is not empty
        scm = sample_covariance(data)
        dec = eigh(scm)
        est = shrink_spectrum(dec, ratio)
        r = est.r
        assert r >= 1
        clipped = rcml_estimate(dec, est.sigma2, r)
        assert clipped.r == r
        # each estimate owns its p x r block; neither keeps a p x p basis alive
        for e in (est, clipped):
            assert e.vectors.flags.owndata and e.vectors.shape == (12, r)
            np.testing.assert_array_equal(e.vectors, dec.leading(r))
        assert not np.shares_memory(est.vectors, clipped.vectors)
        # same span as the top-r eigenvectors of an independent solver
        lam, ref = np.linalg.eigh(scm)
        assert lam[-r] > lam[-r - 1]  # an eigengap, so the subspace is defined
        top = ref[:, -r:]
        np.testing.assert_allclose(top @ top.conj().T, est.vectors @ est.vectors.conj().T,
                                   atol=1e-12)


class TestCltParams:
    def test_reference_values(self):
        prm = CltParams(2.0, 0.25)
        assert prm.beta == pytest.approx(2.5, abs=1e-15)
        assert prm.alpha2 == pytest.approx(6.0, abs=1e-12)
        assert prm.eta_of_beta == pytest.approx(stein_shrinker(2.0, 0.25), abs=1e-15)

    def test_gamma_zero_limit(self):
        prm = CltParams(2.0, 1e-14)
        assert prm.beta == pytest.approx(2.0, rel=1e-12)
        assert prm.alpha2 == pytest.approx(8.0, rel=1e-10)

    def test_subcritical_errors(self):
        with pytest.raises(ValueError, match="sub-critical spike"):
            CltParams(1.4, 0.25)

    @pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5])
    def test_eta_prime_matches_finite_difference(self, gamma):
        for ell in np.linspace(1 + np.sqrt(gamma) + 0.2, 30.0, 25):
            analytic = CltParams(ell, gamma).eta_prime
            fd = eta_prime_fd(ell, gamma)
            assert abs(analytic - fd) / abs(fd) < 1e-6

    def test_alpha2_nonnegative_in_domain(self):
        for gamma in (0.1, 0.5, 0.9):
            for ell in np.linspace(1 + np.sqrt(gamma) + 1e-6, 50, 40):
                assert CltParams(ell, gamma).alpha2 >= 0


class TestDiagonalSpikedCovariance:
    def test_spectrum_layout(self):
        m = SpikedCovariance.diagonal(30, 2.0, np.array([10.0, 5.0]))
        np.testing.assert_allclose(m.spectrum(), [10, 5] + [2] * 28)

    def test_rejects_spikes_at_noise_floor(self):
        with pytest.raises(ValueError):
            SpikedCovariance.diagonal(6, 2.0, np.array([2.0]))

    def test_rejects_too_many_spikes(self):
        with pytest.raises(ValueError):
            SpikedCovariance.diagonal(3, 1.0, np.array([5.0, 4.0, 3.0]))

    def test_over_budget_model_builds_without_a_warning(self):
        # the scene's rank check belongs to synthesize_clutter_covariance alone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = SpikedCovariance.diagonal(10, 1.0, np.array([5.0, 4.0]))
        assert model.r == 2


def both_estimates(p, n, spikes, seed):
    """Shrinkage and clipping estimates from one spiked sample."""
    model = SpikedCovariance.diagonal(p, 1.0, np.asarray(spikes, dtype=float))
    dec = eigh(sample_covariance(spiked_snapshots(model, n, substream(18, seed))))
    ratio = AspectRatio(p, n)
    shrunk = shrink_spectrum(dec, ratio)
    clipped = rcml_estimate(dec, shrunk.sigma2, shrunk.r)
    return {"shrinkage": shrunk, "rcml": clipped}


class TestSpikedCovarianceInvariants:
    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    def test_dense_form_is_floor_plus_spikes(self, estimator):
        est = both_estimates(40, 160, [20.0, 8.0], seed=0)[estimator]
        assert est.r == 2
        m = dense_estimate(est)
        assert np.abs(m - m.conj().T).max() < 1e-12 * np.abs(m).max()
        lam = eigh(m).eigenvalues
        np.testing.assert_allclose(lam[:2], est.spikes, rtol=1e-12)
        np.testing.assert_allclose(lam[2:], est.sigma2, rtol=1e-12)

    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    def test_inverse_apply_matches_dense_solve(self, estimator):
        est = both_estimates(40, 160, [20.0, 8.0], seed=1)[estimator]
        rng = substream(19, 0)
        y = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        dense = np.linalg.solve(dense_estimate(est), y)
        np.testing.assert_allclose(est.inverse_apply(y), dense, rtol=1e-12)
        np.testing.assert_allclose(est.inverse_apply(y[:, 0]), dense[:, 0], rtol=1e-12)

    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    def test_reads_match_the_dense_matrix(self, estimator):
        # c = V^H y and the residual y - V c serve every reader, in any frame
        est = both_estimates(40, 160, [20.0, 8.0], seed=2)[estimator]
        m = dense_estimate(est)
        rng = substream(19, 1)
        y = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        y[:, 2] = est.vectors @ np.array([1.0, -0.5j])  # inside the spike span
        want = np.real(np.sum(y.conj() * np.linalg.solve(m, y), axis=0))
        np.testing.assert_allclose(est.quad_inv(y), want, rtol=1e-12)
        np.testing.assert_allclose(est.apply(y), m @ y, rtol=1e-12)
        assert est.trace_inv == pytest.approx(np.trace(np.linalg.inv(m)).real, rel=1e-12)
        assert est.logdet == pytest.approx(np.linalg.slogdet(m)[1], rel=1e-12)

    def test_bulk_must_sit_on_floor(self):
        # the bulk is the floor by construction; what remains to reject is a
        # spike that is not above it, and vectors that do not pair with spikes
        with pytest.raises(ValueError, match="exceed the noise floor"):
            SpikedCovariance(1.0, np.array([3.0, 1.0]), np.eye(3, dtype=complex)[:, :2])
        with pytest.raises(ValueError, match="p x r"):
            SpikedCovariance(1.0, [3.0], np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="< p"):
            SpikedCovariance(1.0, [3.0, 2.0, 1.5], np.eye(3, dtype=complex))

    @pytest.mark.parametrize("floor", [0.0, -1.0, np.nan])
    def test_floor_must_be_positive(self, floor):
        with pytest.raises(ValueError, match="must be positive"):
            SpikedCovariance(floor, [], np.eye(3, dtype=complex)[:, :0])

    def test_summary_fields(self):
        est = SpikedCovariance(1.0, np.array([3.0]), np.eye(3, dtype=complex)[:, :1])
        s = est.summary(AspectRatio(3, 12).gamma)
        assert s["spike_count"] == 1
        assert s["spiked_eigenvalues"] == [3.0]
        assert s["gamma"] == 0.25
        assert s["sigma2_hat"] == 1.0
