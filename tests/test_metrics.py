import numpy as np
import pytest

from cluttercov import (
    AspectRatio,
    CovarianceEstimate,
    SpikedModel,
    SteeringSpec,
    eigh,
    kantorovich_bound,
    mvdr_error_variance,
    normalized_scnr,
    normalized_scnr_batch,
    sample_covariance,
    shrink_spectrum,
    steering_vector,
    stein_loss,
    stein_shrinker,
)
from cluttercov.rcml import rcml_estimate
from cluttercov.rng import substream

TARGET44 = SteeringSpec(theta=0.4, doppler=0.15, N=4, K=4)


def random_pd(p, seed, base=1.0):
    rng = substream(100, seed)
    z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return z @ z.conj().T / p + base * np.eye(p)


def dense_scnr(rbar, r, y):
    """Direct dense-inverse evaluation, independent of the spectral path."""
    rbar_inv = np.linalg.inv(rbar)
    r_inv = np.linalg.inv(r)
    num = np.real(y.conj() @ rbar_inv @ y) ** 2
    den = np.real(y.conj() @ r_inv @ y) * np.real(y.conj() @ rbar_inv @ r @ rbar_inv @ y)
    return num / den


class TestNormalizedScnr:
    def test_equals_one_at_truth(self):
        r = random_pd(16, 1)
        assert normalized_scnr(r, r, TARGET44) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        r = random_pd(16, 2)
        for c in (0.2, 7.0):
            assert normalized_scnr(c * r, r, TARGET44) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_oracle(self):
        r = random_pd(16, 3)
        rbar = random_pd(16, 4)
        y = steering_vector(TARGET44)
        ours = normalized_scnr(rbar, r, TARGET44)
        assert 0.0 < ours < 1.0
        assert ours == pytest.approx(dense_scnr(rbar, r, y), abs=1e-10)

    def test_upper_bound_one(self):
        for seed in range(8):
            r = random_pd(16, 10 + seed)
            rbar = random_pd(16, 30 + seed)
            vals = normalized_scnr_batch(
                rbar, r, np.column_stack([steering_vector(TARGET44)])
            )
            assert vals.max() <= 1.0 + 1e-10

    def test_spectral_path_matches_dense(self):
        # a CovarianceEstimate is inverted through its low-rank form
        p, n = 16, 64
        rng = substream(101, 0)
        data = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        dec = eigh(sample_covariance(data))
        est = shrink_spectrum(dec, AspectRatio(p, n))
        r = random_pd(p, 5)
        y = steering_vector(TARGET44)
        assert normalized_scnr(est, r, TARGET44) == pytest.approx(
            dense_scnr(est.matrix(), r, y), abs=1e-10
        )

    def test_singular_rejected(self):
        r = random_pd(4, 6)
        with pytest.raises(ValueError):
            normalized_scnr(np.zeros((4, 4)), r, SteeringSpec(0.1, 0.1, 2, 2))


class TestKantorovichBound:
    def test_no_spikes_perfect_bound(self):
        model = SpikedModel(p=64, sigma2=2.0, spikes=np.array([]))
        rep = kantorovich_bound(model, None, gamma=0.25)
        assert rep.kappa == 1.0
        assert rep.lower_bound == 1.0

    def test_kappa_four_arithmetic(self):
        # bound = 4 k / (k + 1)^2 at k = 4
        assert 4 * 4 / 25 == pytest.approx(0.64)
        model = SpikedModel(p=64, sigma2=1.0, spikes=np.array([2.0]))
        rep = kantorovich_bound(model, None, gamma=0.25)
        # pivot quantities from the printed display at ell = 2, eta = 10/7
        eta = stein_shrinker(2.0, 0.25)
        d = eta / 2.0
        t = ((0.4 + eta * 0.6) / 2.0) + 0.6 + eta * 0.4
        nu_p = t / 2 + np.sqrt(t * t / 4 - d)
        nu_m = t / 2 - np.sqrt(t * t / 4 - d)
        kappa = max(1.0, nu_p) / min(1.0, nu_m)
        assert rep.kappa == pytest.approx(kappa, rel=1e-12)
        assert rep.lower_bound == pytest.approx(4 * kappa / (kappa + 1) ** 2, rel=1e-12)

    def test_monte_carlo_containment(self):
        # measured SCNR above the bound on every trial
        p, n = 64, 256
        ratio = AspectRatio(p, n)
        model = SpikedModel(p=p, sigma2=1.0, spikes=np.array([24.0, 12.0, 6.0]))
        root = np.sqrt(model.spectrum())
        truth = np.diag(model.spectrum()).astype(complex)
        target = SteeringSpec(theta=0.5, doppler=0.3, N=8, K=8)
        for t in range(100):
            rng = substream(102, t)
            w = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2)
            est = shrink_spectrum(eigh(sample_covariance(root[:, None] * w)), ratio)
            rho = normalized_scnr(est, truth, target)
            rep = kantorovich_bound(model, est, ratio.gamma)
            assert rep.lower_bound <= rho <= 1.0 + 1e-10

    def test_plug_in_uses_realized_spikes(self):
        model = SpikedModel(p=32, sigma2=1.0, spikes=np.array([9.0]))
        est = CovarianceEstimate(
            sigma2_hat=1.0, spikes=np.array([7.0]), vectors=np.eye(32, dtype=complex)[:, :1]
        )
        with_est = kantorovich_bound(model, est, gamma=0.25)
        oracle = kantorovich_bound(model, None, gamma=0.25)
        assert with_est.kappa != oracle.kappa


class TestMvdrErrorVariance:
    def test_identity(self):
        spec = SteeringSpec(0.3, 0.2, 4, 4)
        assert mvdr_error_variance(np.eye(16), spec) == pytest.approx(1 / 16.0, rel=1e-12)

    def test_scaling(self):
        spec = SteeringSpec(0.3, 0.2, 4, 4)
        for c in (0.5, 4.0):
            assert mvdr_error_variance(c * np.eye(16), spec) == pytest.approx(
                c / 16.0, rel=1e-12
            )

    def test_unitary_invariance(self):
        p = 16
        spec = SteeringSpec(-0.2, 0.05, 4, 4)
        m = random_pd(p, 40)
        s = steering_vector(spec)
        rng = substream(103, 0)
        z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        q, _ = np.linalg.qr(z)
        base = mvdr_error_variance(m, spec)
        rotated_m = q @ m @ q.conj().T
        rotated_s = q @ s
        quad = abs(np.vdot(rotated_s, np.linalg.solve(rotated_m, rotated_s)))
        assert 1.0 / quad == pytest.approx(base, rel=1e-10)

    def test_singular_rejected(self):
        spec = SteeringSpec(0.0, 0.0, 2, 2)
        with pytest.raises(ValueError):
            mvdr_error_variance(np.zeros((4, 4)), spec)


class TestSteinLoss:
    def test_zero_at_truth(self):
        r = random_pd(10, 50)
        assert stein_loss(r, r) == pytest.approx(0.0, abs=1e-10)

    def test_scalar_reference(self):
        # 1-d case: estimate 2 against truth 1 costs 2 - 1 - log 2
        val = stein_loss(np.array([[1.0]]), np.array([[2.0]]))
        assert val == pytest.approx(1.0 - np.log(2.0), rel=1e-12)

    def test_positive_on_perturbations(self):
        r = random_pd(8, 51)
        for eps in (1e-3, 0.1, 1.0):
            rbar = r + eps * np.eye(8)
            assert stein_loss(r, rbar) > 0

    def test_shrinkage_beats_clipping_on_average(self):
        p, n = 100, 400
        ratio = AspectRatio(p, n)
        model = SpikedModel(p=p, sigma2=1.0, spikes=np.array([10.0, 5.0]))
        truth = np.diag(model.spectrum()).astype(complex)
        root = np.sqrt(model.spectrum())
        shrink_losses, clip_losses = [], []
        for t in range(20):
            rng = substream(104, t)
            w = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2)
            dec = eigh(sample_covariance(root[:, None] * w))
            shrunk = shrink_spectrum(dec, ratio)
            clipped = rcml_estimate(dec, shrunk.sigma2_hat, shrunk.spike_count, ratio=ratio)
            shrink_losses.append(stein_loss(truth, shrunk))
            clip_losses.append(stein_loss(truth, clipped))
        assert np.mean(shrink_losses) <= np.mean(clip_losses)

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError):
            stein_loss(np.diag([1.0, -1.0]), np.eye(2))

    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    @pytest.mark.parametrize("spikes", [(), (30.0, 12.0, 6.0)])
    def test_spiked_path_matches_dense(self, estimator, spikes):
        p, n = 48, 192
        ratio = AspectRatio(p, n)
        model = SpikedModel(p=p, sigma2=1.0, spikes=np.asarray(spikes, dtype=float))
        rng = substream(105, 0)
        w = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2)
        dec = eigh(sample_covariance(np.sqrt(model.spectrum())[:, None] * w))
        shrunk = shrink_spectrum(dec, ratio)
        est = {
            "shrinkage": shrunk,
            "rcml": rcml_estimate(dec, shrunk.sigma2_hat, shrunk.spike_count, ratio=ratio),
        }[estimator]
        assert est.spike_count == len(spikes)
        truth = random_pd(p, 52)
        dense = stein_loss(truth, est.matrix())
        assert dense > 0
        assert stein_loss(truth, est) == pytest.approx(dense, rel=1e-10)
