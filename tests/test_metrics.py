import numpy as np
import pytest

from cluttercov import (
    AspectRatio,
    CovarianceEstimate,
    DiagonalTruth,
    Scatterer,
    ScattererClutter,
    ScenarioConfig,
    SnapshotSampler,
    SpikedModel,
    SteeringSpec,
    TruthFactor,
    challenge_synthetic,
    eigh,
    kantorovich_bound,
    mvdr_error_variance,
    normalized_scnr_batch,
    sample_covariance,
    shrink_spectrum,
    steering_vector,
    stein_loss,
    stein_shrinker,
    synthesize_clutter_covariance,
)
from cluttercov.metrics import _stein_loss_dense
from cluttercov.rcml import rcml_estimate
from cluttercov.rng import substream

TARGET44 = SteeringSpec(theta=0.4, doppler=0.15, N=4, K=4)


def random_pd(p, seed, base=1.0):
    rng = substream(100, seed)
    z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return z @ z.conj().T / p + base * np.eye(p)


def scnr_at(estimate, truth, spec):
    """Normalized SCNR at one target: ``normalized_scnr_batch`` on a one-column matrix."""
    vals = normalized_scnr_batch(estimate, truth, steering_vector(spec)[:, None])
    assert vals.shape == (1,)
    return float(vals[0])


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
        assert scnr_at(r, r, TARGET44) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        r = random_pd(16, 2)
        for c in (0.2, 7.0):
            assert scnr_at(c * r, r, TARGET44) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_oracle(self):
        r = random_pd(16, 3)
        rbar = random_pd(16, 4)
        y = steering_vector(TARGET44)
        ours = scnr_at(rbar, r, TARGET44)
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
        assert scnr_at(est, r, TARGET44) == pytest.approx(
            dense_scnr(est.matrix(), r, y), abs=1e-10
        )

    def test_singular_rejected(self):
        r = random_pd(4, 6)
        with pytest.raises(ValueError):
            scnr_at(np.zeros((4, 4)), r, SteeringSpec(0.1, 0.1, 2, 2))


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
            rho = scnr_at(est, truth, target)
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
        s = steering_vector(SteeringSpec(0.3, 0.2, 4, 4))
        assert mvdr_error_variance(np.eye(16), s) == pytest.approx(1 / 16.0, rel=1e-12)

    def test_scaling(self):
        s = steering_vector(SteeringSpec(0.3, 0.2, 4, 4))
        for c in (0.5, 4.0):
            assert mvdr_error_variance(c * np.eye(16), s) == pytest.approx(
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
        base = mvdr_error_variance(m, s)
        rotated_m = q @ m @ q.conj().T
        rotated_s = q @ s
        quad = abs(np.vdot(rotated_s, np.linalg.solve(rotated_m, rotated_s)))
        assert 1.0 / quad == pytest.approx(base, rel=1e-10)

    def test_singular_rejected(self):
        spec = SteeringSpec(0.0, 0.0, 2, 2)
        with pytest.raises(ValueError):
            mvdr_error_variance(np.zeros((4, 4)), steering_vector(spec))


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


def scene_estimates(scn, n, seed):
    """True covariance of a scene and both estimates from one draw of n snapshots."""
    truth = synthesize_clutter_covariance(scn)
    sampler = SnapshotSampler(truth)
    data = sampler.basis @ sampler.draw(n, seed)  # back from R's eigenbasis
    dec = eigh(sample_covariance(data))
    ratio = AspectRatio(scn.p, n)
    shrunk = shrink_spectrum(dec, ratio)
    clipped = rcml_estimate(dec, shrunk.sigma2_hat, shrunk.spike_count, ratio=ratio)
    return truth, {"shrinkage": shrunk, "rcml": clipped}


P32_SCENE = ScenarioConfig(
    N=4, K=8, n=128, sigma2=1.0, seed=3,
    clutter=ScattererClutter((Scatterer(8.0, 0.3, 0.1), Scatterer(5.0, -0.4, -0.2))),
)


@pytest.fixture(scope="module", params=["challenge", "p32"])
def scene(request):
    if request.param == "challenge":
        scn, n = challenge_synthetic(), 1024
    else:
        scn, n = P32_SCENE, 128
    truth, ests = scene_estimates(scn, n, seed=7)
    targets = [SteeringSpec(th, fd, scn.N, scn.K) for th in (-0.6, 0.0, 0.5) for fd in (-0.3, 0.2)]
    return truth, ests, targets


class TestTruthFactor:
    """Each metric scores alike from a TruthFactor and from the plain array."""

    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    def test_stein_loss(self, scene, estimator):
        truth, ests, _ = scene
        est = ests[estimator]
        assert est.spike_count > 0
        from_factor = stein_loss(TruthFactor(truth), est)
        assert from_factor == stein_loss(truth, est)
        assert from_factor == pytest.approx(_stein_loss_dense(truth, est.matrix()), rel=1e-10)

    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    def test_normalized_scnr_batch(self, scene, estimator):
        truth, ests, targets = scene
        est = ests[estimator]
        s = np.column_stack([steering_vector(t) for t in targets])
        from_factor = normalized_scnr_batch(est, TruthFactor(truth), s)
        np.testing.assert_array_equal(from_factor, normalized_scnr_batch(est, truth, s))
        w = est.inverse_apply(s)
        ref = np.real(np.sum(s.conj() * w, axis=0)) ** 2 / (
            np.real(np.sum(s.conj() * np.linalg.solve(truth, s), axis=0))
            * np.real(np.sum(w.conj() * (truth @ w), axis=0))
        )
        np.testing.assert_allclose(from_factor, ref, rtol=1e-10)

    def test_mvdr_error_variance(self, scene):
        truth, _, targets = scene
        factor = TruthFactor(truth)
        for target in targets:
            s = steering_vector(target)
            from_factor = mvdr_error_variance(factor, s)
            assert from_factor == mvdr_error_variance(truth, s)
            assert 1.0 / from_factor == pytest.approx(
                np.vdot(s, np.linalg.solve(truth, s)).real, rel=1e-10
            )

    @pytest.mark.parametrize(
        "bad", [np.diag([2.0, 1.0, -1.0, 3.0]), np.diag([2.0, np.nan, 1.0, 3.0])],
        ids=["indefinite", "nan"],
    )
    def test_bad_truth_rejected_in_both_forms(self, bad):
        est = CovarianceEstimate(
            sigma2_hat=1.0, spikes=np.array([3.0]), vectors=np.eye(4, dtype=complex)[:, :1]
        )
        target = SteeringSpec(0.1, 0.1, 2, 2)
        with pytest.raises(ValueError):
            TruthFactor(bad)
        with pytest.raises(ValueError):
            stein_loss(bad, est)
        with pytest.raises(ValueError):
            scnr_at(est, bad, target)
        with pytest.raises(ValueError):
            mvdr_error_variance(bad, steering_vector(target))


@pytest.fixture(scope="module", params=["challenge", "p32"])
def eigenbasis_scene(request):
    """R's eigenvalues, both estimates and steering vectors, all in R's eigenbasis."""
    scn, n = (challenge_synthetic(), 1024) if request.param == "challenge" else (P32_SCENE, 128)
    sampler = SnapshotSampler(synthesize_clutter_covariance(scn))
    dec = eigh(sample_covariance(sampler.draw(n, 7)))
    ratio = AspectRatio(scn.p, n)
    shrunk = shrink_spectrum(dec, ratio)
    clipped = rcml_estimate(dec, shrunk.sigma2_hat, shrunk.spike_count, ratio=ratio)
    targets = [SteeringSpec(th, fd, scn.N, scn.K) for th in (-0.6, 0.0, 0.5) for fd in (-0.3, 0.2)]
    s = sampler.to_eigenbasis(np.column_stack([steering_vector(t) for t in targets]))
    return sampler.eigenvalues, {"shrinkage": shrunk, "rcml": clipped}, s


class TestDiagonalTruth:
    """A DiagonalTruth scores as the dense diag(lam) does, to 1e-12, from lam alone."""

    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    def test_stein_loss(self, eigenbasis_scene, estimator):
        lam, ests, _ = eigenbasis_scene
        est = ests[estimator]
        assert est.spike_count > 0
        dense = stein_loss(TruthFactor(np.diag(lam.astype(complex))), est)
        assert stein_loss(DiagonalTruth(lam), est) == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    def test_normalized_scnr_batch(self, eigenbasis_scene, estimator):
        lam, ests, s = eigenbasis_scene
        est = ests[estimator]
        dense = normalized_scnr_batch(est, TruthFactor(np.diag(lam.astype(complex))), s)
        np.testing.assert_allclose(normalized_scnr_batch(est, DiagonalTruth(lam), s), dense,
                                   rtol=1e-12, atol=0)

    def test_mvdr_error_variance(self, eigenbasis_scene):
        lam, _, s = eigenbasis_scene
        dense, diagonal = TruthFactor(np.diag(lam.astype(complex))), DiagonalTruth(lam)
        for col in s.T:
            assert mvdr_error_variance(diagonal, col) == pytest.approx(
                mvdr_error_variance(dense, col), rel=1e-12
            )

    def test_closed_forms_from_lam(self):
        lam = np.array([5.0, 2.0, 0.5])
        truth = DiagonalTruth(lam)
        y = np.array([[1.0, 2j], [1j, 0.0], [-1.0, 1.0]])
        np.testing.assert_allclose(truth.quad_inv(y), [1 / 5 + 1 / 2 + 2, 4 / 5 + 2], rtol=1e-15)
        np.testing.assert_allclose(truth.apply(y), lam[:, None] * y, rtol=0)
        np.testing.assert_allclose(truth.apply(y[:, 0]), lam * y[:, 0], rtol=0)
        assert truth.trace_inv == pytest.approx(1 / 5 + 1 / 2 + 2, rel=1e-15)
        assert truth.logdet == pytest.approx(np.log(5.0), rel=1e-15)
        np.testing.assert_array_equal(truth.matrix, np.diag(lam))

    def test_holds_no_p_by_p_array(self):
        p = 256
        truth = DiagonalTruth(np.linspace(1.0, 10.0, p))
        assert truth.p == p
        assert all(np.size(v) <= p for v in vars(truth).values())

    @pytest.mark.parametrize(
        "bad", [[2.0, 1.0, -1.0, 3.0], [2.0, 0.0, 1.0, 3.0], [2.0, np.nan, 1.0, 3.0], [],
                np.eye(2)],
        ids=["negative", "zero", "nan", "empty", "matrix"],
    )
    def test_bad_eigenvalues_rejected(self, bad):
        with pytest.raises(ValueError):
            DiagonalTruth(bad)
