import numpy as np
import pytest

from cluttercov import (
    AspectRatio,
    Scatterer,
    ScattererClutter,
    ScenarioConfig,
    SnapshotSampler,
    SpikedCovariance,
    SteeringSpec,
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
    truth_spiked_model,
)
from cluttercov.rcml import rcml_estimate
from cluttercov.rng import substream
from oracles import DenseTruth, dense_estimate

TARGET44 = SteeringSpec(theta=0.4, doppler=0.15, N=4, K=4)


def random_pd(p, seed, base=1.0):
    rng = substream(100, seed)
    z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return z @ z.conj().T / p + base * np.eye(p)


def random_spiked(p, seed, r=3, sigma2=1.0):
    """A spiked estimate: floor sigma2 and r spikes on random orthonormal vectors."""
    rng = substream(106, seed)
    z = rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r))
    vectors = np.linalg.qr(z)[0]
    spikes = sigma2 * np.sort(1.5 + 20.0 * rng.random(r))[::-1]
    return SpikedCovariance(sigma2, spikes, vectors)


def floor_only(p, sigma2):
    """The estimate sigma2 I: a floor with no spikes."""
    return SpikedCovariance(sigma2, np.array([]), np.zeros((p, 0), dtype=complex))


def scaled(est, c):
    """The estimate c * est, with the same vectors."""
    return SpikedCovariance(c * est.sigma2, c * est.spikes, est.vectors)


def stein_estimate(model, gamma):
    """The truth's floor and vectors with each spike at its Stein-shrunk value sigma2 * eta(ell)."""
    etas = [stein_shrinker(ell, gamma) for ell in model.whitened_spikes()]
    return SpikedCovariance(model.sigma2, model.sigma2 * np.array(etas), model.vectors)


def scnr_at(estimate, truth, spec):
    """Normalized SCNR at one target: ``normalized_scnr_batch`` on a one-column matrix."""
    s = steering_vector(spec)[:, None]
    vals = normalized_scnr_batch(estimate, truth, s, truth.quad_inv(s))
    assert vals.shape == (1,)
    return float(vals[0])


def dense_scnr(rbar, r, y):
    """Direct dense-inverse evaluation, independent of the spectral path."""
    rbar_inv = np.linalg.inv(rbar)
    r_inv = np.linalg.inv(r)
    num = np.real(y.conj() @ rbar_inv @ y) ** 2
    den = np.real(y.conj() @ r_inv @ y) * np.real(y.conj() @ rbar_inv @ r @ rbar_inv @ y)
    return num / den


def dense_stein(r, rbar):
    """tr(R^{-1} Rbar) - p - log det(R^{-1} Rbar) by a dense solve, independent of the closed form."""
    m = np.linalg.solve(r, rbar)
    return float(np.real(np.trace(m)) - r.shape[0] - np.linalg.slogdet(m)[1])


class TestNormalizedScnr:
    def test_equals_one_at_truth(self):
        est = random_spiked(16, 1)
        truth = DenseTruth(dense_estimate(est))
        assert scnr_at(est, truth, TARGET44) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        est = random_spiked(16, 2)
        truth = DenseTruth(dense_estimate(est))
        for c in (0.2, 7.0):
            assert scnr_at(scaled(est, c), truth, TARGET44) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_oracle(self):
        r = random_pd(16, 3)
        est = random_spiked(16, 4)
        y = steering_vector(TARGET44)
        ours = scnr_at(est, DenseTruth(r), TARGET44)
        assert 0.0 < ours < 1.0
        assert ours == pytest.approx(dense_scnr(dense_estimate(est), r, y), abs=1e-10)

    def test_upper_bound_one(self):
        for seed in range(8):
            truth = DenseTruth(random_pd(16, 10 + seed))
            s = np.column_stack([steering_vector(TARGET44)])
            vals = normalized_scnr_batch(random_spiked(16, 30 + seed), truth, s, truth.quad_inv(s))
            assert vals.max() <= 1.0 + 1e-10

    def test_spectral_path_matches_dense(self):
        # a sample estimate is inverted through its low-rank form
        p, n = 16, 64
        rng = substream(101, 0)
        data = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        dec = eigh(sample_covariance(data))
        est = shrink_spectrum(dec, AspectRatio(p, n))
        r = random_pd(p, 5)
        y = steering_vector(TARGET44)
        assert scnr_at(est, DenseTruth(r), TARGET44) == pytest.approx(
            dense_scnr(dense_estimate(est), r, y), abs=1e-10
        )

    def test_indefinite_truth_rejected(self):
        with pytest.raises(ValueError):
            scnr_at(random_spiked(4, 6, r=1), DenseTruth(-np.eye(4)), SteeringSpec(0.1, 0.1, 2, 2))


class TestKantorovichBound:
    def test_no_spikes_perfect_bound(self):
        model = SpikedCovariance.diagonal(64, 2.0, np.array([]))
        assert kantorovich_bound(model, stein_estimate(model, 0.25), gamma=0.25) == 1.0

    def test_kappa_four_arithmetic(self):
        # bound = 4 k / (k + 1)^2 at k = 4
        assert 4 * 4 / 25 == pytest.approx(0.64)
        model = SpikedCovariance.diagonal(64, 1.0, np.array([2.0]))
        bound = kantorovich_bound(model, stein_estimate(model, 0.25), gamma=0.25)
        # pivot quantities from the printed display at ell = 2, eta = 10/7
        eta = stein_shrinker(2.0, 0.25)
        d = eta / 2.0
        t = ((0.4 + eta * 0.6) / 2.0) + 0.6 + eta * 0.4
        nu_p = t / 2 + np.sqrt(t * t / 4 - d)
        nu_m = t / 2 - np.sqrt(t * t / 4 - d)
        kappa = max(1.0, nu_p) / min(1.0, nu_m)
        assert type(bound) is float
        assert bound == pytest.approx(4 * kappa / (kappa + 1) ** 2, rel=1e-12)

    def test_monte_carlo_containment(self):
        # measured SCNR above the bound on every trial
        p, n = 64, 256
        ratio = AspectRatio(p, n)
        model = SpikedCovariance.diagonal(p, 1.0, np.array([24.0, 12.0, 6.0]))
        root = np.sqrt(model.spectrum())
        target = SteeringSpec(theta=0.5, doppler=0.3, N=8, K=8)
        for t in range(100):
            rng = substream(102, t)
            w = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2)
            est = shrink_spectrum(eigh(sample_covariance(root[:, None] * w)), ratio)
            rho = scnr_at(est, model, target)
            assert kantorovich_bound(model, est, ratio.gamma) <= rho <= 1.0 + 1e-10

    def test_plug_in_uses_realized_spikes(self):
        model = SpikedCovariance.diagonal(32, 1.0, np.array([9.0]))
        est = SpikedCovariance(1.0, np.array([7.0]), np.eye(32, dtype=complex)[:, :1])
        with_est = kantorovich_bound(model, est, gamma=0.25)
        oracle = kantorovich_bound(model, stein_estimate(model, 0.25), gamma=0.25)
        assert with_est != oracle


class TestMvdrErrorVariance:
    def test_identity(self):
        s = steering_vector(SteeringSpec(0.3, 0.2, 4, 4))
        assert mvdr_error_variance(floor_only(16, 1.0), s) == pytest.approx(1 / 16.0, rel=1e-12)
        assert mvdr_error_variance(SpikedCovariance.diagonal(16, 1.0, []), s) == pytest.approx(
            1 / 16.0, rel=1e-12
        )

    def test_scaling(self):
        s = steering_vector(SteeringSpec(0.3, 0.2, 4, 4))
        est = random_spiked(16, 39)
        base = mvdr_error_variance(est, s)
        for c in (0.5, 4.0):
            assert mvdr_error_variance(floor_only(16, c), s) == pytest.approx(
                c / 16.0, rel=1e-12
            )
            assert mvdr_error_variance(scaled(est, c), s) == pytest.approx(c * base, rel=1e-12)

    def test_unitary_invariance(self):
        p = 16
        spec = SteeringSpec(-0.2, 0.05, 4, 4)
        est = random_spiked(p, 40)
        s = steering_vector(spec)
        rng = substream(103, 0)
        z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        q, _ = np.linalg.qr(z)
        base = mvdr_error_variance(est, s)
        rotated = SpikedCovariance(est.sigma2, est.spikes, q @ est.vectors)
        rotated_s = q @ s
        assert mvdr_error_variance(rotated, rotated_s) == pytest.approx(base, rel=1e-10)
        # the dense oracle, in the rotated frame
        quad = abs(np.vdot(rotated_s, np.linalg.solve(dense_estimate(rotated), rotated_s)))
        assert 1.0 / quad == pytest.approx(base, rel=1e-10)

    def test_indefinite_truth_rejected(self):
        spec = SteeringSpec(0.0, 0.0, 2, 2)
        with pytest.raises(ValueError):
            mvdr_error_variance(DenseTruth(-np.eye(4)), steering_vector(spec))


class TestSteinLoss:
    def test_zero_at_truth(self):
        est = random_spiked(10, 50)
        assert stein_loss(DenseTruth(dense_estimate(est)), est) == pytest.approx(0.0, abs=1e-10)
        # in its own eigenbasis the truth is the diagonal spiked covariance
        model = SpikedCovariance.diagonal(10, est.sigma2, est.spikes)
        assert stein_loss(model, model) == pytest.approx(0.0, abs=1e-10)

    def test_scalar_reference(self):
        # 1-d case: estimate 2 against truth 1 costs 2 - 1 - log 2
        val = stein_loss(SpikedCovariance.diagonal(1, 1.0, []), floor_only(1, 2.0))
        assert val == pytest.approx(1.0 - np.log(2.0), rel=1e-12)

    def test_positive_on_perturbations(self):
        est = random_spiked(8, 51)
        for eps in (1e-3, 0.1, 1.0):
            r = dense_estimate(est) + eps * np.eye(8)
            val = stein_loss(DenseTruth(r), est)
            assert val > 0
            assert val == pytest.approx(dense_stein(r, dense_estimate(est)), rel=1e-8)

    def test_shrinkage_beats_clipping_on_average(self):
        p, n = 100, 400
        ratio = AspectRatio(p, n)
        model = SpikedCovariance.diagonal(p, 1.0, np.array([10.0, 5.0]))
        root = np.sqrt(model.spectrum())
        shrink_losses, clip_losses = [], []
        for t in range(20):
            rng = substream(104, t)
            w = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2)
            dec = eigh(sample_covariance(root[:, None] * w))
            shrunk = shrink_spectrum(dec, ratio)
            clipped = rcml_estimate(dec, shrunk.sigma2, shrunk.r)
            shrink_losses.append(stein_loss(model, shrunk))
            clip_losses.append(stein_loss(model, clipped))
        assert np.mean(shrink_losses) <= np.mean(clip_losses)

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError):
            stein_loss(DenseTruth(np.diag([1.0, -1.0])), floor_only(2, 1.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            stein_loss(SpikedCovariance.diagonal(3, 1.0, []), floor_only(2, 1.0))

    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    @pytest.mark.parametrize("spikes", [(), (30.0, 12.0, 6.0)])
    def test_spiked_path_matches_dense(self, estimator, spikes):
        p, n = 48, 192
        ratio = AspectRatio(p, n)
        model = SpikedCovariance.diagonal(p, 1.0, np.asarray(spikes, dtype=float))
        rng = substream(105, 0)
        w = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2)
        dec = eigh(sample_covariance(np.sqrt(model.spectrum())[:, None] * w))
        shrunk = shrink_spectrum(dec, ratio)
        est = {
            "shrinkage": shrunk,
            "rcml": rcml_estimate(dec, shrunk.sigma2, shrunk.r),
        }[estimator]
        assert est.r == len(spikes)
        truth = random_pd(p, 52)
        dense = dense_stein(truth, dense_estimate(est))
        assert dense > 0
        assert stein_loss(DenseTruth(truth), est) == pytest.approx(dense, rel=1e-10)


P32_SCENE = ScenarioConfig(
    N=4, K=8, n=128, sigma2=1.0, seed=3,
    clutter=ScattererClutter((Scatterer(8.0, 0.3, 0.1), Scatterer(5.0, -0.4, -0.2))),
)


@pytest.fixture(scope="module", params=["challenge", "p32"])
def eigenbasis_scene(request):
    """The spiked truth, both estimates and steering vectors, all in R's eigenbasis."""
    scn, n = (challenge_synthetic(), 1024) if request.param == "challenge" else (P32_SCENE, 128)
    r = synthesize_clutter_covariance(scn)
    sampler = SnapshotSampler(r)
    dec = eigh(sample_covariance(sampler.draw(n, 7)))
    ratio = AspectRatio(scn.p, n)
    shrunk = shrink_spectrum(dec, ratio)
    clipped = rcml_estimate(dec, shrunk.sigma2, shrunk.r)
    targets = [SteeringSpec(th, fd, scn.N, scn.K) for th in (-0.6, 0.0, 0.5) for fd in (-0.3, 0.2)]
    s = sampler.to_eigenbasis(np.column_stack([steering_vector(t) for t in targets]))
    return truth_spiked_model(scn, r), {"shrinkage": shrunk, "rcml": clipped}, s


def dense_diagonal(model):
    """The oracle for a spiked truth: diag(spectrum()) as a p x p array, read through solves."""
    return DenseTruth(np.diag(model.spectrum().astype(complex)))


class TestEigenbasisTruth:
    """A diagonal SpikedCovariance reads as the dense diag(spectrum()) read through solves does."""

    def test_reads_match_the_dense_oracle(self, eigenbasis_scene):
        model, ests, s = eigenbasis_scene
        dense = dense_diagonal(model)
        # one vector inside the spike span, as the estimate's vectors mostly are
        inside = np.zeros((model.p, 1), dtype=complex)
        inside[: model.r] = 1.0 + 0.5j
        y = np.hstack([s, ests["shrinkage"].vectors, inside])
        np.testing.assert_allclose(model.quad_inv(y), dense.quad_inv(y), rtol=1e-12, atol=0)
        assert model.quad_inv(s[:, 0]) == pytest.approx(dense.quad_inv(s[:, 0]), rel=1e-12)
        np.testing.assert_allclose(model.apply(y), dense.apply(y), rtol=1e-12, atol=0)
        np.testing.assert_allclose(model.apply(s[:, 0]), dense.apply(s[:, 0]), rtol=1e-12, atol=0)
        assert model.trace_inv == pytest.approx(dense.trace_inv, rel=1e-12)
        assert model.logdet == pytest.approx(dense.logdet, rel=1e-12)
        assert model.p == dense.p

    def test_no_cancellation_inside_the_spike_span(self):
        # spikes 1e4 times the floor: the quadratic form of a clutter-span
        # vector is 1e-4 of what ||y||^2 / sigma2 alone would give
        model = SpikedCovariance.diagonal(64, 5e-14, 5e-14 * np.array([1e4, 3e3, 1e3]))
        y = np.zeros(64, dtype=complex)
        y[:3] = [1.0, -2.0j, 0.5]
        want = 1.0 / 5e-10 + 4.0 / 1.5e-10 + 0.25 / 5e-11
        assert model.quad_inv(y) == pytest.approx(want, rel=1e-15)
        assert model.quad_inv(y) == pytest.approx(dense_diagonal(model).quad_inv(y), rel=1e-12)

    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    def test_stein_loss(self, eigenbasis_scene, estimator):
        model, ests, _ = eigenbasis_scene
        est = ests[estimator]
        assert est.r > 0
        dense = dense_diagonal(model)
        # slogdet sums its p logs in sequence, about 1e-11 off on the preset's
        # |log det R| = 1.5e4, which the loss (about 10) inherits
        tol = 1e-12 * (abs(dense.logdet) + abs(stein_loss(dense, est)))
        assert stein_loss(model, est) == pytest.approx(stein_loss(dense, est), rel=0, abs=tol)

    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    def test_normalized_scnr_batch(self, eigenbasis_scene, estimator):
        model, ests, s = eigenbasis_scene
        est = ests[estimator]
        truth = dense_diagonal(model)
        dense = normalized_scnr_batch(est, truth, s, truth.quad_inv(s))
        ours = normalized_scnr_batch(est, model, s, model.quad_inv(s))
        np.testing.assert_allclose(ours, dense, rtol=1e-12, atol=0)

    def test_mvdr_error_variance_of_the_truth(self, eigenbasis_scene):
        model, _, s = eigenbasis_scene
        dense = dense_diagonal(model)
        for col in s.T:
            assert mvdr_error_variance(model, col) == pytest.approx(
                mvdr_error_variance(dense, col), rel=1e-12
            )

    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    def test_mvdr_error_variance_of_an_estimate(self, eigenbasis_scene, estimator):
        _, ests, s = eigenbasis_scene
        est = ests[estimator]
        m = dense_estimate(est)
        # the dense solve carries the estimate's condition number, 1e4 on the preset
        for col in s.T:
            want = 1.0 / np.real(np.vdot(col, np.linalg.solve(m, col)))
            assert mvdr_error_variance(est, col) == pytest.approx(want, rel=1e-10)

    def test_closed_forms(self):
        model = SpikedCovariance.diagonal(3, 0.5, np.array([5.0, 2.0]))
        y = np.array([[1.0, 2j], [1j, 0.0], [-1.0, 1.0]])
        np.testing.assert_allclose(model.quad_inv(y), [1 / 5 + 1 / 2 + 2, 4 / 5 + 2], rtol=1e-15)
        np.testing.assert_allclose(model.apply(y), np.array([5.0, 2.0, 0.5])[:, None] * y, rtol=0)
        assert model.trace_inv == pytest.approx(1 / 5 + 1 / 2 + 2, rel=1e-15)
        assert model.logdet == pytest.approx(np.log(5.0), rel=1e-15)

    def test_vectors_are_the_leading_coordinate_axes(self):
        # p x r vectors and r spikes: no p x p array and no p-vector besides them
        model = SpikedCovariance.diagonal(4096, 1.0, np.array([9.0, 4.0]))
        np.testing.assert_array_equal(model.vectors, np.eye(4096, 2))
        assert model.p == 4096 and model.r == 2 and model.spikes.size == 2

    def test_wrong_dimension_rejected(self):
        model = SpikedCovariance.diagonal(4, 1.0, np.array([3.0]))
        for read in (model.quad_inv, model.apply):
            with pytest.raises(ValueError, match="dimension"):
                read(np.ones(3))
