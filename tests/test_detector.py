import numpy as np
import pytest
from scipy import stats

from cluttercov import (
    AspectRatio,
    DetectionReport,
    DetectorConfig,
    SpikedModel,
    SteeringSpec,
    clutter_projection,
    detect,
    eigh,
    estimate_noise,
    inject_target,
    sample_covariance,
    steering_vector,
    theoretical_pd,
    threshold_for_pfa,
)
from cluttercov.detector import _pd_series
from cluttercov.detector import test_statistic as anmf_statistic
from cluttercov.rng import substream


def h0_cubes(p, n_train, trials, seed, spikes=()):
    """p x (n_train + 1) null snapshots: the last column is the test snapshot."""
    model = SpikedModel(p=p, sigma2=1.0, spikes=np.asarray(spikes, dtype=float))
    root = np.sqrt(model.spectrum())
    for t in range(trials):
        rng = substream(seed, t)
        w = (rng.standard_normal((p, n_train + 1)) + 1j * rng.standard_normal((p, n_train + 1)))
        yield root[:, None] * w / np.sqrt(2)


class TestClutterProjection:
    def _decomp(self, p=8, seed=0):
        rng = substream(200, seed)
        z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        return eigh((z + z.conj().T) / 2)

    def test_rank_zero_identity(self):
        dec = self._decomp()
        np.testing.assert_allclose(clutter_projection(dec, 0, np.eye(8)), np.eye(8))

    def test_rank_one_axis(self):
        from cluttercov import EigenDecomposition

        dec = EigenDecomposition(
            eigenvalues=np.array([2.0, 1.0, 0.5]), eigenvectors=np.eye(3, dtype=complex)
        )
        np.testing.assert_allclose(clutter_projection(dec, 1, np.eye(3)), np.diag([0.0, 1.0, 1.0]))

    def test_idempotent_hermitian_trace(self):
        dec = self._decomp(p=32, seed=1)
        proj = clutter_projection(dec, 3, np.eye(32))  # P applied to the identity
        assert np.abs(proj @ proj - proj).max() < 1e-10
        assert np.abs(proj - proj.conj().T).max() < 1e-12
        assert np.trace(proj).real == pytest.approx(29.0, abs=1e-10)

    def test_annihilates_leading_eigenvectors(self):
        dec = self._decomp(p=16, seed=2)
        proj = clutter_projection(dec, 4, dec.eigenvectors)
        for i in range(4):
            assert np.linalg.norm(proj[:, i]) < 1e-10

    def test_rank_too_large(self):
        with pytest.raises(ValueError):
            clutter_projection(self._decomp(), 8, np.eye(8))


class TestTestStatistic:
    def test_matched_snapshot(self):
        spec = SteeringSpec(0.2, 0.1, 4, 4)
        s = steering_vector(spec)
        t = anmf_statistic(s, s, 1.0)  # rank 0: P s = s
        assert t == pytest.approx(2 * 16.0, rel=1e-12)

    def test_orthogonal_snapshot_zero(self):
        spec = SteeringSpec(0.0, 0.0, 2, 2)
        s = steering_vector(spec)
        y = np.array([1.0, -1.0, 0.0, 0.0], dtype=complex)
        assert abs(np.vdot(s, y)) < 1e-12
        t = anmf_statistic(y, s, 1.0)
        assert t == pytest.approx(0.0, abs=1e-20)

    def test_target_inside_clutter_subspace(self):
        spec = SteeringSpec(0.0, 0.0, 2, 2)
        s = steering_vector(spec)
        proj = np.eye(4) - np.outer(s, s.conj()) / np.real(np.vdot(s, s))
        with pytest.raises(ValueError, match="target in clutter subspace"):
            anmf_statistic(s, proj @ s, 1.0)

    def test_phase_invariance(self):
        spec = SteeringSpec(0.3, -0.1, 4, 4)
        rng = substream(201, 0)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        s = steering_vector(spec)
        base = anmf_statistic(y, s, 1.0)
        rotated = anmf_statistic(np.exp(1.3j) * y, s, 1.0)
        assert rotated == pytest.approx(base, rel=1e-12)

    def test_h0_mean_is_two(self):
        # 1e5 null snapshots against a projection estimated once at the true rank
        p, n = 64, 1024
        spikes = (40.0, 25.0)
        model = SpikedModel(p=p, sigma2=1.0, spikes=np.asarray(spikes))
        root = np.sqrt(model.spectrum())
        rng = substream(202, 0)
        train = root[:, None] * (
            rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        ) / np.sqrt(2)
        dec = eigh(sample_covariance(train))
        sigma2_hat = estimate_noise(dec, AspectRatio(p, n))
        spec = SteeringSpec(0.4, 0.2, 8, 8)
        ps = clutter_projection(dec, len(spikes), steering_vector(spec))
        denom = sigma2_hat * np.real(np.vdot(ps, ps))
        trials = 100_000
        y = root[:, None] * (
            rng.standard_normal((p, trials)) + 1j * rng.standard_normal((p, trials))
        ) / np.sqrt(2)
        t_vals = 2 * np.abs(ps.conj() @ y) ** 2 / denom
        assert abs(t_vals.mean() - 2.0) / 2.0 < 0.02

    def test_h0_distribution_chi2(self):
        # two-sample KS at 5% against chi-squared(2) draws
        p, n = 64, 1024
        model = SpikedModel(p=p, sigma2=1.0, spikes=np.array([30.0]))
        root = np.sqrt(model.spectrum())
        rng = substream(203, 0)
        train = root[:, None] * (
            rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        ) / np.sqrt(2)
        dec = eigh(sample_covariance(train))
        sigma2_hat = estimate_noise(dec, AspectRatio(p, n))
        spec = SteeringSpec(-0.3, 0.35, 8, 8)
        ps = clutter_projection(dec, 1, steering_vector(spec))
        denom = sigma2_hat * np.real(np.vdot(ps, ps))
        trials = 4000
        y = root[:, None] * (
            rng.standard_normal((p, trials)) + 1j * rng.standard_normal((p, trials))
        ) / np.sqrt(2)
        t_vals = 2 * np.abs(ps.conj() @ y) ** 2 / denom
        ref = stats.chi2(2).rvs(size=trials, random_state=np.random.default_rng(9))
        from cluttercov import ks_two_sample

        res = ks_two_sample(t_vals, ref)
        assert res.p_value > 0.05


class TestThreshold:
    def test_reference_values(self):
        assert threshold_for_pfa(np.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)
        assert threshold_for_pfa(0.01) == pytest.approx(4.605170, abs=1e-6)
        assert threshold_for_pfa(1e-5) == pytest.approx(11.5129254, abs=1e-6)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            threshold_for_pfa(bad)


class TestTheoreticalPd:
    def test_zero_amplitude_reduces_to_pfa(self):
        model = SpikedModel(p=16, sigma2=1.0, spikes=np.array([]))
        spec = SteeringSpec(0.1, 0.1, 4, 4)
        for pfa in (0.1, 0.01, 1e-4):
            assert theoretical_pd(model, spec, 0.0, pfa, 0.25) == pytest.approx(pfa, rel=1e-10)

    def test_large_amplitude_saturates(self):
        model = SpikedModel(p=16, sigma2=1.0, spikes=np.array([]))
        spec = SteeringSpec(0.1, 0.1, 4, 4)
        assert theoretical_pd(model, spec, 30.0, 1e-3, 0.25) == pytest.approx(1.0, abs=1e-9)

    def test_series_matches_noncentral_chi2_oracle(self):
        # the series is the tail of a noncentral chi-squared with 2 dof
        for mean, thr in [(0.5, 2.0), (3.0, 4.6), (40.0, 9.2), (900.0, 6.9)]:
            ours = _pd_series(mean, thr)
            oracle = stats.ncx2(df=2, nc=2 * mean).sf(2 * thr)
            assert ours == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_monotone_in_amplitude_and_pfa(self):
        model = SpikedModel(p=16, sigma2=1.0, spikes=np.array([]))
        spec = SteeringSpec(0.1, 0.1, 4, 4)
        amps = np.linspace(0.0, 2.0, 15)
        vals = [theoretical_pd(model, spec, a, 1e-2, 0.25) for a in amps]
        assert np.all(np.diff(vals) >= -1e-12)
        pfas = np.logspace(-5, -1, 9)
        vals = [theoretical_pd(model, spec, 0.5, f, 0.25) for f in pfas]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_clutter_terms_lower_pd(self):
        # energy leaking into the clutter subspace costs detection probability
        p = 64
        model0 = SpikedModel(p=p, sigma2=1.0, spikes=np.array([]))
        model1 = SpikedModel(p=p, sigma2=1.0, spikes=np.array([25.0]))
        spec = SteeringSpec(0.3, 0.2, 8, 8)
        s = steering_vector(spec)
        u = (s / np.linalg.norm(s))[:, None]  # worst case: spike on the target
        amp = 0.3
        pd0 = theoretical_pd(model0, spec, amp, 1e-2, 0.2)
        pd1 = theoretical_pd(model1, spec, amp, 1e-2, 0.2, eigvecs_truth=u)
        assert pd1 < pd0

    def test_subcritical_rejected(self):
        model = SpikedModel(p=16, sigma2=1.0, spikes=np.array([1.2]))
        spec = SteeringSpec(0.1, 0.1, 4, 4)
        with pytest.raises(ValueError, match="sub-critical"):
            theoretical_pd(model, spec, 1.0, 1e-2, 0.25, eigvecs_truth=np.eye(16)[:, :1])


class TestDetect:
    def test_false_alarm_calibration(self):
        # empirical false-alarm rate within the 2-sigma binomial band at 1e4 trials
        p, n_train, trials, pfa = 32, 128, 10_000, 0.1
        spec = SteeringSpec(0.5, 0.25, 4, 8)
        hits = 0
        for cube in h0_cubes(p, n_train, trials, seed=204):
            report = detect(cube, spec, DetectorConfig(rank=0, p_fa=pfa))
            hits += int(report.decision)
        rate = hits / trials
        assert 0.094 <= rate <= 0.106

    def test_strong_target_detected(self):
        p, n_train, trials = 32, 128, 400
        spec = SteeringSpec(np.deg2rad(30.0), 0.2, 4, 8)
        sigma2 = 1.0
        amp = np.sqrt(10 ** (30 / 10) * sigma2 / p)
        hits = 0
        for cube in h0_cubes(p, n_train, trials, seed=205):
            cube = inject_target(cube, spec, amp)
            report = detect(cube, spec, DetectorConfig(rank=0, p_fa=1e-3))
            hits += int(report.decision)
        assert hits / trials >= 0.99

    def test_report_invariants(self):
        cube = next(h0_cubes(16, 64, 1, seed=206))
        spec = SteeringSpec(0.2, 0.2, 4, 4)
        report = detect(cube, spec, DetectorConfig(rank=0, p_fa=0.05))
        assert report.decision == (report.statistic > report.threshold)
        assert report.theoretical_pfa == pytest.approx(0.05, rel=1e-12)
        assert report.chi2_statistic == pytest.approx(2 * report.statistic, rel=1e-12)
        assert report.raw_statistic is not None
        assert list(report.to_dict()) == [
            "statistic", "threshold", "decision", "theoretical_pfa", "chi2_statistic",
            "raw_statistic",
        ]

    def test_report_fields_derived(self):
        report = DetectionReport(statistic=3.0, threshold=threshold_for_pfa(0.1), raw_statistic=1.5)
        assert report.decision is True
        assert report.theoretical_pfa == pytest.approx(0.1, rel=1e-12)
        assert report.chi2_statistic == 6.0
        assert DetectionReport(statistic=2.0, threshold=2.0, raw_statistic=0.0).decision is False
        with pytest.raises(ValueError, match="nonnegative"):
            DetectionReport(statistic=-1.0, threshold=1.0, raw_statistic=0.0)

    def test_estimated_rank_default(self):
        # rank None: the detector counts eigenvalues above the detection edge
        p, n_train = 32, 256
        spikes = (50.0, 25.0)
        cube = next(h0_cubes(p, n_train, 1, seed=207, spikes=spikes))
        spec = SteeringSpec(0.8, 0.4, 4, 8)
        r_none = detect(cube, spec, DetectorConfig(rank=None, p_fa=0.1))
        r_true = detect(cube, spec, DetectorConfig(rank=2, p_fa=0.1))
        assert r_none.statistic == pytest.approx(r_true.statistic, rel=1e-12)

    def test_statistic_identical_for_both_estimators(self):
        # the statistic uses only eigenvectors and noise power: feeding the
        # shrinkage rank or the clipping rank gives the same report
        from cluttercov import rcml_estimate, shrink_spectrum

        p, n_train = 32, 256
        cube = next(h0_cubes(p, n_train, 1, seed=208, spikes=(60.0, 30.0)))
        dec = eigh(sample_covariance(cube[:, :-1]))
        ratio = AspectRatio(p, n_train)
        shrunk = shrink_spectrum(dec, ratio)
        clipped = rcml_estimate(dec, shrunk.sigma2_hat, shrunk.spike_count, ratio=ratio)
        spec = SteeringSpec(0.8, 0.4, 4, 8)
        rep_a = detect(cube, spec, DetectorConfig(rank=shrunk.spike_count, p_fa=0.01))
        rep_b = detect(cube, spec, DetectorConfig(rank=clipped.spike_count, p_fa=0.01))
        assert rep_a.statistic == rep_b.statistic

    def test_insufficient_training(self):
        spec = SteeringSpec(0.1, 0.1, 2, 4)
        with pytest.raises(ValueError, match="insufficient samples"):
            detect(np.eye(8, dtype=complex), spec, DetectorConfig(rank=0, p_fa=0.1))

    def test_nonfinite_test_snapshot_rejected(self):
        cube = next(h0_cubes(8, 32, 1, seed=209))
        cube[3, -1] = np.nan
        with pytest.raises(ValueError, match="test snapshot must be finite"):
            detect(cube, SteeringSpec(0.1, 0.1, 2, 4), DetectorConfig(rank=0, p_fa=0.1))

    def test_nonfinite_training_rejected(self):
        cube = next(h0_cubes(8, 32, 1, seed=209))
        cube[3, 0] = np.inf
        with pytest.raises(ValueError, match="invalid matrix"), np.errstate(invalid="ignore"):
            detect(cube, SteeringSpec(0.1, 0.1, 2, 4), DetectorConfig(rank=0, p_fa=0.1))

    def test_training_view_matches_copy(self):
        # the training block is a view of all but the last column: its SCM
        # equals the SCM of a contiguous copy bit for bit
        cube = next(h0_cubes(32, 128, 1, seed=210, spikes=(40.0,)))
        view, copy = cube[:, :-1], np.ascontiguousarray(cube[:, :-1])
        assert np.shares_memory(view, cube)
        np.testing.assert_array_equal(sample_covariance(view), sample_covariance(copy))
