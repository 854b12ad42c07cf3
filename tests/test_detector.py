import numpy as np
import pytest
from scipy import special, stats

from cluttercov import (
    AspectRatio,
    DetectionReport,
    SpikedCovariance,
    SteeringSpec,
    detect,
    eigh,
    estimate_noise,
    inject_target,
    sample_covariance,
    steering_vector,
    theoretical_pd,
)
from cluttercov.detector import _pd_series
from cluttercov.rng import complex_normal, substream


def h0_cubes(p, n_train, trials, seed, spikes=()):
    """p x (n_train + 1) null snapshots: the last column is the test snapshot."""
    model = SpikedCovariance.diagonal(p, 1.0, np.asarray(spikes, dtype=float))
    root = np.sqrt(model.spectrum())
    for t in range(trials):
        rng = substream(seed, t)
        w = (rng.standard_normal((p, n_train + 1)) + 1j * rng.standard_normal((p, n_train + 1)))
        yield root[:, None] * w / np.sqrt(2)


class TestDetectStatistic:
    """The statistic's algebra, read through ``detect`` on one null draw."""

    P, N_TRAIN = 16, 64

    def _data(self):
        cube = next(h0_cubes(self.P, self.N_TRAIN, 1, seed=212, spikes=(40.0, 20.0)))
        return cube[:, :-1], cube[:, -1], steering_vector(SteeringSpec(0.3, -0.1, 4, 4))

    def test_rank_zero_is_the_plain_matched_filter(self):
        train, y, s = self._data()
        report = detect(train, y, s, 0, 0.1)
        sigma2_hat = estimate_noise(eigh(sample_covariance(train)), AspectRatio(self.P, self.N_TRAIN))
        raw = abs(np.vdot(s, y)) ** 2 / np.real(np.vdot(s, s))
        assert report.raw_statistic == pytest.approx(raw, rel=1e-12)
        assert report.statistic == pytest.approx(raw / sigma2_hat, rel=1e-12)
        orthogonal = y - s * (np.vdot(s, y) / np.real(np.vdot(s, s)))
        assert detect(train, orthogonal, s, 0, 0.1).statistic == pytest.approx(0.0, abs=1e-20)

    def test_leading_span_component_leaves_the_statistic_unchanged(self):
        # P annihilates the leading sample eigenvectors, so clutter along them
        # does not reach the statistic; rank 0 projects nothing out
        train, y, s = self._data()
        v = eigh(sample_covariance(train)).leading(2)
        shifted = y + v @ np.array([3.0 - 1.0j, 0.5j])
        base, moved = (detect(train, x, s, 2, 0.1) for x in (y, shifted))
        assert moved.statistic == pytest.approx(base.statistic, rel=1e-9)
        assert moved.raw_statistic == pytest.approx(base.raw_statistic, rel=1e-9)
        plain, plain_moved = (detect(train, x, s, 0, 0.1) for x in (y, shifted))
        assert plain_moved.statistic != pytest.approx(plain.statistic, rel=1e-3)

    @pytest.mark.parametrize("rank", [-1, 16, 17])
    def test_rank_outside_zero_to_p_rejected(self, rank):
        train, y, s = self._data()
        with pytest.raises(ValueError, match="rank must satisfy"):
            detect(train, y, s, rank, 0.1)

    def test_target_inside_clutter_subspace_rejected(self):
        train, y, _ = self._data()
        v = eigh(sample_covariance(train)).leading(1)
        with pytest.raises(ValueError, match="target in clutter subspace"):
            detect(train, y, 4.0 * v[:, 0], 1, 0.1)

    def test_phase_invariance(self):
        train, y, s = self._data()
        base = detect(train, y, s, 2, 0.1)
        rotated = detect(train, np.exp(1.3j) * y, s, 2, 0.1)
        assert rotated.statistic == pytest.approx(base.statistic, rel=1e-12)

    @pytest.mark.parametrize(
        "p_fa,want", [(np.exp(-1.0), 1.0), (0.01, 4.605170), (1e-5, 11.5129254)]
    )
    def test_threshold_is_minus_log_pfa(self, p_fa, want):
        train, y, s = self._data()
        report = detect(train, y, s, 0, p_fa)
        assert report.threshold == -np.log(p_fa)
        assert report.threshold == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_pfa_domain(self, bad):
        train, y, s = self._data()
        with pytest.raises(ValueError, match="p_fa must lie in"):
            detect(train, y, s, 0, bad)


class TestNullLaw:
    """T = |s^H P y|^2 / (sigma2_hat ||P s||^2) over many null test cells, P from one SCM."""

    def test_h0_mean_is_one(self):
        # 1e5 null snapshots against a projection estimated once at the true rank
        p, n = 64, 1024
        spikes = (40.0, 25.0)
        model = SpikedCovariance.diagonal(p, 1.0, np.asarray(spikes))
        root = np.sqrt(model.spectrum())
        rng = substream(202, 0)
        train = root[:, None] * (
            rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        ) / np.sqrt(2)
        dec = eigh(sample_covariance(train))
        sigma2_hat = estimate_noise(dec, AspectRatio(p, n))
        s = steering_vector(SteeringSpec(0.4, 0.2, 8, 8))
        v = dec.leading(len(spikes))
        ps = s - v @ (v.conj().T @ s)
        denom = sigma2_hat * np.real(np.vdot(ps, ps))
        trials = 100_000
        y = root[:, None] * (
            rng.standard_normal((p, trials)) + 1j * rng.standard_normal((p, trials))
        ) / np.sqrt(2)
        t_vals = np.abs(ps.conj() @ y) ** 2 / denom
        assert abs(t_vals.mean() - 1.0) < 0.02

    def test_h0_distribution_exponential(self):
        # two-sample KS at 5% of 2 T against chi-squared(2) draws
        p, n = 64, 1024
        model = SpikedCovariance.diagonal(p, 1.0, np.array([30.0]))
        root = np.sqrt(model.spectrum())
        rng = substream(203, 0)
        train = root[:, None] * (
            rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        ) / np.sqrt(2)
        dec = eigh(sample_covariance(train))
        sigma2_hat = estimate_noise(dec, AspectRatio(p, n))
        s = steering_vector(SteeringSpec(-0.3, 0.35, 8, 8))
        v = dec.leading(1)
        ps = s - v @ (v.conj().T @ s)
        denom = sigma2_hat * np.real(np.vdot(ps, ps))
        trials = 4000
        y = root[:, None] * (
            rng.standard_normal((p, trials)) + 1j * rng.standard_normal((p, trials))
        ) / np.sqrt(2)
        t_vals = np.abs(ps.conj() @ y) ** 2 / denom
        ref = stats.chi2(2).rvs(size=trials, random_state=np.random.default_rng(9))
        from cluttercov import ks_two_sample

        res = ks_two_sample(2 * t_vals, ref)
        assert res.p_value > 0.05


class TestTheoreticalPd:
    def test_zero_amplitude_reduces_to_pfa(self):
        model = SpikedCovariance.diagonal(16, 1.0, np.array([]))
        s = steering_vector(SteeringSpec(0.1, 0.1, 4, 4))
        for pfa in (0.1, 0.01, 1e-4):
            assert theoretical_pd(model, s, 0.0, pfa, 0.25) == pytest.approx(pfa, rel=1e-10)

    def test_large_amplitude_saturates(self):
        model = SpikedCovariance.diagonal(16, 1.0, np.array([]))
        s = steering_vector(SteeringSpec(0.1, 0.1, 4, 4))
        assert theoretical_pd(model, s, 30.0, 1e-3, 0.25) == pytest.approx(1.0, abs=1e-9)

    def test_series_matches_noncentral_chi2_oracle(self):
        # the series is the tail of a noncentral chi-squared with 2 dof
        for mean, thr in [(0.5, 2.0), (3.0, 4.6), (40.0, 9.2), (900.0, 6.9)]:
            ours = _pd_series(mean, thr)
            oracle = stats.ncx2(df=2, nc=2 * mean).sf(2 * thr)
            assert ours == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_series_matches_incomplete_gamma_series(self):
        # the same Poisson mixture with Q(k + 1, t) from scipy's gammaincc
        # instead of the recurrence, summed well past the series' stopping
        # rule, whose dropped tail is a few PD_SERIES_RTOL at mean 900
        def reference(mean, thr):
            k = np.arange(int(mean + 40.0 * np.sqrt(mean) + 60.0))
            log_pmf = -mean + k * np.log(mean) - special.gammaln(k + 1)
            return float(np.sum(np.exp(log_pmf) * special.gammaincc(k + 1, thr)))

        for mean in (1e-6, 0.5, 3.0, 40.0, 300.0, 900.0):
            for thr in (0.01, 2.0, 4.6, 6.9, 13.8, 50.0):
                assert _pd_series(mean, thr) == pytest.approx(reference(mean, thr), rel=1e-11)

    def test_monotone_in_amplitude_and_pfa(self):
        model = SpikedCovariance.diagonal(16, 1.0, np.array([]))
        s = steering_vector(SteeringSpec(0.1, 0.1, 4, 4))
        amps = np.linspace(0.0, 2.0, 15)
        vals = [theoretical_pd(model, s, a, 1e-2, 0.25) for a in amps]
        assert np.all(np.diff(vals) >= -1e-12)
        pfas = np.logspace(-5, -1, 9)
        vals = [theoretical_pd(model, s, 0.5, f, 0.25) for f in pfas]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_clutter_terms_lower_pd(self):
        # energy leaking into the clutter subspace costs detection probability
        p = 64
        model0 = SpikedCovariance.diagonal(p, 1.0, np.array([]))
        s = steering_vector(SteeringSpec(0.3, 0.2, 8, 8))
        u = (s / np.linalg.norm(s))[:, None]  # worst case: spike on the target
        model1 = SpikedCovariance(1.0, np.array([25.0]), u)
        amp = 0.3
        pd0 = theoretical_pd(model0, s, amp, 1e-2, 0.2)
        pd1 = theoretical_pd(model1, s, amp, 1e-2, 0.2)
        assert pd1 < pd0

    def test_clutter_free_deflection_is_the_injected_snr(self):
        # with p x 0 vectors the deflection reduces to 1 / ||s_w||^2 bit for bit
        s = steering_vector(SteeringSpec(0.3, 0.2, 8, 8))
        sigma2, amp, p_fa = 0.7, 0.21, 1e-2
        model = SpikedCovariance.diagonal(64, sigma2, np.array([]))
        s_w = s / np.sqrt(sigma2)
        mean = abs(amp) ** 2 / (1.0 / float(np.real(np.vdot(s_w, s_w))))
        want = _pd_series(mean, -np.log(p_fa))
        assert theoretical_pd(model, s, amp, p_fa, 0.25) == want

    def test_reads_the_vectors_in_the_target_frame(self):
        # the same spike on the target or orthogonal to it: only the overlap counts
        p = 64
        s = steering_vector(SteeringSpec(0.3, 0.2, 8, 8))
        on = SpikedCovariance(1.0, np.array([25.0]), (s / np.linalg.norm(s))[:, None])
        off_axis = np.roll(s, 1) - s * (np.vdot(s, np.roll(s, 1)) / p)
        off = SpikedCovariance(1.0, np.array([25.0]), (off_axis / np.linalg.norm(off_axis))[:, None])
        free = SpikedCovariance.diagonal(p, 1.0, np.array([]))
        pds = [theoretical_pd(m, s, 0.3, 1e-2, 0.2) for m in (on, off, free)]
        assert pds[0] < pds[1] == pytest.approx(pds[2], rel=1e-12)

    def test_subcritical_rejected(self):
        model = SpikedCovariance.diagonal(16, 1.0, np.array([1.2]))
        s = steering_vector(SteeringSpec(0.1, 0.1, 4, 4))
        with pytest.raises(ValueError, match="sub-critical"):
            theoretical_pd(model, s, 1.0, 1e-2, 0.25)

    @pytest.mark.parametrize("shape", [(15,), (17,), (16, 1), ()])
    def test_steering_of_another_shape_is_rejected(self, shape):
        model = SpikedCovariance.diagonal(16, 1.0, np.array([]))
        with pytest.raises(ValueError, match="steering dimension"):
            theoretical_pd(model, np.ones(shape, dtype=complex), 1.0, 1e-2, 0.25)

    def test_one_unitary_on_vectors_and_steering_keeps_the_value(self):
        # the frame is the vectors': R's eigenbasis with V^H s gives R's frame's value
        p = 64
        s = steering_vector(SteeringSpec(0.3, 0.2, 8, 8))
        u = np.roll(s, 3)[:, None] / np.linalg.norm(s)
        q = np.linalg.qr(complex_normal(substream(2, 0), p, p))[0]
        model = SpikedCovariance(1.0, np.array([25.0]), u)
        rotated = SpikedCovariance(1.0, np.array([25.0]), q.conj().T @ u)
        want = theoretical_pd(model, s, 0.3, 1e-2, 0.2)
        got = theoretical_pd(rotated, q.conj().T @ s, 0.3, 1e-2, 0.2)
        assert got == pytest.approx(want, rel=1e-10)


class TestDetect:
    def test_false_alarm_calibration(self):
        # empirical false-alarm rate within the 2-sigma binomial band at 1e4 trials
        p, n_train, trials, pfa = 32, 128, 10_000, 0.1
        s = steering_vector(SteeringSpec(0.5, 0.25, 4, 8))
        hits = 0
        for cube in h0_cubes(p, n_train, trials, seed=204):
            report = detect(cube[:, :-1], cube[:, -1], s, 0, pfa)
            hits += int(report.decision)
        rate = hits / trials
        assert 0.094 <= rate <= 0.106

    def test_strong_target_detected(self):
        p, n_train, trials = 32, 128, 400
        s = steering_vector(SteeringSpec(np.deg2rad(30.0), 0.2, 4, 8))
        sigma2 = 1.0
        amp = np.sqrt(10 ** (30 / 10) * sigma2 / p)
        hits = 0
        for cube in h0_cubes(p, n_train, trials, seed=205):
            y = inject_target(cube[:, -1], s, amp)
            report = detect(cube[:, :-1], y, s, 0, 1e-3)
            hits += int(report.decision)
        assert hits / trials >= 0.99

    def test_report_invariants(self):
        cube = next(h0_cubes(16, 64, 1, seed=206))
        s = steering_vector(SteeringSpec(0.2, 0.2, 4, 4))
        report = detect(cube[:, :-1], cube[:, -1], s, 0, 0.05)
        assert report.decision == (report.statistic > report.threshold)
        out = report.to_dict()
        assert out["theoretical_pfa"] == 0.05
        assert out["chi2_statistic"] == 2 * report.statistic
        assert report.raw_statistic is not None
        assert list(out) == [
            "statistic", "threshold", "decision", "theoretical_pfa", "chi2_statistic",
            "raw_statistic",
        ]

    def test_report_fields_derived(self):
        report = DetectionReport(statistic=3.0, p_fa=0.1, raw_statistic=1.5)
        assert report.decision is True
        assert report.threshold == -np.log(0.1)
        assert report.to_dict()["theoretical_pfa"] == 0.1
        assert report.to_dict()["chi2_statistic"] == 6.0
        at_threshold = DetectionReport(statistic=float(-np.log(0.1)), p_fa=0.1, raw_statistic=0.0)
        assert at_threshold.decision is False
        with pytest.raises(ValueError, match="nonnegative"):
            DetectionReport(statistic=-1.0, p_fa=0.1, raw_statistic=0.0)

    def test_estimated_rank_default(self):
        # rank None: the detector takes the spike count of the shrinkage rule
        from cluttercov import detect_spikes, shrink_spectrum

        p, n_train = 32, 256
        spikes = (50.0, 25.0)
        cube = next(h0_cubes(p, n_train, 1, seed=207, spikes=spikes))
        dec = eigh(sample_covariance(cube[:, :-1]))
        detected = detect_spikes(dec, AspectRatio(p, n_train))[1]
        assert detected.size == shrink_spectrum(dec, AspectRatio(p, n_train)).r == 2
        s = steering_vector(SteeringSpec(0.8, 0.4, 4, 8))
        r_none = detect(cube[:, :-1], cube[:, -1], s, None, 0.1)
        r_true = detect(cube[:, :-1], cube[:, -1], s, 2, 0.1)
        assert r_none.statistic == r_true.statistic

    def test_statistic_identical_for_both_estimators(self):
        # the statistic uses only eigenvectors and noise power: feeding the
        # shrinkage rank or the clipping rank gives the same report
        from cluttercov import rcml_estimate, shrink_spectrum

        p, n_train = 32, 256
        cube = next(h0_cubes(p, n_train, 1, seed=208, spikes=(60.0, 30.0)))
        dec = eigh(sample_covariance(cube[:, :-1]))
        ratio = AspectRatio(p, n_train)
        shrunk = shrink_spectrum(dec, ratio)
        clipped = rcml_estimate(dec, shrunk.sigma2, shrunk.r)
        s = steering_vector(SteeringSpec(0.8, 0.4, 4, 8))
        train, y = cube[:, :-1], cube[:, -1]
        rep_a = detect(train, y, s, shrunk.r, 0.01)
        rep_b = detect(train, y, s, clipped.r, 0.01)
        assert rep_a.statistic == rep_b.statistic

    def test_insufficient_training(self):
        s = steering_vector(SteeringSpec(0.1, 0.1, 2, 4))
        with pytest.raises(ValueError, match="insufficient samples"):
            detect(np.eye(8, 7, dtype=complex), np.ones(8, dtype=complex), s,
                   0, 0.1)

    def test_nonfinite_test_snapshot_rejected(self):
        cube = next(h0_cubes(8, 32, 1, seed=209))
        cube[3, -1] = np.nan
        s = steering_vector(SteeringSpec(0.1, 0.1, 2, 4))
        with pytest.raises(ValueError, match="test snapshot must be finite"):
            detect(cube[:, :-1], cube[:, -1], s, 0, 0.1)

    def test_nonfinite_training_rejected(self):
        cube = next(h0_cubes(8, 32, 1, seed=209))
        cube[3, 0] = np.inf
        s = steering_vector(SteeringSpec(0.1, 0.1, 2, 4))
        with pytest.raises(ValueError, match="invalid matrix"), np.errstate(invalid="ignore"):
            detect(cube[:, :-1], cube[:, -1], s, 0, 0.1)

    @pytest.mark.parametrize("shape", [(6,), (8, 1)], ids=["short", "column"])
    def test_steering_dimension_mismatch_rejected(self, shape):
        cube = next(h0_cubes(8, 32, 1, seed=209))
        with pytest.raises(ValueError, match="steering dimension"):
            detect(cube[:, :-1], cube[:, -1], np.ones(shape, dtype=complex),
                   0, 0.1)

    def test_test_snapshot_and_training_shapes_checked(self):
        cube = next(h0_cubes(8, 32, 1, seed=209))
        s = steering_vector(SteeringSpec(0.1, 0.1, 2, 4))
        with pytest.raises(ValueError, match="test snapshot dimension"):
            detect(cube[:, :-1], cube[:-1, -1], s, 0, 0.1)
        with pytest.raises(ValueError, match="p x n"):
            detect(cube[:, 0], cube[:, -1], s, 0, 0.1)

    def test_training_view_matches_copy(self):
        # the training block is a view of all but the last column: its SCM
        # equals the SCM of a contiguous copy in either order bit for bit,
        # and in a column-major draw that view is itself contiguous
        cube = next(h0_cubes(32, 128, 1, seed=210, spikes=(40.0,)))
        view = cube[:, :-1]
        assert np.shares_memory(view, cube)
        want = sample_covariance(view).tobytes(order="C")
        for copy in (np.ascontiguousarray(view), np.asfortranarray(view)):
            assert sample_covariance(copy).tobytes(order="C") == want
        draw = np.asfortranarray(cube)
        train = draw[:, :-1]
        assert train.flags.f_contiguous and np.shares_memory(train, draw)
        assert sample_covariance(train).tobytes(order="C") == want

    def test_working_set_is_the_scm_and_its_reduction(self, peak_bytes):
        # the training view of a column-major draw is read in place, and its
        # column-major SCM is reduced in place: above its inputs a call holds
        # that one p x p array, the p x p float block of ``leading``'s
        # ``dstemr`` solve, and O(p) vectors and workspace (32 columns bound
        # them); no copy of the p x n training block (8.4 MB here) or of the SCM
        p, n = 512, 1024
        draw = np.asfortranarray(next(h0_cubes(p, n, 1, seed=211, spikes=(40.0, 20.0))))
        s = steering_vector(SteeringSpec(0.3, 0.1, 8, 64))
        scm, stemr_block = p * p * 16, p * p * 8
        bound = scm + stemr_block + 32 * p * 16
        assert peak_bytes(detect, draw[:, :-1], draw[:, -1], s, None, 0.01) <= bound
