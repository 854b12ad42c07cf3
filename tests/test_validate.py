import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cluttercov import (
    AspectRatio,
    CltParams,
    Scatterer,
    ScattererClutter,
    ScenarioConfig,
    SnapshotSampler,
    SpikedClutter,
    SpikedCovariance,
    SteeringSpec,
    TrialPlan,
    amplitude_for_snr,
    detect,
    eigh,
    inject_target,
    kantorovich_bound,
    ks_two_sample,
    mvdr_error_variance,
    normalized_scnr_batch,
    rcml_estimate,
    sample_covariance,
    shrink_spectrum,
    steering_vector,
    stein_loss,
    sweep,
    synthesize_clutter_covariance,
    truth_spiked_model,
    verify_clt,
)
from cluttercov import rmt, scenario, validate
from cluttercov.rng import complex_normal, substream
from cluttercov.validate import (
    ANGLE_MARGIN_GRID,
    DETECTION_HEADER,
    DOPPLER_MARGIN_GRID,
    SWEEP_HEADER,
    _kolmogorov_sf,
)
from oracles import DenseTruth, shrink_whitened


def lawley_location(ells, i, p, n):
    """First-order finite-n mean of the i-th whitened sample spike eigenvalue.

    Lawley's (1956) expansion over the whitened spectrum (the spikes ells,
    then p - r unit eigenvalues): E[l_i] = ell_i + (ell_i / n) *
    sum_{j != i} ell_j / (ell_i - ell_j) + O(n^-2), the same for real and
    circular complex snapshots. With p / n = gamma held fixed its limit is
    ell + gamma * ell / (ell - 1), the centring of the spike CLT. Only this
    first-order eigenvalue term is kept: the bias of the median noise
    estimate (about -0.05 sd at p = 120) and the curvature of the shrinker,
    both of the same O(1/sqrt(n)) order on the CLT scale, are left out.
    """
    ell = ells[i]
    others = np.delete(ells, i)
    bulk = (p - len(ells)) * ell / (ell - 1.0)
    return ell + (bulk + np.sum(ell * others / (ell - others))) / n


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestKsTwoSample:
    def test_identical_samples(self):
        a = np.array([0.2, 0.5, 0.9, 1.4])
        res = ks_two_sample(a, a.copy())
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_separated_samples(self):
        rng = substream(300, 0)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000) + 5.0
        res = ks_two_sample(a, b)
        assert res.p_value < 1e-6
        assert res.statistic > 0.9

    def test_calibration_under_null(self):
        # same-distribution samples: p > 0.05 in roughly 95% of meta-trials
        passes = 0
        meta = 200
        for t in range(meta):
            rng = substream(301, t)
            res = ks_two_sample(rng.standard_normal(1000), rng.standard_normal(1000))
            passes += int(res.p_value > 0.05)
        assert 0.90 <= passes / meta <= 0.99

    @given(
        st.integers(min_value=5, max_value=400),
        st.integers(min_value=5, max_value=400),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy_oracle(self, n1, n2, seed):
        from scipy import special

        rng = substream(302, seed)
        a = rng.standard_normal(n1)
        b = rng.standard_normal(n2) * rng.uniform(0.5, 2.0) + rng.uniform(-1, 1)
        ours = ks_two_sample(a, b)
        ref = stats.ks_2samp(a, b, method="asymp")
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
        # the p-value follows the pure Kolmogorov limit law
        n_eff = n1 * n2 / (n1 + n2)
        assert ours.p_value == pytest.approx(
            float(special.kolmogorov(np.sqrt(n_eff) * ours.statistic)), abs=1e-9
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample(np.array([]), np.array([1.0]))

    def test_kolmogorov_sf_matches_scipy_for_small_and_large_lambda(self):
        # below lam = 0.5 the alternating series needs far more than 100 terms
        from scipy import special

        for lam in np.geomspace(1e-3, 3.0, 200):
            assert _kolmogorov_sf(lam) == pytest.approx(float(special.kolmogorov(lam)), abs=1e-12)

    def test_samples_differing_in_one_point_are_not_rejected(self):
        # statistic 1 / 20,000 at n_eff = 10,000: lam = 0.005, p = 1
        a = np.arange(20_000, dtype=float)
        b = a.copy()
        b[-1] = 1e9
        res = ks_two_sample(a, b)
        assert res.statistic == pytest.approx(1 / 20_000)
        assert res.p_value == pytest.approx(1.0, abs=1e-12)


class TestVerifyClt:
    def test_degenerate_two_trials(self):
        model = SpikedCovariance.diagonal(40, 1.0, np.array([6.0]))
        res = verify_clt(model, gamma=0.2, trials=2, seed=1)
        assert len(res) == 1
        assert res[0].ks.n1 == 2
        assert 0.0 <= res[0].ks.p_value <= 1.0

    def test_complex_draw_pinned_to_the_expression(self, monkeypatch):
        # the in-place, row-scaled draw gives bit for bit the samples of the
        # expression (a + 1j * b) / sqrt(2) * root it replaced
        model = SpikedCovariance.diagonal(24, 2.0, np.array([30.0, 12.0]))
        ours = verify_clt(model, gamma=0.25, trials=3, seed=5)
        monkeypatch.setattr(
            validate,
            "complex_normal",
            lambda rng, p, n, row_scale: (
                rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
            ) / np.sqrt(2.0) * row_scale[:, None],
        )
        ref = verify_clt(model, gamma=0.25, trials=3, seed=5)
        for a, b in zip(ours, ref):
            assert a.samples.tobytes() == b.samples.tobytes()

    @pytest.mark.parametrize("ensemble", ["real", "complex"])
    def test_draws_at_the_model_dimension(self, ensemble):
        # bitwise the former verify_clt(model, gamma, p, ...) at p = model.p:
        # n = round(p / gamma), and trial t draws p x n snapshots from substream(seed, t)
        model = SpikedCovariance.diagonal(30, 2.0, np.array([40.0, 12.0]))
        gamma, trials, seed = 0.25, 3, 7
        p = model.p
        n = int(round(p / gamma))
        ratio = AspectRatio(p, n)
        root = np.sqrt(model.spectrum())
        shrunk = np.empty((trials, model.r))
        for t in range(trials):
            rng = substream(seed, t)
            if ensemble == "real":
                w = rng.standard_normal((p, n)) * root[:, None]
            else:
                w = complex_normal(rng, p, n, root)
            est = shrink_spectrum(eigh(sample_covariance(w)), ratio)
            k = min(est.r, model.r)
            shrunk[t] = est.sigma2
            shrunk[t, :k] = est.spikes[:k]
        res = verify_clt(model, gamma, trials, seed, ensemble=ensemble)
        assert len(res) == model.r
        for i, spike in enumerate(res):
            limit = model.sigma2 * CltParams(model.whitened_spikes()[i], ratio.gamma).eta_of_beta
            assert spike.limit_value == limit
            want = np.sqrt(n) * (shrunk[:, i] - limit) / model.sigma2
            assert spike.samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ensemble,itemsize", [("complex", 16), ("real", 8)])
    def test_working_set_is_one_trial_of_snapshots_and_their_scm(
        self, peak_bytes, ensemble, itemsize
    ):
        # a trial's snapshots are dropped once their SCM is formed, and
        # nothing of it but the estimate is alive at the next draw; the real
        # draw is scaled in place, so one p x n block is alive, not two
        p, n = 256, 512
        model = SpikedCovariance.diagonal(p, 1.0, np.array([5.0, 3.0, 2.5]))
        budget = (p * n + p * p) * itemsize
        assert peak_bytes(verify_clt, model, p / n, 3, 0, ensemble=ensemble) <= 1.1 * budget

    def test_subcritical_rejected(self):
        model = SpikedCovariance.diagonal(40, 1.0, np.array([1.3]))
        with pytest.raises(ValueError, match="sub-critical"):
            verify_clt(model, gamma=0.2, trials=4, seed=1)

    def test_near_critical_reported_not_asserted(self):
        gamma = 0.2
        ell = 1 + np.sqrt(gamma) + 0.01
        model = SpikedCovariance.diagonal(60, 1.0, np.array([ell]))
        res = verify_clt(model, gamma=gamma, trials=64, seed=2)
        # small-sample deviation is expected near the detection edge; the
        # contract is only that a well-formed result comes back
        assert np.isfinite(res[0].ks.statistic)
        assert np.isfinite(res[0].mean_estimate)

    @pytest.mark.parametrize("ensemble", ["real", "complex"])
    def test_moderate_scale_distribution(self, ensemble):
        # p = 120: both ensembles follow the spike law with their prescribed
        # scales. verify_clt centres each spike at its asymptotic limit, but
        # at n = 600 the sample spike eigenvalue still carries Lawley's O(1/n)
        # location term, which the CLT drops: -0.15 sd on the complex ell = 3
        # spike, enough for a 256-vs-256 KS to reject it at many seeds. The
        # returned samples are therefore judged against the law shifted by
        # the first-order Lawley eigenvalue term only (the noise-median bias,
        # about -0.05 sd, and the curvature of shrink_whitened are left out),
        # and their spread against each ensemble's scale. Even so a correct
        # pipeline fails this test at about 10% of seeds (4 of 40 real, 5 of
        # 40 complex over seeds 200-239); seed 3 is kept from the original.
        p, gamma, trials, seed = 120, 0.2, 256, 3
        ells = np.array([5.0, 3.0])
        model = SpikedCovariance.diagonal(p, 1.0, ells)
        res = verify_clt(model, gamma=gamma, trials=trials, seed=seed, ensemble=ensemble)
        n = int(round(p / gamma))
        g = p / n
        ensemble_scale = 1.0 if ensemble == "real" else 1.0 / np.sqrt(2.0)
        sd_tol = 3.0 / np.sqrt(2.0 * (trials - 1))  # 3 standard errors of a sample sd
        for i, spike_res in enumerate(res):
            ell = ells[i]
            assert spike_res.limit_value == pytest.approx(
                shrink_whitened(ell + g * ell / (ell - 1.0), g), rel=1e-9
            )
            offset = np.sqrt(n) * (
                shrink_whitened(lawley_location(ells, i, p, n), g) - spike_res.limit_value
            )
            prm = CltParams(ell, g)
            scale = np.sqrt(prm.alpha2) * prm.eta_prime * ensemble_scale
            # verify_clt's own reference draws: its reported KS verdict must be
            # the one against the asymptotic law at this ensemble's scale
            ref0 = substream(seed, 10_000_000 + i).standard_normal(trials) * scale
            assert spike_res.ks.statistic == pytest.approx(
                ks_two_sample(spike_res.samples, ref0).statistic
            )
            # the same draws recentred at the finite-n location
            assert ks_two_sample(spike_res.samples, ref0 + offset).p_value > 0.05
            assert abs(spike_res.samples.std(ddof=1) / scale - 1.0) < sd_tol

    def test_standardized_mean_near_zero(self):
        model = SpikedCovariance.diagonal(100, 1.0, np.array([4.0]))
        res = verify_clt(model, gamma=0.25, trials=128, seed=4)
        samples = res[0].samples
        assert abs(samples.mean()) < 3.0 * samples.std() / np.sqrt(samples.size)


def small_scene(n=None):
    sigma2 = 0.5
    scatterers = tuple(
        Scatterer(amplitude=np.sqrt(s * sigma2), theta=t, doppler=np.sin(t) / 2)
        for s, t in zip([400.0, 150.0], [-0.35, 0.4])
    )
    return ScenarioConfig(
        N=4, K=8, n=(n or 160), sigma2=sigma2,
        clutter=ScattererClutter(scatterers), seed=9, name="small-test-scene",
    )


def plan_for(scene, **kwargs):
    """A plan aimed at the CLI's default target: 30 degrees, normalized Doppler 0.2."""
    target = SteeringSpec(theta=np.deg2rad(30.0), doppler=0.2, N=scene.N, K=scene.K)
    return TrialPlan(scenario=scene, target=target, **kwargs)


class TestSweep:
    def test_zero_trials_header_only(self):
        plan = plan_for(small_scene(), trials=0, seed=0)
        header, rows = parse_csv(sweep(plan, "n"))
        assert header == SWEEP_HEADER
        assert rows == []
        header, rows = parse_csv(sweep(plan, "snr"))
        assert header == DETECTION_HEADER
        assert rows == []

    def test_n_axis_estimators_agree(self):
        plan = plan_for(small_scene(), trials=6, seed=5)
        header, rows = parse_csv(sweep(plan, "n"))
        assert header == SWEEP_HEADER
        assert [int(r[3]) for r in rows] == [32, 64, 96, 128, 160]
        for r in rows:
            rho_s, rho_r = float(r[6]), float(r[7])
            assert 0 < rho_s <= 1 and 0 < rho_r <= 1
            assert abs(rho_s - rho_r) < 0.01
            assert float(r[8]) <= rho_s  # bound respected row-wise

    def test_doppler_sweep_dips_at_ridge(self):
        # The Doppler axis averages SCNR over the uniform angle grid, so a
        # clutter ridge shows only where it fills its Doppler bin at every
        # angle: a single scatterer dips one of 179 angles and the marginal
        # by at most ~0.0005. With N = 2 channels, scatterers at
        # sin(theta) = +0.5 and -0.5 have orthogonal spatial vectors that span
        # the array, so the clutter at doppler 0.25 covers every angle.
        sigma2 = 1.0
        cfg = ScenarioConfig(
            N=2, K=16, n=128, sigma2=sigma2,
            clutter=ScattererClutter(tuple(
                Scatterer(amplitude=np.sqrt(3000.0), theta=np.arcsin(s), doppler=0.25)
                for s in (0.5, -0.5)
            )),
            seed=11, name="ridge",
        )
        plan = plan_for(cfg, trials=4, seed=6)
        values = np.linspace(-0.5, 0.5, 21)
        header, rows = parse_csv(sweep(plan, "doppler", values=values))
        rho = np.array([float(r[6]) for r in rows])
        vals = np.array([float(r[2]) for r in rows])
        ridge = np.abs(vals - 0.25) < 0.08
        assert rho[ridge].min() < rho[~ridge].mean() - 0.02

    def test_determinism_byte_identical(self):
        plan = plan_for(small_scene(n=64), trials=3, seed=7)
        a = sweep(plan, "n", values=[64])
        b = sweep(plan, "n", values=[64])
        assert a == b

    def test_snr_axis_schema(self):
        cfg = ScenarioConfig(N=2, K=8, n=64, sigma2=1.0, seed=3, name="clean")
        plan = plan_for(cfg, trials=50, seed=8)
        header, rows = parse_csv(
            sweep(plan, "snr", values=[0.0, 10.0], pfa_list=(1e-1, 1e-2), rank=0)
        )
        assert header == DETECTION_HEADER
        assert len(rows) == 4
        for r in rows:
            emp, theo = float(r[2]), float(r[3])
            assert 0.0 <= emp <= 1.0
            assert 0.0 <= theo <= 1.0

    def test_repeated_false_alarm_rate_counts_each_row_once(self):
        # a rate listed twice gives two rows, each equal to the single-rate row
        spiked = SpikedClutter(np.array([6.0, 3.0]))
        cfg = ScenarioConfig(N=2, K=8, n=64, sigma2=1.0, clutter=spiked, seed=3, name="p16")
        plan = plan_for(cfg, trials=20, seed=8)
        _, single = parse_csv(sweep(plan, "snr", values=[20.0], pfa_list=(1e-1,)))
        _, twice = parse_csv(sweep(plan, "snr", values=[20.0], pfa_list=(1e-1, 1e-1)))
        assert twice == single * 2
        assert 0.0 < float(single[0][2]) <= 1.0

    @pytest.mark.parametrize("axis", ["doppler", "angle"])
    @pytest.mark.parametrize("values", [[], [0.2], [-0.3, 0.0, 0.3]])
    def test_rows_share_each_trial_estimate(self, monkeypatch, axis, values):
        # every row trains on the scene's n: one draw and one estimate pair per trial
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return shrink_spectrum(*args, **kwargs)

        monkeypatch.setattr(validate, "shrink_spectrum", counted)
        sweep(plan_for(small_scene(), trials=2, seed=3), axis, values=values)
        assert len(calls) == (2 if values else 0)

    @pytest.mark.parametrize("axis", ["doppler", "angle"])
    def test_each_row_equals_its_one_value_sweep(self, axis):
        plan = plan_for(small_scene(), trials=2, seed=3)
        values = [-0.3, 0.1, 0.45]
        header, *rows = sweep(plan, axis, values=values).splitlines()
        assert len(rows) == len(values)
        for value, row in zip(values, rows):
            assert sweep(plan, axis, values=[value]).splitlines() == [header, row]

    @pytest.mark.parametrize("axis", ["doppler", "angle", "snr"])
    def test_grid_axis_needs_values(self, axis):
        with pytest.raises(ValueError, match="grid values"):
            sweep(plan_for(small_scene(), trials=1), axis)

    @pytest.mark.parametrize("pfa_list", [None, ()], ids=["none", "empty"])
    def test_snr_axis_needs_false_alarm_rates(self, pfa_list):
        with pytest.raises(ValueError, match="false-alarm rates"):
            sweep(plan_for(small_scene(), trials=1), "snr", values=[0.0], pfa_list=pfa_list)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            sweep(plan_for(small_scene(), trials=1), "frequency")

    @pytest.mark.parametrize("axis,values,columns",
                             [("doppler", [-0.2, 0.3], len(ANGLE_MARGIN_GRID)),
                              ("angle", [0.1, 0.4, 0.7], len(DOPPLER_MARGIN_GRID))])
    def test_truth_quad_is_formed_once_per_row(self, monkeypatch, axis, values, columns):
        # the truth's y^H R^{-1} y of a row's steering vectors is the same in
        # every trial and for both estimators
        shapes = []
        quad_inv = SpikedCovariance.quad_inv

        def counted(model, y):
            shapes.append(np.shape(y))
            return quad_inv(model, y)

        monkeypatch.setattr(SpikedCovariance, "quad_inv", counted)
        scn = small_scene()
        sweep(plan_for(scn, trials=3), axis, values=values)
        assert shapes.count((scn.p, columns)) == len(values)


class TestReductionsOfR:
    """A sweep reduces the p x p R once, in its sampler; the spikes come from the m x m Gram."""

    @pytest.mark.parametrize(
        "axis,values,pfa_list,gram_reductions",
        [("n", [64, 160], None, 1), ("snr", [0.0, 10.0], (1e-1, 1e-2), 2)],
        ids=["n", "snr"],
    )
    def test_one_p_by_p_reduction_before_the_trials(self, monkeypatch, axis, values, pfa_list,
                                                    gram_reductions):
        # each reduction's input shape and whether it is reduced in place,
        # and None where a draw starts
        shapes = []
        reduce, draw = rmt.eigh, SnapshotSampler.draw

        def recorded(matrix, overwrite_a=False):
            shapes.append((np.shape(matrix), overwrite_a))
            return reduce(matrix, overwrite_a)

        def marked(sampler, *args, **kwargs):
            shapes.append(None)
            return draw(sampler, *args, **kwargs)

        monkeypatch.setattr(rmt, "eigh", recorded)
        monkeypatch.setattr(scenario, "eigh", recorded)
        monkeypatch.setattr(SnapshotSampler, "draw", marked)
        scn = small_scene()
        plan = plan_for(scn, trials=2, seed=1)
        sweep(plan, axis, values=values, pfa_list=pfa_list)
        p, m = scn.p, scn.clutter.rank
        setup = shapes[: shapes.index(None)]
        # R and the Grams keep the copying default
        assert sorted(setup) == [((m, m), False)] * gram_reductions + [((p, p), False)]
        # every later reduction is a trial's SCM, one per estimate or per
        # detect, and reduced in place: nothing else reads it
        per_trial = len(values) * len(pfa_list or [None])
        trials = [s for s in shapes[len(setup):] if s is not None]
        assert trials == [((p, p), True)] * per_trial * plan.trials


def dense_colouring_factor(r):
    """V diag(sqrt(lam)): the sampler's basis and clipped eigenvalues, multiplied out."""
    lam = eigh(r).eigenvalues
    lam = np.where(lam > 1e-13 * lam.max(), lam, 0.0)
    return np.linalg.eigh((r + r.conj().T) / 2.0)[1][:, ::-1] * np.sqrt(lam)


def original_frame_rows(plan, axis, values):
    """The averaged sweep columns, computed in the scene's own frame.

    Each trial colours its white draw with the dense factor V diag(sqrt(lam)),
    every metric scores against R itself, read through dense solves, and
    the steering vectors enter unrotated: the pipeline the eigenbasis sweep
    must reproduce.
    """
    scn = plan.scenario
    r = synthesize_clutter_covariance(scn)
    spiked = truth_spiked_model(scn, r)
    factor = dense_colouring_factor(r)
    truth = DenseTruth(r)
    s = steering_vector(plan.target)
    mvdr_truth = mvdr_error_variance(truth, s)
    rows = []
    for value in values:
        if axis == "n":
            n, specs = int(value), [plan.target]
        elif axis == "doppler":
            n, specs = scn.n, [SteeringSpec(th, value, scn.N, scn.K) for th in ANGLE_MARGIN_GRID]
        else:
            n, specs = scn.n, [SteeringSpec(value, fd, scn.N, scn.K) for fd in DOPPLER_MARGIN_GRID]
        s_mat = np.column_stack([steering_vector(spec) for spec in specs])
        quad = truth.quad_inv(s_mat)
        ratio = AspectRatio(scn.p, n)
        total = np.zeros(7)
        for t in range(plan.trials):
            dec = eigh(sample_covariance(factor @ complex_normal(substream(plan.seed, t), scn.p, n)))
            shrunk = shrink_spectrum(dec, ratio)
            clipped = rcml_estimate(dec, shrunk.sigma2, shrunk.r)
            total += [
                np.mean(normalized_scnr_batch(shrunk, truth, s_mat, quad)),
                np.mean(normalized_scnr_batch(clipped, truth, s_mat, quad)),
                kantorovich_bound(spiked, shrunk, ratio.gamma),
                mvdr_error_variance(shrunk, s) / mvdr_truth,
                mvdr_error_variance(clipped, s) / mvdr_truth,
                stein_loss(truth, shrunk),
                stein_loss(truth, clipped),
            ]
        rows.append(total / plan.trials)
    return np.array(rows)


class TestEigenbasisEquivalence:
    """The eigenbasis sweep equals the original-frame pipeline up to roundoff."""

    @pytest.mark.parametrize(
        "axis,values",
        [("n", [64, 160]), ("doppler", [-0.3, 0.1, 0.45]), ("angle", [-0.6, 0.5])],
    )
    def test_sweep_rows_match_the_original_frame(self, axis, values):
        plan = plan_for(small_scene(), trials=2, seed=4)
        header, rows = parse_csv(sweep(plan, axis, values=values))
        ours = np.array([[float(v) for v in row[6:]] for row in rows])
        assert header[6:] == SWEEP_HEADER[6:] and ours.shape == (len(values), 7)
        np.testing.assert_allclose(ours, original_frame_rows(plan, axis, values), rtol=1e-9, atol=0)

    def test_snr_rows_match_the_original_frame(self):
        # the empirical Pd of each (SNR, p_fa) cell counts the same detections
        # as the original-frame pipeline: coloured draw, unrotated steering
        scn = small_scene()
        plan = plan_for(scn, trials=4, seed=4)
        # the 30 dB cell detects whatever the BLAS kernel's draws, so the
        # guard below does not rest on one kernel's low-SNR hits
        snr_grid, pfa_list = [-6.0, -3.0, 0.0, 3.0, 30.0], (1e-1, 1e-2)
        header, rows = parse_csv(sweep(plan, "snr", values=snr_grid, pfa_list=pfa_list))
        factor = dense_colouring_factor(synthesize_clutter_covariance(scn))
        s = steering_vector(plan.target)
        want = []
        for snr_db in snr_grid:
            amp = amplitude_for_snr(snr_db, scn.sigma2, scn.N, scn.K)
            hits = dict.fromkeys(pfa_list, 0)
            for t in range(plan.trials):
                snaps = factor @ complex_normal(substream(plan.seed, t), scn.p, scn.n + 1)
                y = inject_target(snaps[:, -1], s, amp)
                for pfa in pfa_list:
                    hits[pfa] += detect(snaps[:, :-1], y, s, None, pfa).decision
            want += [hits[pfa] for pfa in pfa_list]
        got = [round(float(row[2]) * plan.trials) for row in rows]
        assert got == want and 0 < sum(want) < len(want) * plan.trials

    @pytest.mark.parametrize("rank", [None, 2, 0])
    @pytest.mark.parametrize("stream", [0, 1])
    def test_detect_statistic_matches_the_original_frame(self, rank, stream):
        scn = small_scene()
        plan = plan_for(scn)
        r = synthesize_clutter_covariance(scn)
        sampler = SnapshotSampler(r)
        s = steering_vector(plan.target)
        amp = 0.4
        snaps = dense_colouring_factor(r) @ complex_normal(substream(12, stream), scn.p, scn.n + 1)
        original = detect(snaps[:, :-1], inject_target(snaps[:, -1], s, amp), s, rank, 1e-2)
        s_rot = sampler.to_eigenbasis(s)
        w = sampler.draw(scn.n + 1, 12, stream)
        rotated = detect(w[:, :-1], inject_target(w[:, -1], s_rot, amp), s_rot, rank, 1e-2)
        assert rotated.statistic == pytest.approx(original.statistic, rel=1e-9)
        assert rotated.raw_statistic == pytest.approx(original.raw_statistic, rel=1e-9)
        assert rotated.decision == original.decision


class TestTrialWorkingSet:
    """What a sweep holds while its trials run: no p x p array of the truth."""

    # p = 256 and n = 2p: a p x p complex array is a quarter of the draw
    @pytest.mark.parametrize(
        "axis,values,held_columns",
        [("n", [512], 1), ("doppler", [0.1], len(ANGLE_MARGIN_GRID) + 1),
         ("angle", [0.3], len(DOPPLER_MARGIN_GRID) + 1), ("snr", [0.0], 2)],
        ids=["n", "doppler", "angle", "snr"],
    )
    def test_trials_hold_no_p_by_p_array(self, monkeypatch, axis, values, held_columns):
        sigma2 = 0.5
        scatterers = tuple(
            Scatterer(amplitude=np.sqrt(s * sigma2), theta=t, doppler=np.sin(t) / 2)
            for s, t in zip([400.0, 150.0], [-0.35, 0.4])
        )
        scn = ScenarioConfig(N=8, K=32, n=512, sigma2=sigma2,
                             clutter=ScattererClutter(scatterers), seed=9)
        p, n = scn.p, scn.n
        plan = plan_for(scn, trials=2, seed=3)
        live = []  # traced bytes as each draw starts: what the trials hold
        draw = SnapshotSampler.draw

        def watched(sampler, *args, **kwargs):
            if not live:
                tracemalloc.reset_peak()  # the peak from the first draw on
            live.append(tracemalloc.get_traced_memory()[0])
            return draw(sampler, *args, **kwargs)

        monkeypatch.setattr(SnapshotSampler, "draw", watched)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sweep(plan, axis, values=values, pfa_list=(1e-2,) if axis == "snr" else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        square = p * p * 16
        # the steering vectors (the target rotated, and a row's grid; on the
        # snr axis the target in R's frame too, for theoretical_pd) and, on
        # the snr axis, R's two leading eigenvectors
        held = (held_columns + 2 * (axis == "snr")) * p * 16
        assert len(live) == plan.trials
        assert max(live) - before <= held + square / 2
        # eigh reduces each SCM in place, so a trial holds one p x p array
        if axis == "snr":
            # the draw lives through detect, which forms its SCM, reduces it
            # and solves for the leading vectors in dstemr's p x p float block
            steps = p * (n + 1) * 16 + square + p * p * 8
        else:
            # the draw is freed once its SCM is formed
            steps = p * n * 16 + square
        assert peak - before <= held + steps + square / 2

    def test_n_axis_rows_are_made_as_they_are_reached(self, monkeypatch):
        # a 10^5-row n grid holds one row at a time: stopped at its third
        # draw, the sweep has used what a three-row grid would
        class Stop(Exception):
            pass

        draws = []
        draw = SnapshotSampler.draw

        def stopping(sampler, *args, **kwargs):
            draws.append(args)
            if len(draws) == 3:
                raise Stop
            return draw(sampler, *args, **kwargs)

        monkeypatch.setattr(SnapshotSampler, "draw", stopping)
        scn = ScenarioConfig(N=2, K=8, n=32, sigma2=1.0, seed=4, clutter=ScattererClutter(
            (Scatterer(amplitude=4.0, theta=0.2, doppler=0.1),)))
        assert scn.p == 16
        rows = 10**5
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with pytest.raises(Stop):
                sweep(plan_for(scn, trials=1, seed=2), "n", values=range(32, 32 + 16 * rows, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [args[0] for args in draws] == [32, 48, 64]
        assert peak - before < 1e6
