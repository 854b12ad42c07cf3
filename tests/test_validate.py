import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cluttercov import (
    Scatterer,
    ScattererClutter,
    ScenarioConfig,
    SpikedModel,
    SteeringSpec,
    TrialPlan,
    clt_params,
    ks_two_sample,
    shrink_whitened,
    sweep,
    verify_clt,
)
from cluttercov.rng import substream
from cluttercov.validate import DETECTION_HEADER, SWEEP_HEADER


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


class TestVerifyClt:
    def test_degenerate_two_trials(self):
        model = SpikedModel(p=40, sigma2=1.0, spikes=np.array([6.0]))
        res = verify_clt(model, gamma=0.2, p=40, trials=2, seed=1)
        assert len(res) == 1
        assert res[0].ks.n1 == 2
        assert 0.0 <= res[0].ks.p_value <= 1.0

    def test_subcritical_rejected(self):
        model = SpikedModel(p=40, sigma2=1.0, spikes=np.array([1.3]))
        with pytest.raises(ValueError, match="sub-critical"):
            verify_clt(model, gamma=0.2, p=40, trials=4, seed=1)

    def test_near_critical_reported_not_asserted(self):
        gamma = 0.2
        ell = 1 + np.sqrt(gamma) + 0.01
        model = SpikedModel(p=60, sigma2=1.0, spikes=np.array([ell]))
        res = verify_clt(model, gamma=gamma, p=60, trials=64, seed=2)
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
        model = SpikedModel(p=p, sigma2=1.0, spikes=ells)
        res = verify_clt(model, gamma=gamma, p=p, trials=trials, seed=seed, ensemble=ensemble)
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
            prm = clt_params(ell, g)
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
        model = SpikedModel(p=100, sigma2=1.0, spikes=np.array([4.0]))
        res = verify_clt(model, gamma=0.25, p=100, trials=128, seed=4)
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


class TestSweep:
    def test_zero_trials_header_only(self):
        plan = TrialPlan(scenario=small_scene(), trials=0, seed=0)
        header, rows = parse_csv(sweep(plan, "n"))
        assert header == SWEEP_HEADER
        assert rows == []
        header, rows = parse_csv(sweep(plan, "snr"))
        assert header == DETECTION_HEADER
        assert rows == []

    def test_n_axis_estimators_agree(self):
        plan = TrialPlan(scenario=small_scene(), trials=6, seed=5)
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
        plan = TrialPlan(scenario=cfg, trials=4, seed=6)
        values = np.linspace(-0.5, 0.5, 21)
        header, rows = parse_csv(sweep(plan, "doppler", values=values))
        rho = np.array([float(r[6]) for r in rows])
        vals = np.array([float(r[2]) for r in rows])
        ridge = np.abs(vals - 0.25) < 0.08
        assert rho[ridge].min() < rho[~ridge].mean() - 0.02

    def test_determinism_byte_identical(self):
        plan = TrialPlan(scenario=small_scene(n=64), trials=3, seed=7)
        a = sweep(plan, "n", values=[64])
        b = sweep(plan, "n", values=[64])
        assert a == b

    def test_snr_axis_schema(self):
        cfg = ScenarioConfig(N=2, K=8, n=64, sigma2=1.0, seed=3, name="clean")
        plan = TrialPlan(scenario=cfg, trials=50, seed=8)
        header, rows = parse_csv(
            sweep(plan, "snr", values=[0.0, 10.0], pfa_list=(1e-1, 1e-2), rank=0)
        )
        assert header == DETECTION_HEADER
        assert len(rows) == 4
        for r in rows:
            emp, theo = float(r[2]), float(r[3])
            assert 0.0 <= emp <= 1.0
            assert 0.0 <= theo <= 1.0

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            sweep(TrialPlan(scenario=small_scene(), trials=1), "frequency")
