import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluttercov import (
    ModelOrderWarning,
    Scatterer,
    ScattererClutter,
    ScenarioConfig,
    SceneOverflowError,
    SnapshotSampler,
    SpikedModel,
    SteeringSpec,
    ToeplitzClutter,
    amplitude_for_snr,
    challenge_synthetic,
    eigh,
    inject_target,
    preset,
    steering_vector,
    synthesize_clutter_covariance,
    truth_spiked_model,
)
from cluttercov import rng as rng_module
from cluttercov import scenario
from cluttercov.rng import complex_normal, substream
from cluttercov.validate import ANGLE_MARGIN_GRID, DOPPLER_MARGIN_GRID


class TestSteeringVector:
    def test_zero_phases_all_ones(self):
        v = steering_vector(SteeringSpec(theta=0.0, doppler=0.0, N=4, K=8))
        np.testing.assert_allclose(v, np.ones(32))

    def test_hand_enumerated_2x2(self):
        spec = SteeringSpec(theta=np.pi / 2, doppler=0.25, N=2, K=2)
        a_th = np.exp(-1j * np.pi * np.array([1, 2]) * 1.0)  # sin(pi/2) = 1
        a_fd = np.exp(-2j * np.pi * np.array([1, 2]) * 0.25)
        expected = np.kron(a_th, a_fd)
        np.testing.assert_allclose(steering_vector(spec), expected, atol=1e-15)

    @given(
        st.floats(min_value=-1.5, max_value=1.5),
        st.floats(min_value=-0.5, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_is_dimension(self, theta, doppler):
        spec = SteeringSpec(theta=theta, doppler=doppler, N=3, K=5)
        v = steering_vector(spec)
        assert np.linalg.norm(v) ** 2 == pytest.approx(15.0, rel=1e-12)

    def test_paper_grids_not_collinear(self):
        N, K = 4, 8
        specs = [
            SteeringSpec(th, fd, N, K)
            for th in ANGLE_MARGIN_GRID[::30]
            for fd in DOPPLER_MARGIN_GRID[::3]
        ]
        vecs = [steering_vector(s) for s in specs]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                assert abs(np.vdot(vecs[i], vecs[j])) < N * K - 1e-9


class TestSynthesizeClutterCovariance:
    def test_no_clutter_gives_noise_identity(self):
        cfg = ScenarioConfig(N=2, K=2, n=64, sigma2=0.5)
        np.testing.assert_allclose(synthesize_clutter_covariance(cfg), 0.5 * np.eye(4))

    def test_single_unit_tap_hand_eigenvalues(self):
        cfg = ScenarioConfig(
            N=2, K=2, n=64, sigma2=0.1, clutter=ToeplitzClutter(taps=[1.0], pulse_len=1)
        )
        with pytest.warns(ModelOrderWarning):  # rank 1 > floor(0.1 * 4)
            r = synthesize_clutter_covariance(cfg)
        lam = eigh(r).eigenvalues
        np.testing.assert_allclose(lam, [1.1, 0.1, 0.1, 0.1], atol=1e-12)

    def test_spiked_shortcut_spectrum(self):
        model = SpikedModel(p=32, sigma2=1.0, spikes=np.array([5.0, 3.0]))
        cfg = ScenarioConfig(N=4, K=8, n=128, sigma2=1.0, clutter=model)
        r = synthesize_clutter_covariance(cfg)
        lam = eigh(r).eigenvalues
        np.testing.assert_allclose(lam[:2], [5.0, 3.0], atol=1e-10)
        np.testing.assert_allclose(lam[2:], 1.0, atol=1e-10)

    def test_spiked_shortcut_exact_definition(self):
        model = SpikedModel(p=40, sigma2=2.0, spikes=np.array([9.0, 7.0, 5.0]))
        cfg = ScenarioConfig(N=5, K=8, n=200, sigma2=2.0, clutter=model)
        spiked = truth_spiked_model(cfg)
        assert spiked is model
        lam = eigh(synthesize_clutter_covariance(cfg)).eigenvalues
        assert np.sum(lam > 2.0 + 1e-8) == 3
        np.testing.assert_allclose(lam[3:], 2.0, atol=1e-9)

    def test_scatterers_rank(self):
        scat = ScattererClutter(
            (
                Scatterer(amplitude=2.0, theta=0.3, doppler=0.1),
                Scatterer(amplitude=1.0, theta=-0.4, doppler=-0.2),
            )
        )
        cfg = ScenarioConfig(N=4, K=8, n=128, sigma2=0.01, clutter=scat)
        lam = eigh(synthesize_clutter_covariance(cfg)).eigenvalues
        assert np.sum(lam > 0.011) == 2

    def test_pulse_len_sets_toeplitz_rank(self):
        clutter = ToeplitzClutter(taps=[10.0, 5.0, 2.5], pulse_len=8)
        cfg = ScenarioConfig(N=8, K=16, n=512, sigma2=0.1, clutter=clutter)
        assert truth_spiked_model(cfg).r == 8

    def test_long_impulse_response_warns(self):
        cfg = ScenarioConfig(
            N=4,
            K=8,
            n=128,
            sigma2=0.1,
            clutter=ToeplitzClutter(taps=np.ones(8), pulse_len=32),
        )
        with pytest.warns(ModelOrderWarning):
            synthesize_clutter_covariance(cfg)

    def test_pulse_longer_than_p_gives_the_same_covariance(self):
        # columns of H at p and beyond are zero; none of them is built
        def covariance(pulse_len):
            clutter = ToeplitzClutter(taps=[10.0, 5.0 - 2.0j, 2.5], pulse_len=pulse_len)
            cfg = ScenarioConfig(N=2, K=8, n=64, sigma2=0.1, clutter=clutter)
            with pytest.warns(ModelOrderWarning):
                return synthesize_clutter_covariance(cfg)

        np.testing.assert_array_equal(covariance(10**12), covariance(16))

    @pytest.mark.parametrize("tap", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_nonfinite_tap_rejected(self, tap):
        with pytest.raises(ValueError, match="taps must be finite"):
            ToeplitzClutter(taps=[1.0, tap], pulse_len=2)

    @pytest.mark.parametrize(
        "clutter",
        [
            ToeplitzClutter(taps=[1e200, 0.0], pulse_len=1),
            ScattererClutter((
                Scatterer(amplitude=1.3e154, theta=0.1, doppler=0.1),
                Scatterer(amplitude=1.3e154, theta=-0.2, doppler=0.3),
            )),
        ],
        ids=["taps", "scatterers"],
    )
    def test_overflowing_covariance_is_named_without_a_warning(self, clutter):
        # every scene number is finite; R = R_c + sigma2 I is not
        cfg = ScenarioConfig(N=2, K=8, n=64, sigma2=1.0, clutter=clutter)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SceneOverflowError, match="overflows"):
                synthesize_clutter_covariance(cfg)
        assert issubclass(SceneOverflowError, ValueError)

    def test_empirical_covariance_matches_truth(self):
        # spectral-norm agreement within 10% at n = 50 p
        cfg = challenge_synthetic(n=64 * 50)
        cfg = ScenarioConfig(
            N=4, K=16, n=64 * 50, sigma2=1e-3,
            clutter=ScattererClutter(
                tuple(
                    Scatterer(amplitude=np.sqrt(s * 1e-3), theta=t, doppler=np.sin(t) / 2)
                    for s, t in zip([300.0, 100.0, 30.0], [-0.5, 0.1, 0.6])
                )
            ),
        )
        truth = synthesize_clutter_covariance(cfg)
        snaps = SnapshotSampler(truth).draw(cfg.n, seed=31)
        emp = snaps @ snaps.conj().T / cfg.n
        err = np.linalg.norm(emp - truth, 2) / np.linalg.norm(truth, 2)
        assert err < 0.10


class TestSampleSnapshots:
    def test_identity_covariance_moments(self):
        p, n = 4, 100_000
        snaps = SnapshotSampler(np.eye(p)).draw(n, seed=32)
        emp = snaps @ snaps.conj().T / n
        assert np.abs(emp - np.eye(p)).max() < 0.02

    def test_seeded_determinism_byte_identical(self):
        r = np.diag([3.0, 1.0, 1.0])
        a = SnapshotSampler(r).draw(50, seed=33)
        b = SnapshotSampler(r).draw(50, seed=33)
        assert a.tobytes() == b.tobytes()
        c = SnapshotSampler(r).draw(50, seed=34)
        assert a.tobytes() != c.tobytes()

    def test_rank_one_covariance_colinear_snapshots(self):
        v = np.array([1.0, 1j, -1.0, -1j]) / 2.0
        r = np.outer(v, v.conj())
        snaps = SnapshotSampler(r).draw(20, seed=35)
        for k in range(20):
            z = snaps[:, k]
            # every snapshot proportional to v
            assert np.linalg.norm(z - v * np.vdot(v, z)) < 1e-10

    def test_factor_is_lapack_basis_of_symmetrized_input(self):
        # every draw rests on this factor: LAPACK's full basis of (R + R^H)/2,
        # reversed, times the square roots of the clipped ``eigh`` eigenvalues
        rng = substream(39, 0)
        z = rng.standard_normal((48, 24)) + 1j * rng.standard_normal((48, 24))
        r = z @ z.conj().T / 24  # rank 24, so the clip zeroes half the spectrum
        r[0, 1] += 1e-13  # within the Hermitian tolerance: symmetrized away
        lam = eigh(r).eigenvalues
        lam = np.where(lam > 1e-13 * lam.max(), lam, 0.0)
        assert np.count_nonzero(lam) == 24
        ref = np.linalg.eigh((r + r.conj().T) / 2.0)[1][:, ::-1] * np.sqrt(lam)
        sampler = SnapshotSampler(r)
        assert sampler._factor.shape == ref.shape
        assert sampler._factor.tobytes() == ref.tobytes()
        draw = ref @ complex_normal(substream(40, 2), 48, 16)
        assert sampler.draw(16, seed=40, stream=2).tobytes() == draw.tobytes()

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            SnapshotSampler(np.diag([1.0, -0.5])).draw(10, seed=0)

    def test_circular_symmetry_convention(self):
        # E[z z^T] = 0: real and imaginary parts carry half the power each
        z = SnapshotSampler(np.eye(2) * 4.0).draw(200_000, seed=36)
        pseudo = z @ z.T / z.shape[1]
        assert np.abs(pseudo).max() < 0.05
        assert abs(np.mean(np.abs(z[0]) ** 2) - 4.0) < 0.05


def old_complex_draw(rng, p, n):
    """The draw expression the in-place ``complex_normal`` replaced."""
    return (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2.0)


def two_call_complex_draw(rng, p, n):
    """The unblocked in-place build: each part filled by one p x n draw."""
    w = np.empty((p, n), dtype=complex)
    w.real = rng.standard_normal((p, n))
    w.imag = rng.standard_normal((p, n))
    return np.divide(w, np.sqrt(2.0), out=w)


class TestComplexNormal:
    def test_bitwise_equal_to_the_expression(self):
        ours = complex_normal(substream(37, 4), 24, 50)
        ref = old_complex_draw(substream(37, 4), 24, 50)
        assert ours.dtype == ref.dtype and ours.shape == (24, 50)
        assert ours.tobytes() == ref.tobytes()

    # with a 96-element chunk: several rows a block, a partial last block,
    # one row a block (n above the chunk), and degenerate shapes
    @pytest.mark.parametrize("p,n", [(24, 50), (7, 11), (5, 97), (3, 400), (1, 1), (0, 3), (3, 0)])
    def test_blocked_fill_bitwise_equal_to_the_two_call_build(self, monkeypatch, p, n):
        monkeypatch.setattr(rng_module, "_FILL_CHUNK", 96)
        ours = complex_normal(substream(41, p, n), p, n)
        ref = two_call_complex_draw(substream(41, p, n), p, n)
        assert ours.shape == (p, n) and ours.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p,n", [(256, 512), (4, 3 * rng_module._FILL_CHUNK)],
                             ids=["many-rows-a-chunk", "n-above-the-chunk"])
    def test_working_set_is_the_output_plus_one_chunk(self, peak_bytes, p, n):
        chunk = max(rng_module._FILL_CHUNK // n, 1) * n * 8
        budget = p * n * 16 + chunk
        assert peak_bytes(complex_normal, substream(42, 0), p, n) <= 1.1 * budget

    def test_sampler_draw_pinned_to_the_expression(self, monkeypatch):
        sampler = SnapshotSampler(synthesize_clutter_covariance(challenge_synthetic()))
        ours = sampler.draw(64, seed=38, stream=2)
        monkeypatch.setattr(scenario, "complex_normal", old_complex_draw)
        assert ours.tobytes() == sampler.draw(64, seed=38, stream=2).tobytes()


class TestInjectTarget:
    def test_zero_amplitude_unchanged(self):
        snaps = np.zeros((8, 5), dtype=complex)
        out = inject_target(snaps, SteeringSpec(0.2, 0.1, 2, 4), 0.0)
        np.testing.assert_array_equal(out, snaps)

    def test_exact_on_noiseless_cube(self):
        spec = SteeringSpec(0.3, -0.2, 2, 4)
        out = inject_target(np.zeros((8, 5), dtype=complex), spec, 2.0 - 1.0j)
        np.testing.assert_allclose(out[:, -1], (2 - 1j) * steering_vector(spec))

    def test_training_untouched(self):
        rng = np.random.default_rng(0)
        snaps = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        before = snaps.copy()
        out = inject_target(snaps, SteeringSpec(0.0, 0.0, 2, 4), 1.0)
        np.testing.assert_array_equal(out[:, :-1], snaps[:, :-1])
        assert not np.array_equal(out[:, -1], snaps[:, -1])
        np.testing.assert_array_equal(snaps, before)  # a copy: the input is not modified

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="steering dimension"):
            inject_target(np.zeros((6, 5), dtype=complex), SteeringSpec(0.0, 0.0, 2, 4), 1.0)

    def test_snr_bookkeeping(self):
        sigma2, N, K = 0.7, 4, 8
        for snr_db in (-10.0, 0.0, 17.5, 30.0):
            h = amplitude_for_snr(snr_db, sigma2, N, K)
            snr = abs(h) ** 2 * N * K / sigma2
            assert abs(snr - 10 ** (snr_db / 10)) < 1e-12 * snr

    @pytest.mark.parametrize("snr_db", [1e300, 3100.0, np.inf, np.nan])
    def test_nonfinite_amplitude_rejected(self, snr_db):
        with pytest.raises(ValueError, match="non-finite"):
            amplitude_for_snr(snr_db, 0.7, 4, 8)


class TestPresets:
    def test_challenge_synthetic_dimensions(self):
        cfg = preset("challenge-synthetic")
        assert cfg.p == 512
        assert cfg.N == 8 and cfg.K == 64
        assert cfg.sigma2 == 5e-14
        assert cfg.n == 2335
        assert cfg.clutter.rank == 25

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("no-such-scene")

    def test_preset_spiked_and_strong(self):
        cfg = challenge_synthetic(n=1024)
        truth = synthesize_clutter_covariance(cfg)
        lam = eigh(truth).eigenvalues
        spikes = lam[lam > cfg.sigma2 * 1.5]
        assert 20 <= spikes.size <= 25  # nearly aligned scatterers may merge
        assert spikes.min() / cfg.sigma2 > 4.0
