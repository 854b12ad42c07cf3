import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluttercov import (
    ConfigError,
    ModelOrderWarning,
    Scatterer,
    ScattererClutter,
    ScenarioConfig,
    SceneOverflowError,
    SnapshotSampler,
    SpikedClutter,
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
from oracles import dense_clutter_covariance


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

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_nonfinite_angle_rejected(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            SteeringSpec(theta=theta, doppler=0.1, N=2, K=2)


TAPS = [1.0, 0.5j, -0.2, 0.1 + 0.1j]
SYNTHESIS_SCENES = {
    "preset": challenge_synthetic(),
    "scatterers": ScenarioConfig(
        N=5, K=33, n=660, sigma2=0.3,
        clutter=ScattererClutter((Scatterer(-3.0, 0.3, -0.2), Scatterer(0.5, -1.0, 0.5))),
    ),
    "toeplitz": ScenarioConfig(N=3, K=47, n=600, sigma2=0.3,
                               clutter=ToeplitzClutter(taps=TAPS, pulse_len=5)),
    "toeplitz-pulse-above-p": ScenarioConfig(N=3, K=47, n=600, sigma2=0.3,
                                             clutter=ToeplitzClutter(taps=TAPS, pulse_len=300)),
    "spiked": ScenarioConfig(N=2, K=50, n=400, sigma2=0.3,
                             clutter=SpikedClutter(np.array([9.0, 4.0]))),
    "none": ScenarioConfig(N=2, K=65, n=520, sigma2=0.3),
}


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

    def test_spiked_clutter_spectrum(self):
        cfg = ScenarioConfig(N=4, K=8, n=128, sigma2=1.0, clutter=SpikedClutter([5.0, 3.0]))
        r = synthesize_clutter_covariance(cfg)
        lam = eigh(r).eigenvalues
        np.testing.assert_allclose(lam[:2], [5.0, 3.0], atol=1e-10)
        np.testing.assert_allclose(lam[2:], 1.0, atol=1e-10)

    @pytest.mark.parametrize(
        "spikes,match",
        [([3.0, 1.0], "noise floor"), ([2.0, 3.0], "descending"), ([np.inf], "finite"),
         ([9.0, 8.0, 7.0, 6.0], "< p")],
        ids=["at-floor", "ascending", "infinite", "as-many-as-p"],
    )
    def test_spiked_clutter_checked_against_the_scene(self, spikes, match):
        with pytest.raises(ValueError, match=match):
            ScenarioConfig(N=2, K=2, n=16, sigma2=1.0, clutter=SpikedClutter(spikes))

    def test_spiked_clutter_truth_is_its_spikes(self):
        cfg = ScenarioConfig(N=5, K=8, n=200, sigma2=2.0, clutter=SpikedClutter([9.0, 7.0, 5.0]))
        spiked = truth_spiked_model(cfg)
        assert spiked.p == 40 and spiked.sigma2 == 2.0
        np.testing.assert_allclose(spiked.spikes, [9.0, 7.0, 5.0], rtol=1e-12)
        np.testing.assert_array_equal(spiked.vectors, np.eye(40, 3))
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

    @pytest.mark.parametrize("pulse_len", [32, 40])
    def test_clutter_filling_every_dimension_has_no_spiked_truth(self, pulse_len):
        clutter = ToeplitzClutter(taps=[3.0 + 1.0j], pulse_len=pulse_len)
        cfg = ScenarioConfig(N=4, K=8, n=64, sigma2=1.0, clutter=clutter)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelOrderWarning)
            with pytest.raises(ConfigError, match="clutter rank 32 fills all p = 32"):
                truth_spiked_model(cfg)

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

    # p is not a multiple of the 64-row block but for the preset
    @pytest.mark.parametrize("name", list(SYNTHESIS_SCENES))
    def test_bitwise_the_dense_expression(self, name):
        # every Monte Carlo output rests on these bits
        cfg = SYNTHESIS_SCENES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelOrderWarning)
            ours = synthesize_clutter_covariance(cfg)
        ref = dense_clutter_covariance(cfg)
        assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "clutter,squares",
        [(challenge_synthetic().clutter, 2), (ToeplitzClutter(taps=TAPS, pulse_len=5), 2),
         (ToeplitzClutter(taps=TAPS, pulse_len=600), 3)],
        ids=["scatterers", "toeplitz", "toeplitz-pulse-above-p"],
    )
    def test_working_set_is_r_c_and_r(self, peak_bytes, clutter, squares):
        # R_c and R, a few 64-row blocks, and for a pulse of length p or more
        # the p x p response H, alive while H H^H is formed
        cfg = ScenarioConfig(N=8, K=64, n=1024, sigma2=5e-14, clutter=clutter)
        p = cfg.p
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelOrderWarning)
            peak = peak_bytes(synthesize_clutter_covariance, cfg)
        assert peak <= (squares * p * p + 4 * 64 * p) * 16

    def test_empirical_covariance_matches_truth(self):
        # spectral-norm agreement within 10% at n = 50 p, in the original frame
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
        sampler = SnapshotSampler(truth)
        snaps = sampler.from_eigenbasis(sampler.draw(cfg.n, seed=31))
        emp = snaps @ snaps.conj().T / cfg.n
        err = np.linalg.norm(emp - truth, 2) / np.linalg.norm(truth, 2)
        assert err < 0.10


def random_covariance(seed, p, rank):
    """A p x p covariance of the given rank, from a seeded complex draw."""
    rng = substream(seed, 0)
    z = rng.standard_normal((p, rank)) + 1j * rng.standard_normal((p, rank))
    return z @ z.conj().T / rank


def dense_colouring_draw(covariance, n, seed, stream):
    """The original-frame draw V diag(sqrt(lam)) @ Z, with the sampler's V and clipped lam."""
    lam = eigh(covariance).eigenvalues
    lam = np.where(lam > 1e-13 * lam.max(), lam, 0.0)
    factor = np.linalg.eigh((covariance + covariance.conj().T) / 2.0)[1][:, ::-1] * np.sqrt(lam)
    return factor @ complex_normal(substream(seed, stream), covariance.shape[0], n)


class TestSampleSnapshots:
    def test_identity_covariance_moments(self):
        p, n = 4, 100_000
        sampler = SnapshotSampler(np.eye(p))
        snaps = sampler.from_eigenbasis(sampler.draw(n, seed=32))
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
        sampler = SnapshotSampler(r)
        snaps = sampler.from_eigenbasis(sampler.draw(20, seed=35))
        for k in range(20):
            z = snaps[:, k]
            # every snapshot proportional to v
            assert np.linalg.norm(z - v * np.vdot(v, z)) < 1e-10

    def test_root_and_draw_pinned_to_their_expressions(self):
        # every draw rests on the square roots of the clipped ``eigh`` eigenvalues
        r = random_covariance(39, 48, 24)  # rank 24, so the clip zeroes half the spectrum
        r[0, 1] += 1e-13  # within the Hermitian tolerance: symmetrized away
        lam = eigh(r).eigenvalues
        clipped = np.where(lam > 1e-13 * lam.max(), lam, 0.0)
        assert np.count_nonzero(clipped) == 24
        sampler = SnapshotSampler(r)
        assert sampler.root.tobytes() == np.sqrt(clipped).tobytes()
        draw = complex_normal(substream(40, 2), 48, 16) * np.sqrt(clipped)[:, None]
        assert sampler.draw(16, seed=40, stream=2).tobytes() == draw.tobytes()

    @pytest.mark.parametrize("rank", [48, 24], ids=["full-rank", "rank-deficient"])
    def test_draw_is_the_dense_colouring_in_the_eigenbasis(self, rank):
        r = random_covariance(43, 48, rank)
        sampler = SnapshotSampler(r)
        ours = sampler.from_eigenbasis(sampler.draw(16, seed=44, stream=3))
        ref = dense_colouring_draw(r, 16, seed=44, stream=3)
        assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_to_eigenbasis_is_the_conjugate_transpose_product(self):
        r = random_covariance(45, 32, 32)
        sampler = SnapshotSampler(r)
        x = complex_normal(substream(46, 0), 32, 5)
        basis = sampler.from_eigenbasis(np.eye(32))
        np.testing.assert_allclose(sampler.to_eigenbasis(x), basis.conj().T @ x,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(sampler.to_eigenbasis(x[:, 0]), basis.conj().T @ x[:, 0],
                                   rtol=0, atol=1e-14)
        # in that frame R is diagonal: V^H R V = diag(lam)
        lam = eigh(r).eigenvalues
        rotated = sampler.to_eigenbasis(sampler.to_eigenbasis(r).conj().T)
        np.testing.assert_allclose(rotated, np.diag(lam), rtol=0, atol=1e-12 * lam.max())
        for bad in (np.ones(31), np.ones((31, 2)), np.ones((32, 2, 2))):
            with pytest.raises(ValueError):
                sampler.to_eigenbasis(bad)
            with pytest.raises(ValueError):
                sampler.from_eigenbasis(bad)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            SnapshotSampler(np.diag([1.0, -0.5])).draw(10, seed=0)

    def test_circular_symmetry_convention(self):
        # E[z z^T] = 0: real and imaginary parts carry half the power each
        r = np.array([[4.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]])
        sampler = SnapshotSampler(r)
        z = sampler.from_eigenbasis(sampler.draw(200_000, seed=36))
        pseudo = z @ z.T / z.shape[1]
        assert np.abs(pseudo).max() < 0.05
        assert abs(np.mean(np.abs(z[0]) ** 2) - 4.0) < 0.05

    def test_training_block_and_test_cell_are_contiguous_views(self):
        n = 40
        w = SnapshotSampler(random_covariance(52, 16, 16)).draw(n + 1, seed=53)
        train, y = w[:, :n], w[:, n]
        assert w.flags.f_contiguous
        assert train.flags.f_contiguous and y.flags.c_contiguous
        assert np.shares_memory(train, w) and np.shares_memory(y, w)

    def test_draw_working_set_is_the_output_plus_one_chunk(self, peak_bytes):
        p, n = 256, 512
        sampler = SnapshotSampler(random_covariance(47, p, p))
        chunk = max(rng_module._FILL_CHUNK // n, 1) * n * 8
        assert peak_bytes(sampler.draw, n, 48) <= 1.1 * p * n * 16 + chunk

    # the preset's R has a 487-fold noise floor, whose basis is LAPACK's choice;
    # the others are full rank, complex and real, and rank 24 of 48
    @pytest.mark.parametrize("case", ["preset", "rank-deficient", "complex", "real"])
    def test_frame_is_lapacks_basis_of_the_symmetrized_covariance(self, case):
        if case == "preset":
            r = synthesize_clutter_covariance(challenge_synthetic())
        elif case == "rank-deficient":
            r = random_covariance(39, 48, 24)
        else:
            r = random_covariance(50, 3 * 64 + 7, 3 * 64 + 7)
            if case == "real":
                r = r.real
        r[0, 1] += 1e-13 * np.abs(r).max()  # within the Hermitian tolerance: symmetrized away
        p = r.shape[0]
        ref = np.linalg.eigh((r + r.conj().T) / 2.0)[1][:, ::-1]
        sampler = SnapshotSampler(r)
        basis = sampler.from_eigenbasis(np.eye(p))
        assert basis.dtype == ref.dtype
        # column for column, ties on the floor included
        assert np.abs(basis - ref).max() <= 1e-13
        x = complex_normal(substream(56, p), p, 3)
        np.testing.assert_allclose(sampler.to_eigenbasis(sampler.from_eigenbasis(x)), x,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(sampler.from_eigenbasis(sampler.to_eigenbasis(x[:, 0])),
                                   x[:, 0], rtol=0, atol=1e-13)

    def test_one_reduction_builds_the_sampler(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        reductions = []
        counted = scenario.eigh
        monkeypatch.setattr(np.linalg, "eigh", refused)
        monkeypatch.setattr(scenario, "eigh", lambda m: reductions.append(1) or counted(m))
        r = random_covariance(57, 40, 40)
        sampler = SnapshotSampler(r)
        x = complex_normal(substream(58, 0), 40, 2)
        back = sampler.from_eigenbasis(sampler.to_eigenbasis(x))
        assert len(reductions) == 1
        np.testing.assert_allclose(back, x, rtol=0, atol=1e-13)

    def test_released_basis(self):
        p = 256
        r = random_covariance(51, p, p)
        tracemalloc.start()
        try:
            sampler = SnapshotSampler(r)
            live = tracemalloc.get_traced_memory()[0]
            sampler.release_basis()
            freed = live - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        before = SnapshotSampler(r).draw(8, seed=52)
        assert freed >= p * p * 16
        big = [k for k, v in vars(sampler).items() if isinstance(v, np.ndarray) and v.size >= p * p]
        assert big == []
        assert sampler.draw(8, seed=52).tobytes() == before.tobytes()
        for rotation in (sampler.to_eigenbasis, sampler.from_eigenbasis):
            with pytest.raises(RuntimeError, match="released"):
                rotation(np.ones(p))

    def test_sampler_holds_the_reduction_and_then_z(self):
        # a sampler keeps the reduction of R, p x p complex, and p-vectors; its
        # first rotation adds Z, the tridiagonal's p x p real eigenvectors
        p = 256
        r = random_covariance(49, p, p)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            sampler = SnapshotSampler(r)
            held = tracemalloc.get_traced_memory()[0] - live
            sampler.to_eigenbasis(np.ones(p))
            rotated = tracemalloc.get_traced_memory()[0] - live
        finally:
            tracemalloc.stop()
        big = [k for k, v in vars(sampler).items() if isinstance(v, np.ndarray) and v.size >= p * p]
        assert big == []
        assert held <= 1.1 * p * p * 16
        assert rotated <= 1.1 * p * p * (16 + 8)


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
        # the values and their RNG order are those of (a + 1j * b) / sqrt(2)
        # with a, b drawn row-major; only the layout is column-major
        ours = complex_normal(substream(37, 4), 24, 50)
        ref = old_complex_draw(substream(37, 4), 24, 50)
        assert ours.dtype == ref.dtype and ours.shape == (24, 50)
        assert ours.flags.f_contiguous and not ours.flags.c_contiguous
        assert ours.tobytes(order="C") == ref.tobytes()

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

    # several rows a block with a partial last block, one row a block, and
    # scales with zeros (whose products keep numpy's signed zeros) and signs
    @pytest.mark.parametrize("p,n", [(24, 50), (7, 11), (3, 400), (1, 1), (0, 3)])
    def test_row_scale_bitwise_the_scaled_draw(self, monkeypatch, p, n):
        monkeypatch.setattr(rng_module, "_FILL_CHUNK", 96)
        scale = substream(43, p).standard_normal(p)
        scale[::3] = 0.0
        ours = complex_normal(substream(44, p, n), p, n, scale)
        ref = complex_normal(substream(44, p, n), p, n) * scale[:, None]
        assert ours.flags.f_contiguous and ours.shape == (p, n)
        assert ours.tobytes(order="C") == ref.tobytes(order="C")

    def test_sampler_draw_pinned_to_the_expression(self, monkeypatch):
        sampler = SnapshotSampler(synthesize_clutter_covariance(challenge_synthetic()))
        ours = sampler.draw(64, seed=38, stream=2)

        def old_draw(rng, p, n, row_scale):
            return old_complex_draw(rng, p, n) * row_scale[:, None]

        monkeypatch.setattr(scenario, "complex_normal", old_draw)
        assert ours.tobytes() == sampler.draw(64, seed=38, stream=2).tobytes()


class TestInjectTarget:
    def test_zero_amplitude_unchanged(self):
        y = np.zeros(8, dtype=complex)
        out = inject_target(y, steering_vector(SteeringSpec(0.2, 0.1, 2, 4)), 0.0)
        np.testing.assert_array_equal(out, y)

    def test_exact_on_noiseless_cube(self):
        s = steering_vector(SteeringSpec(0.3, -0.2, 2, 4))
        out = inject_target(np.zeros(8, dtype=complex), s, 2.0 - 1.0j)
        np.testing.assert_allclose(out, (2 - 1j) * s)

    @pytest.mark.parametrize("amp", [0.7, 2.0 - 1.0j])
    def test_bitwise_the_sum(self, amp):
        y = complex_normal(substream(54, 0), 8, 1)[:, 0]
        s = steering_vector(SteeringSpec(0.4, 0.3, 2, 4))
        assert inject_target(y, s, amp).tobytes() == (y + amp * s).tobytes()

    def test_training_untouched(self, peak_bytes):
        # the test cell of a draw gains the target in a new p-vector; the draw,
        # its training block and its test cell alike, is left as it was
        p, n = 512, 64
        w = SnapshotSampler(np.diag(np.linspace(1.0, 4.0, p))).draw(n + 1, seed=55)
        before = w.copy()
        s = steering_vector(SteeringSpec(0.1, 0.2, 8, 64))
        assert peak_bytes(inject_target, w[:, n], s, 0.7) <= p * 16 + 1024
        out = inject_target(w[:, n], s, 0.7)
        assert out.shape == (p,) and not np.shares_memory(out, w)
        assert w.tobytes() == before.tobytes()

    @pytest.mark.parametrize("y_shape,shape", [((6,), (8,)), ((6,), (6, 1)), ((6, 5), (6,))],
                             ids=["long", "column", "snapshot-block"])
    def test_dimension_mismatch_rejected(self, y_shape, shape):
        with pytest.raises(ValueError, match="steering dimension"):
            inject_target(np.zeros(y_shape, dtype=complex), np.ones(shape), 1.0)

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
