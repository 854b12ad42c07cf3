import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluttercov import (
    AspectRatio,
    EigenDecomposition,
    NoiseEstimate,
    RcmlProblem,
    cosine2,
    g_map,
    rcml_estimate,
    solve_rcml,
    stein_objective,
    stein_pivot,
    stein_shrinker,
)
from cluttercov.rcml import rcml_objective
from cluttercov.rng import substream


def project_feasible(lam, rank, epsilon):
    """Euclidean projection onto {epsilon <= x_1 <= ... <= x_rank <= 1, rest = 1}.

    L2 pool-adjacent-violators followed by clipping; independent of the
    production solver, which clips the coordinate minimizers directly.
    """
    out = np.ones_like(lam)
    if rank == 0:
        return out
    y = lam[:rank]
    blocks = [[v, 1.0] for v in y]  # [mean, weight]
    merged = []
    for b in blocks:
        merged.append(list(b))
        while len(merged) > 1 and merged[-2][0] > merged[-1][0]:
            m2 = merged.pop()
            m1 = merged.pop()
            w = m1[1] + m2[1]
            merged.append([(m1[0] * m1[1] + m2[0] * m2[1]) / w, w])
    vals = []
    for mean, w in merged:
        vals.extend([mean] * int(w))
    out[:rank] = np.clip(vals, epsilon, 1.0)
    return out


def projected_gradient_oracle(problem: RcmlProblem, iters=8000):
    """Brute-force solve of the ordered likelihood problem by projected gradient."""
    d = problem.d
    lam = project_feasible(1.0 / d, problem.rank, problem.epsilon)
    # objective is smooth on [epsilon, 1]: gradient d - 1/lam, Lipschitz 1/eps^2
    for k in range(iters):
        grad = d - 1.0 / lam
        step = 0.4 / max(d.max(), 1.0 / lam.min() ** 2 * 0.5)
        lam = project_feasible(lam - step * grad, problem.rank, problem.epsilon)
    return lam


class TestSolveRcml:
    def test_unconstrained_coordinates(self):
        prob = RcmlProblem(d=np.array([4.0, 2.5, 0.8, 0.7]), rank=2)
        out = solve_rcml(prob)
        np.testing.assert_allclose(out, [0.25, 0.4, 1.0, 1.0], atol=1e-14)

    def test_clip_at_noise_floor(self):
        # both coordinate minimizers exceed 1
        prob = RcmlProblem(d=np.array([0.9, 0.8, 0.5]), rank=2)
        out = solve_rcml(prob)
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0], atol=1e-15)

    def test_feasibility(self):
        rng = substream(21, 0)
        d = np.sort(rng.uniform(0.1, 20.0, size=24))[::-1]
        prob = RcmlProblem(d=d, rank=6)
        out = solve_rcml(prob)
        assert np.all(np.diff(out) >= -1e-10)
        assert np.all(out >= prob.epsilon - 1e-15)
        assert np.all(out <= 1.0 + 1e-15)
        np.testing.assert_allclose(out[6:], 1.0)

    def test_matches_closed_form_when_inactive(self):
        # descending d keeps the ordering constraint inactive: solution is
        # the clipped per-coordinate argmin
        for t in range(100):
            rng = substream(22, t)
            p = int(rng.integers(4, 40))
            r = int(rng.integers(0, p))
            d = np.sort(rng.uniform(0.05, 30.0, size=p))[::-1]
            out = solve_rcml(RcmlProblem(d=d, rank=r))
            closed = np.ones(p)
            closed[:r] = np.clip(1.0 / d[:r], 1e-8, 1.0)
            np.testing.assert_allclose(out, closed, atol=1e-8)

    def test_optimal_against_random_feasible_points(self):
        rng = substream(23, 0)
        d = np.sort(rng.uniform(0.2, 10.0, size=12))[::-1]
        prob = RcmlProblem(d=d, rank=5)
        out = solve_rcml(prob)
        best = rcml_objective(out, d)
        for _ in range(1000):
            cand = np.ones(12)
            cand[:5] = np.sort(rng.uniform(prob.epsilon, 1.0, size=5))
            assert rcml_objective(cand, d) >= best - 1e-12

    def test_matches_projected_gradient_oracle(self):
        for t in range(100):
            rng = substream(24, t)
            p = int(rng.integers(4, 24))
            r = int(rng.integers(1, p))
            d = np.sort(rng.uniform(0.3, 15.0, size=p))[::-1]
            prob = RcmlProblem(d=d, rank=r)
            ours = solve_rcml(prob)
            oracle = projected_gradient_oracle(prob)
            assert np.abs(ours - oracle).max() < 1e-6

    def test_pooling_on_unsorted_interior(self):
        # tied d values: the ordering holds with equality, each takes 1/d = k/sum(d)
        prob = RcmlProblem(d=np.array([2.0, 2.0, 2.0, 0.5]), rank=3)
        out = solve_rcml(prob)
        np.testing.assert_allclose(out[:3], 0.5)

    def test_infeasible_rank(self):
        with pytest.raises(ValueError):
            RcmlProblem(d=np.array([2.0, 1.0]), rank=2)


class TestRcmlEstimate:
    def _setup(self, whitened, sigma2=1.0):
        lam = np.asarray(whitened, dtype=float) * sigma2
        dec = EigenDecomposition(eigenvalues=lam, eigenvectors=np.eye(lam.size, dtype=complex))
        noise = NoiseEstimate(sigma2_hat=sigma2, lambda_med=sigma2, mu_med=1.0)
        return dec, noise

    def test_clipping_values(self):
        dec, noise = self._setup([4.0, 2.5, 0.8, 0.7])
        est = rcml_estimate(dec, noise, rank=2)
        np.testing.assert_allclose(est.spikes, [4.0, 2.5])
        np.testing.assert_allclose(np.diag(est.matrix()).real, [4.0, 2.5, 1.0, 1.0])
        assert est.spike_count == 2

    def test_all_below_floor(self):
        dec, noise = self._setup([0.9, 0.8, 0.7, 0.6])
        est = rcml_estimate(dec, noise, rank=3)
        np.testing.assert_allclose(est.matrix(), np.eye(4))
        assert est.spike_count == 0

    def test_identity_input(self):
        sigma2 = 3.0
        dec, noise = self._setup([1.0, 1.0, 1.0], sigma2=sigma2)
        est = rcml_estimate(dec, noise, rank=1)
        np.testing.assert_allclose(est.matrix(), sigma2 * np.eye(3))
        assert est.spike_count == 0

    def test_eigenvectors_shared(self):
        dec, noise = self._setup([5.0, 1.0, 0.9])
        est = rcml_estimate(dec, noise, rank=1)
        assert np.shares_memory(est.vectors, dec.eigenvectors)
        np.testing.assert_array_equal(est.vectors, dec.eigenvectors[:, :1])

    def test_physical_scale(self):
        dec, noise = self._setup([6.0, 0.5], sigma2=2.0)
        est = rcml_estimate(dec, noise, rank=1)
        np.testing.assert_allclose(est.spikes, [12.0])
        np.testing.assert_allclose(np.diag(est.matrix()).real, [12.0, 2.0])


class TestSteinObjective:
    def test_argmin_is_inverse_slope(self):
        a = 0.37
        grid = np.linspace(0.01, 5.0, 2000)
        vals = [stein_objective(x, a, 1.0, 0.0) for x in grid]
        assert grid[int(np.argmin(vals))] == pytest.approx(1.0 / a, abs=5e-3)

    def test_reference_pivot(self):
        # ell = 2, gamma = 0.25: a = 0.6/2.5 + 0.4 = 0.64, argmin 1.5625
        a, b, m = stein_pivot(2.0, 0.25)
        assert a == pytest.approx(0.64, abs=1e-12)
        assert b == 1.0
        assert 1.0 / a == pytest.approx(1.5625, abs=1e-12)
        # substituting ell for g(ell) in the pivot slope recovers the
        # reciprocal of the Stein shrinker
        c2 = cosine2(2.0, 0.25)
        a_at_ell = c2 / 2.0 + (1 - c2)
        assert 1.0 / a_at_ell == pytest.approx(stein_shrinker(2.0, 0.25), abs=1e-12)

    def test_unit_point(self):
        assert stein_objective(1.0, 1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            stein_objective(0.0, 1.0, 1.0, 0.0)

    @given(st.floats(min_value=1.8, max_value=60.0), st.floats(min_value=0.05, max_value=0.6))
    @settings(max_examples=60, deadline=None)
    def test_pivot_argmin_between_shrinker_and_sample(self, ell, gamma):
        if ell <= 1 + np.sqrt(gamma) + 0.05:
            return
        a, _, _ = stein_pivot(ell, gamma)
        argmin = 1.0 / a
        eta = stein_shrinker(ell, gamma)
        assert eta <= argmin <= g_map(ell, gamma) + 1e-12


class TestEquivalenceWithShrinkage:
    def test_spike_sets_identical(self):
        # with rank set to the shrinkage spike count, the clipping estimate
        # flags exactly the same modes above the noise floor
        from cluttercov import eigh, sample_covariance, shrink_spectrum, SpikedModel

        p, n = 64, 256
        ratio = AspectRatio(p, n)
        model = SpikedModel(p=p, sigma2=1.0, spikes=np.array([30.0, 18.0, 9.0]))
        root = np.sqrt(model.spectrum())
        for t in range(25):
            rng = substream(25, t)
            w = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2)
            dec = eigh(sample_covariance(root[:, None] * w))
            shrunk = shrink_spectrum(dec, ratio)
            clipped = rcml_estimate(dec, shrunk.noise, shrunk.spike_count, ratio=ratio)
            assert clipped.spike_count == shrunk.spike_count
            # the modes above the floor are the same sample eigenvectors
            np.testing.assert_array_equal(clipped.vectors, shrunk.vectors)
            assert np.all(clipped.spikes > shrunk.noise.sigma2_hat)
