import numpy as np
import pytest

from cluttercov import AspectRatio, EigenDecomposition, rcml_estimate
from cluttercov.rng import substream

# The oracle's lower bound on the inverse eigenvalues: the problem asks only
# x > 0, and the gradient step needs a floor; no test's d reaches 1/EPS.
EPS = 1e-8
FLOOR = 3.0  # a non-unit noise floor, so the whitening is exercised


def decomposition(eigenvalues) -> EigenDecomposition:
    """Diagonal decomposition with the given descending eigenvalues."""
    lam = np.asarray(eigenvalues, dtype=float)
    return EigenDecomposition(eigenvalues=lam, eigenvectors=np.eye(lam.size, dtype=complex))


def rcml_inverse(d, rank) -> np.ndarray:
    """Whitened inverse eigenvalues sigma2_hat / spikes of rcml_estimate, ones past its spikes.

    ``d`` are the whitened sample eigenvalues: the decomposition holds
    FLOOR * d and the estimate runs at sigma2_hat = FLOOR.
    """
    d = np.asarray(d, dtype=float)
    est = rcml_estimate(decomposition(FLOOR * d), FLOOR, rank)
    out = np.ones(d.size)
    out[: est.spike_count] = FLOOR / est.spikes
    return out


def rcml_objective(lam, d) -> float:
    """d^T lam - sum log lam, the negative whitened log-likelihood."""
    return float(d @ lam - np.sum(np.log(lam)))


def project_feasible(lam, rank):
    """Euclidean projection onto {EPS <= x_1 <= ... <= x_rank <= 1, rest = 1}.

    L2 pool-adjacent-violators followed by clipping; independent of the
    production estimate, which keeps the sample eigenvalues above the floor.
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
    out[:rank] = np.clip(vals, EPS, 1.0)
    return out


def projected_gradient_oracle(d, rank, iters=8000):
    """Brute-force solve of the ordered likelihood problem by projected gradient."""
    lam = project_feasible(1.0 / d, rank)
    # objective is smooth on [EPS, 1]: gradient d - 1/lam, Lipschitz 1/lam^2
    for k in range(iters):
        grad = d - 1.0 / lam
        step = 0.4 / max(d.max(), 1.0 / lam.min() ** 2 * 0.5)
        lam = project_feasible(lam - step * grad, rank)
    return lam


class TestSolveRcml:
    """rcml_estimate's clip solves the ordered likelihood problem of the module docstring."""

    def test_unconstrained_coordinates(self):
        out = rcml_inverse([4.0, 2.5, 0.8, 0.7], rank=2)
        np.testing.assert_allclose(out, [0.25, 0.4, 1.0, 1.0], atol=1e-14)

    def test_clip_at_noise_floor(self):
        # both coordinate minimizers exceed 1
        out = rcml_inverse([0.9, 0.8, 0.5], rank=2)
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0], atol=1e-15)

    def test_feasibility(self):
        rng = substream(21, 0)
        d = np.sort(rng.uniform(0.1, 20.0, size=24))[::-1]
        out = rcml_inverse(d, rank=6)
        assert np.all(np.diff(out) >= -1e-10)
        assert np.all(out > 0.0)
        assert np.all(out <= 1.0 + 1e-15)
        np.testing.assert_allclose(out[6:], 1.0)

    def test_matches_closed_form_when_inactive(self):
        # descending d keeps the ordering constraint inactive: the solution is
        # the per-coordinate argmin min(1, 1/d) on the leading ``rank`` entries
        for t in range(100):
            rng = substream(22, t)
            p = int(rng.integers(4, 40))
            r = int(rng.integers(0, p))
            d = np.sort(rng.uniform(0.05, 30.0, size=p))[::-1]
            closed = np.ones(p)
            closed[:r] = np.minimum(1.0, 1.0 / d[:r])
            np.testing.assert_allclose(rcml_inverse(d, rank=r), closed, atol=1e-8)

    def test_optimal_against_random_feasible_points(self):
        rng = substream(23, 0)
        d = np.sort(rng.uniform(0.2, 10.0, size=12))[::-1]
        best = rcml_objective(rcml_inverse(d, rank=5), d)
        for _ in range(1000):
            cand = np.ones(12)
            cand[:5] = np.sort(rng.uniform(EPS, 1.0, size=5))
            assert rcml_objective(cand, d) >= best - 1e-12

    def test_matches_projected_gradient_oracle(self):
        for t in range(100):
            rng = substream(24, t)
            p = int(rng.integers(4, 24))
            r = int(rng.integers(1, p))
            d = np.sort(rng.uniform(0.3, 15.0, size=p))[::-1]
            ours = rcml_inverse(d, rank=r)
            oracle = projected_gradient_oracle(d, r)
            assert np.abs(ours - oracle).max() < 1e-6

    def test_pooling_on_unsorted_interior(self):
        # tied d values: the ordering holds with equality, each takes 1/d = k/sum(d)
        out = rcml_inverse([2.0, 2.0, 2.0, 0.5], rank=3)
        np.testing.assert_allclose(out[:3], 0.5)

    def test_infeasible_rank(self):
        with pytest.raises(ValueError):
            rcml_estimate(decomposition([2.0, 1.0]), 1.0, rank=2)


class TestRcmlEstimate:
    def _decomp(self, whitened, sigma2=1.0):
        return decomposition(np.asarray(whitened, dtype=float) * sigma2)

    def test_clipping_values(self):
        est = rcml_estimate(self._decomp([4.0, 2.5, 0.8, 0.7]), 1.0, rank=2)
        np.testing.assert_allclose(est.spikes, [4.0, 2.5])
        np.testing.assert_allclose(np.diag(est.matrix()).real, [4.0, 2.5, 1.0, 1.0])
        assert est.spike_count == 2

    def test_all_below_floor(self):
        est = rcml_estimate(self._decomp([0.9, 0.8, 0.7, 0.6]), 1.0, rank=3)
        np.testing.assert_allclose(est.matrix(), np.eye(4))
        assert est.spike_count == 0

    def test_identity_input(self):
        sigma2 = 3.0
        est = rcml_estimate(self._decomp([1.0, 1.0, 1.0], sigma2=sigma2), sigma2, rank=1)
        np.testing.assert_allclose(est.matrix(), sigma2 * np.eye(3))
        assert est.spike_count == 0

    def test_eigenvectors_shared(self):
        dec = self._decomp([5.0, 1.0, 0.9])
        est = rcml_estimate(dec, 1.0, rank=1)
        assert np.shares_memory(est.vectors, dec.eigenvectors)
        np.testing.assert_array_equal(est.vectors, dec.eigenvectors[:, :1])

    def test_physical_scale(self):
        est = rcml_estimate(self._decomp([6.0, 0.5], sigma2=2.0), 2.0, rank=1)
        np.testing.assert_allclose(est.spikes, [12.0])
        np.testing.assert_allclose(np.diag(est.matrix()).real, [12.0, 2.0])


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
            clipped = rcml_estimate(dec, shrunk.sigma2_hat, shrunk.spike_count, ratio=ratio)
            assert clipped.spike_count == shrunk.spike_count
            # the modes above the floor are the same sample eigenvectors
            np.testing.assert_array_equal(clipped.vectors, shrunk.vectors)
            assert np.all(clipped.spikes > shrunk.sigma2_hat)
