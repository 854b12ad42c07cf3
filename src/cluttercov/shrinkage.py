"""Nonlinear spectral shrinkage of spiked sample covariance matrices.

The estimator keeps the sample eigenvectors and replaces each sample
eigenvalue by a nonlinear function of it, in three steps:

1. noise power: sigma2_hat = median(sample eigenvalues) / mp_median(gamma);
2. spike detection: whitened eigenvalues above the bulk edge (1 + sqrt(gamma))^2
   are treated as clutter spikes, the rest as noise;
3. shrinkage: each detected spike lam is mapped through
   f(lam) -> population spike, then through the Stein-loss shrinker
   eta(x) = x / (c(x)^2 + s(x)^2 x), and scaled back by sigma2_hat.

The per-spike central limit parameters (asymptotic location, variance, and
shrinker slope) used by the validation harness live here too.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .rmt import (
    SPIKE_FRACTION_BUDGET,
    AspectRatio,
    EigenDecomposition,
    ModelOrderWarning,
    MPLaw,
    mp_median,
)


@dataclass(frozen=True)
class SpikedModel:
    """Ground-truth spiked spectrum: r spikes above a flat noise floor.

    The full spectrum is ``spikes`` (descending, all > sigma2) followed by
    p - r copies of sigma2. In its own eigenbasis R = diag(spectrum()); there
    the model is the truth every metric reads, from r + 1 numbers.
    """

    p: int
    sigma2: float
    spikes: np.ndarray

    def __post_init__(self):
        spikes = np.atleast_1d(np.asarray(self.spikes, dtype=float))
        if self.p < 1:
            raise ValueError("p must be positive")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        if spikes.size >= self.p:
            raise ValueError("spike count must be < p")
        if not np.all(np.isfinite(spikes)):
            raise ValueError("spikes must be finite")
        if np.any(np.diff(spikes) > 0):
            raise ValueError("spikes must be sorted descending")
        if spikes.size and not np.all(spikes > self.sigma2):
            raise ValueError("spikes must lie strictly above sigma2")
        object.__setattr__(self, "spikes", spikes)

    @property
    def r(self) -> int:
        return self.spikes.size

    def spectrum(self) -> np.ndarray:
        """Full eigenvalue list: spikes then (p - r) noise eigenvalues."""
        return np.concatenate([self.spikes, np.full(self.p - self.r, self.sigma2)])

    def whitened_spikes(self) -> np.ndarray:
        return self.spikes / self.sigma2

    @property
    def trace_inv(self) -> float:
        """tr(R^{-1}) = sum 1 / spikes + (p - r) / sigma2."""
        return float(np.sum(1.0 / self.spikes) + (self.p - self.r) / self.sigma2)

    @property
    def logdet(self) -> float:
        """log det R = sum log spikes + (p - r) log sigma2."""
        return float(np.sum(np.log(self.spikes)) + (self.p - self.r) * np.log(self.sigma2))

    def _split(self, x: np.ndarray):
        """The spike rows and floor rows of ``x``, and the spikes shaped to scale its columns."""
        x = np.asarray(x)
        if x.shape[:1] != (self.p,):
            raise ValueError("vector dimension does not match the model")
        return x[: self.r], x[self.r:], self.spikes.reshape((-1,) + (1,) * (x.ndim - 1))

    def quad_inv(self, y: np.ndarray) -> np.ndarray:
        """y^H R^{-1} y per column, as two positive sums: no cancellation in the clutter span."""
        head, tail, spikes = self._split(y)
        floor = np.sum(np.abs(tail) ** 2, axis=0) / self.sigma2
        return np.sum(np.abs(head) ** 2 / spikes, axis=0) + floor

    def apply(self, w: np.ndarray) -> np.ndarray:
        """R w for a p-vector or the columns of a p x m matrix: spikes * w above sigma2 * w."""
        head, tail, spikes = self._split(w)
        return np.concatenate([spikes * head, self.sigma2 * tail])


@dataclass(frozen=True)
class CovarianceEstimate:
    """Spiked estimate: a noise floor plus r eigenpairs above it.

    The estimate is s2 I + V diag(spikes - s2) V^H with s2 = sigma2_hat,
    ``spikes`` the r shrunk (or clipped) eigenvalues, descending and strictly
    above s2, and ``vectors`` the p x r leading sample eigenvectors from
    ``EigenDecomposition.leading(r)``, a block the estimate owns. Every other
    eigenvalue equals the floor by construction.
    """

    sigma2_hat: float
    spikes: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        spikes = np.asarray(self.spikes, dtype=float).reshape(-1)
        v = self.vectors
        if v.ndim != 2 or v.shape[1] != spikes.size or spikes.size > v.shape[0]:
            raise ValueError("vectors must be p x r, one column per spike")
        if np.any(np.diff(spikes) > 0):
            raise ValueError("spikes must be sorted descending")
        if not self.sigma2_hat > 0:
            raise ValueError("noise power estimate must be positive")
        finite = np.isfinite(self.sigma2_hat) and np.isfinite(spikes).all()
        if not (finite and np.isfinite(v).all()):
            raise ValueError("estimate must be finite")
        if np.any(spikes <= self.sigma2_hat):
            raise ValueError("spiked eigenvalues must exceed the noise floor")
        object.__setattr__(self, "spikes", spikes)

    @property
    def p(self) -> int:
        return self.vectors.shape[0]

    @property
    def spike_count(self) -> int:
        return self.spikes.size

    def inverse_apply(self, y: np.ndarray) -> np.ndarray:
        """Estimate^{-1} y = (y - V((1 - s2/spikes) * (V^H y))) / s2, O(p r) per column."""
        s2 = self.sigma2_hat
        v = self.vectors
        return (y - (v * (1.0 - s2 / self.spikes)) @ (v.conj().T @ y)) / s2

    def quad_inv(self, y: np.ndarray) -> np.ndarray:
        """y^H Estimate^{-1} y for a p-vector or each column of a p x m matrix, O(p r) each."""
        return np.real(np.sum(np.conj(y) * self.inverse_apply(y), axis=0))

    def summary(self, gamma: float) -> dict:
        """The floor, the spikes and the aspect ratio gamma = p / n they were estimated at."""
        return {
            "sigma2_hat": self.sigma2_hat,
            "spike_count": self.spike_count,
            "spiked_eigenvalues": self.spikes.tolist(),
            "gamma": gamma,
        }


@dataclass(frozen=True)
class CltParams:
    """Asymptotics of one estimated spike at population value ell.

    beta is the almost-sure limit of the whitened sample eigenvalue,
    alpha2 the variance of sqrt(n) * (sample eigenvalue - beta) for real
    Gaussian data (halve it for circular complex data), eta_of_beta the limit
    of the whitened shrunk eigenvalue, and eta_prime the shrinker slope
    at beta.
    """

    ell: float
    gamma: float
    beta: float = field(init=False)
    alpha2: float = field(init=False)
    eta_of_beta: float = field(init=False)
    eta_prime: float = field(init=False)

    def __post_init__(self):
        ell, g = self.ell, self.gamma
        if not ell > 1.0 + np.sqrt(g):
            raise ValueError("sub-critical spike")
        alpha2 = 2.0 * ell**2 * (1.0 - g / (ell - 1.0) ** 2)
        object.__setattr__(self, "beta", g_map(ell, g))
        object.__setattr__(self, "alpha2", alpha2)
        object.__setattr__(self, "eta_of_beta", stein_shrinker(ell, g))
        object.__setattr__(self, "eta_prime", _stein_prime(ell, g) / _g_prime(ell, g))


def g_map(ell: float, gamma: float) -> float:
    """Asymptotic whitened sample-eigenvalue location for a population spike ell.

    ell + gamma * ell / (ell - 1) above the detectability edge 1 + sqrt(gamma);
    spikes at or below the edge collapse onto the bulk edge (1 + sqrt(gamma))^2.
    """
    if ell < 1.0:
        raise ValueError("below noise floor")
    edge = 1.0 + np.sqrt(gamma)
    if ell <= edge:
        return edge**2
    return ell + gamma * ell / (ell - 1.0)


def f_map(x: float, gamma: float) -> float:
    """Population spike recovered from a whitened sample eigenvalue x.

    Inverse of g_map on x > (1 + sqrt(gamma))^2:
    (x + 1 - gamma + sqrt((x + 1 - gamma)^2 - 4 x)) / 2.
    """
    root = np.sqrt(gamma)
    edge2 = (1.0 + root) ** 2
    if x <= edge2:
        raise ValueError("inside bulk")
    # (x + 1 - gamma)^2 - 4x factored through the bulk edges; the product form
    # avoids the cancellation that otherwise dominates near the detection edge
    disc = (x - edge2) * (x - (1.0 - root) ** 2)
    if disc < 0.0:
        if disc < -1e-12:
            raise ValueError("inside bulk")
        disc = 0.0  # guards eigenvalues marginally above the edge
    return (x + 1.0 - gamma + np.sqrt(disc)) / 2.0


def cosine2(ell: float, gamma: float) -> float:
    """Squared limit cosine between population and sample spike eigenvectors.

    (1 - gamma/(ell-1)^2) / (1 + gamma/(ell-1)) above the edge, 0 below.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    if ell <= 1.0 + np.sqrt(gamma):
        return 0.0
    c2 = (1.0 - gamma / (ell - 1.0) ** 2) / (1.0 + gamma / (ell - 1.0))
    return float(min(max(c2, 0.0), 1.0))


def stein_shrinker(ell: float, gamma: float) -> float:
    """Stein-loss optimal shrunk eigenvalue for a population spike ell.

    eta(ell) = ell / (c^2 + s^2 ell) with c^2 = cosine2(ell, gamma). Always in
    (1, ell): shrinkage never expands past the sample value nor dips below the
    whitened noise floor.
    """
    if ell <= 1.0 + np.sqrt(gamma):
        raise ValueError("inside bulk")
    c2 = cosine2(ell, gamma)
    return ell / (c2 + (1.0 - c2) * ell)


def _g_prime(ell: float, gamma: float) -> float:
    return 1.0 - gamma / (ell - 1.0) ** 2


def _cosine2_prime(ell: float, gamma: float) -> float:
    em1 = ell - 1.0
    num = 1.0 - gamma / em1**2
    den = 1.0 + gamma / em1
    dnum = 2.0 * gamma / em1**3
    dden = -gamma / em1**2
    return (dnum * den - num * dden) / den**2


def _stein_prime(ell: float, gamma: float) -> float:
    # eta = ell / d with d = ell - c^2 (ell - 1)
    c2 = cosine2(ell, gamma)
    dc2 = _cosine2_prime(ell, gamma)
    d = ell - c2 * (ell - 1.0)
    dd = 1.0 - (dc2 * (ell - 1.0) + c2)
    return (d - ell * dd) / d**2


def estimate_noise(decomp: EigenDecomposition, ratio: AspectRatio) -> float:
    """Noise power sigma2_hat: the median sample eigenvalue over the MP median.

    The sample median averages the two central order statistics for even p;
    the MP median is that of the MP law at the same aspect ratio. Requires
    n >= p (for n < p the median eigenvalue is zero and the ratio
    meaningless). The median runs over all p eigenvalues, spikes included:
    the r spikes lift it by O(r/p), an upward bias of sigma2_hat measured at
    +0.89% for p = 120 and +0.22% for p = 480 (r = 2, gamma = 0.2). Times
    sqrt(n) that is O(r/sqrt(p)), so the bias vanishes on the scale of the
    spike CLT.
    """
    if ratio.n < ratio.p:
        raise ValueError("insufficient samples")
    if decomp.p != ratio.p:
        raise ValueError("decomposition dimension does not match ratio.p")
    lam_med = float(np.median(decomp.eigenvalues))
    mu_med = mp_median(MPLaw(ratio))
    if lam_med <= 0:
        raise ValueError("noise power estimate is not positive")
    return lam_med / mu_med


def detect_spikes(decomp: EigenDecomposition, ratio: AspectRatio) -> tuple[float, np.ndarray]:
    """Noise power sigma2_hat and the whitened sample eigenvalues detected as spikes.

    The spikes are the sample eigenvalues divided by sigma2_hat that lie
    strictly above the bulk edge (1 + sqrt(gamma))^2, descending. The
    shrinkage estimator and the detector's estimated rank both use this rule.
    """
    s2 = estimate_noise(decomp, ratio)
    whitened = decomp.eigenvalues / s2
    return s2, whitened[whitened > (1.0 + np.sqrt(ratio.gamma)) ** 2]


def shrink_spectrum(decomp: EigenDecomposition, ratio: AspectRatio) -> CovarianceEstimate:
    """Full shrinkage pass: noise power, spike detection, Stein shrinkage.

    The spikes ``detect_spikes`` finds are shrunk through
    stein_shrinker(f_map(.)); the rest are set to the estimated noise floor.
    A spike count above the 0.1 * p budget raises ModelOrderWarning but the
    estimate is still produced.
    """
    s2, detected = detect_spikes(decomp, ratio)
    g = ratio.gamma
    spikes = np.array([s2 * stein_shrinker(f_map(x, g), g) for x in detected], dtype=float)
    # An eigenvalue exactly at the detection edge shrinks onto the floor;
    # keep only spikes that stayed strictly above it.
    spikes = spikes[spikes > s2]
    r_hat = spikes.size
    if r_hat > int(SPIKE_FRACTION_BUDGET * decomp.p):
        warnings.warn(
            f"detected {r_hat} spikes, above the 0.1*p = "
            f"{int(SPIKE_FRACTION_BUDGET * decomp.p)} budget of the spiked model",
            ModelOrderWarning,
            stacklevel=2,
        )
    return CovarianceEstimate(sigma2_hat=s2, spikes=spikes, vectors=decomp.leading(r_hat))


def clt_params(ell: float, gamma: float) -> CltParams:
    """Central-limit parameters for one super-critical population spike."""
    return CltParams(ell=float(ell), gamma=float(gamma))

