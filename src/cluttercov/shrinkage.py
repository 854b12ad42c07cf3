"""Nonlinear spectral shrinkage of spiked sample covariance matrices.

The estimator keeps the sample eigenvectors and replaces each sample
eigenvalue by a nonlinear function of it, in three steps:

1. noise power: sigma2_hat = median(sample eigenvalues) / mp_median(gamma);
2. spike detection: whitened eigenvalues above the bulk edge (1 + sqrt(gamma))^2
   are treated as clutter spikes, the rest as noise;
3. shrinkage: each detected spike lam is mapped through
   f(lam) -> population spike, then through the Stein-loss shrinker
   eta(x) = x / (c(x)^2 + s(x)^2 x), and scaled back by sigma2_hat.

The estimate is a ``SpikedCovariance``: the floor sigma2_hat, the shrunk
spikes and the p x r sample eigenvectors that carry them. The same type
holds the truth every metric scores against, the detection law reads and
``verify_clt`` draws from. The per-spike central limit parameters
(asymptotic location, variance, and shrinker slope) used by the validation
harness live here too.
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
class SpikedCovariance:
    """Spiked covariance sigma2 I + V diag(spikes - sigma2) V^H: the truth and every estimate.

    ``spikes`` are the r eigenvalues above the noise floor ``sigma2``,
    descending, and ``vectors`` V the p x r orthonormal eigenvectors that
    carry them; every other eigenvalue is sigma2. An estimate's V is the
    leading sample eigenvectors from ``EigenDecomposition.leading(r)``, a
    block it owns. A truth in its own eigenbasis, R = diag(spectrum()), has
    V = eye(p, r) (``diagonal``). Every reader splits y into c = V^H y and
    the residual y - V c, so y^H R^{-1} y = sum |c|^2 / spikes +
    ||y - V c||^2 / sigma2 is two positive sums: no cancellation in the
    clutter span, and in the eigenbasis both parts are exact coordinates of y.
    """

    sigma2: float
    spikes: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        spikes = np.asarray(self.spikes, dtype=float).reshape(-1)
        v = self.vectors
        if v.ndim != 2 or v.shape[1] != spikes.size:
            raise ValueError("vectors must be p x r, one column per spike")
        if spikes.size >= v.shape[0]:
            raise ValueError("spike count must be < p")
        if not self.sigma2 > 0:
            raise ValueError("noise floor sigma2 must be positive")
        if not (np.isfinite(self.sigma2) and np.isfinite(spikes).all() and np.isfinite(v).all()):
            raise ValueError("covariance must be finite")
        if np.any(np.diff(spikes) > 0):
            raise ValueError("spikes must be sorted descending")
        if np.any(spikes <= self.sigma2):
            raise ValueError("spikes must exceed the noise floor sigma2")
        object.__setattr__(self, "spikes", spikes)

    @classmethod
    def diagonal(cls, p: int, sigma2: float, spikes) -> SpikedCovariance:
        """The covariance in its own eigenbasis, diag(spectrum()): V = eye(p, r)."""
        return cls(sigma2, spikes, np.eye(p, np.size(spikes), dtype=complex))

    @property
    def p(self) -> int:
        return self.vectors.shape[0]

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

    def _project(self, y: np.ndarray):
        """c = V^H y, the residual y - V c, and the spikes shaped to scale the columns of c."""
        y = np.asarray(y)
        if y.shape[:1] != (self.p,):
            raise ValueError("vector dimension does not match the covariance")
        c = self.vectors.conj().T @ y
        return c, y - self.vectors @ c, self.spikes.reshape((-1,) + (1,) * (y.ndim - 1))

    def quad_inv(self, y: np.ndarray) -> np.ndarray:
        """y^H R^{-1} y for a p-vector or each column of a p x m matrix, as two positive sums."""
        c, res, spikes = self._project(y)
        floor = np.sum(np.abs(res) ** 2, axis=0) / self.sigma2
        return np.sum(np.abs(c) ** 2 / spikes, axis=0) + floor

    def inverse_apply(self, y: np.ndarray) -> np.ndarray:
        """R^{-1} y = V (c / spikes) + (y - V c) / sigma2, O(p r) per column."""
        c, res, spikes = self._project(y)
        res /= self.sigma2  # in place: a call holds two p x m arrays at most
        res += self.vectors @ (c / spikes)
        return res

    def apply(self, w: np.ndarray) -> np.ndarray:
        """R w = V (spikes * c) + sigma2 (w - V c), O(p r) per column."""
        c, res, spikes = self._project(w)
        res *= self.sigma2
        res += self.vectors @ (spikes * c)
        return res

    def summary(self, gamma: float) -> dict:
        """The floor, the spikes and the aspect ratio gamma = p / n they were estimated at."""
        return {
            "sigma2_hat": self.sigma2,
            "spike_count": self.r,
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
        ell, g = float(self.ell), float(self.gamma)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "gamma", g)
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
    the MP median is that of the MP law at the same aspect ratio, which
    holds n >= p (for n < p the median eigenvalue is zero and the ratio
    meaningless). The median runs over all p eigenvalues, spikes included:
    the r spikes lift it by O(r/p), an upward bias of sigma2_hat measured at
    +0.89% for p = 120 and +0.22% for p = 480 (r = 2, gamma = 0.2). Times
    sqrt(n) that is O(r/sqrt(p)), so the bias vanishes on the scale of the
    spike CLT.
    """
    if decomp.p != ratio.p:
        raise ValueError("decomposition dimension does not match ratio.p")
    # the eigenvalues are sorted, so the median is their middle entry, or
    # the central pair's mean for even p, bitwise as ``np.median``
    lam, h = decomp.eigenvalues, ratio.p // 2
    lam_med = float(lam[h] if ratio.p % 2 else (lam[h - 1] + lam[h]) / 2)
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


def shrink_spectrum(decomp: EigenDecomposition, ratio: AspectRatio) -> SpikedCovariance:
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
    return SpikedCovariance(s2, spikes, decomp.leading(r_hat))

