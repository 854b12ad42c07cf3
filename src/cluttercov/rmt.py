"""Marchenko-Pastur law, sample covariance, and the Hermitian eigendecomposition contract.

Everything downstream (shrinkage, clipping baseline, detector, metrics) is built
on three primitives: the MP density/median at aspect ratio gamma = p/n, the
sample covariance of a p x n snapshot array (returned as a plain Hermitian
p x p array), and a descending-order Hermitian eigendecomposition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize


class RegimeWarning(UserWarning):
    """Inputs are outside the p < n regime where the asymptotic theory is guaranteed."""


class ModelOrderWarning(UserWarning):
    """Clutter rank exceeds the spiked-model budget of 0.1 * p."""


SPIKE_FRACTION_BUDGET = 0.1  # max clutter rank as a fraction of dimension


@dataclass(frozen=True)
class AspectRatio:
    """Dimension-to-sample ratio gamma = p/n.

    gamma is always the exact finite-sample ratio, never a user-supplied limit.
    gamma == 1 (n == p) is accepted with a RegimeWarning: the estimators still
    evaluate there, but their guarantees assume p < n.
    """

    p: int
    n: int
    gamma: float = field(init=False)

    def __post_init__(self):
        if self.p < 1 or self.n < 1:
            raise ValueError("p and n must be positive integers")
        g = self.p / self.n
        if not 0.0 < g <= 1.0:
            raise ValueError(f"aspect ratio p/n = {g:.6g} outside (0, 1]")
        if g == 1.0:
            warnings.warn(
                "n == p: outside the p < n regime, results are best-effort",
                RegimeWarning,
                stacklevel=3,  # name the caller, not the generated __init__
            )
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class MPLaw:
    """Marchenko-Pastur distribution at aspect ratio gamma, unit noise power.

    Support is [(1 - sqrt(gamma))^2, (1 + sqrt(gamma))^2].
    """

    ratio: AspectRatio
    support_lo: float = field(init=False)
    support_hi: float = field(init=False)

    def __post_init__(self):
        g = self.ratio.gamma
        object.__setattr__(self, "support_lo", (1.0 - np.sqrt(g)) ** 2)
        object.__setattr__(self, "support_hi", (1.0 + np.sqrt(g)) ** 2)

    @property
    def gamma(self) -> float:
        return self.ratio.gamma


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization of a Hermitian matrix, eigenvalues descending.

    eigenvectors[:, i] is the unit eigenvector paired with eigenvalues[i].
    Orthonormality (max |V^H V - I| < 1e-10) and reconstruction to 1e-8
    relative are contractual and exercised by the test suite rather than
    recomputed at O(p^3) cost on every construction.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.eigenvectors)
        if lam.ndim != 1 or vec.ndim != 2 or vec.shape != (lam.size, lam.size):
            raise ValueError("eigenvalues must be length p, eigenvectors p x p")
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)

    @property
    def p(self) -> int:
        return self.eigenvalues.size

    def matrix(self) -> np.ndarray:
        """Reconstruct sum_i lambda_i v_i v_i^H."""
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def mp_pdf(x, law: MPLaw):
    """Marchenko-Pastur density sqrt((b - x)(x - a)) / (2 pi gamma x) on [a, b].

    Total function: returns 0 outside the support. Accepts scalars or arrays.
    """
    a, b, g = law.support_lo, law.support_hi, law.gamma
    x = np.asarray(x, dtype=float)
    inside = (x > a) & (x < b)
    out = np.zeros_like(x)
    xs = x[inside]
    out[inside] = np.sqrt((b - xs) * (xs - a)) / (2.0 * np.pi * g * xs)
    if out.ndim == 0:
        return float(out)
    return out


def mp_cdf(x: float, law: MPLaw) -> float:
    """CDF of the MP law by adaptive quadrature of the closed-form density."""
    a, b = law.support_lo, law.support_hi
    if x <= a:
        return 0.0
    if x >= b:
        return 1.0
    val, _ = integrate.quad(
        lambda t: mp_pdf(t, law), a, x, epsabs=1e-13, epsrel=1e-13, limit=200
    )
    return float(val)


@lru_cache(maxsize=256)
def _mp_median_of_gamma(gamma: float) -> float:
    # Bisection on the quadrature CDF; the density is smooth inside the
    # support so brentq converges in ~50 evaluations.
    a = (1.0 - np.sqrt(gamma)) ** 2
    b = (1.0 + np.sqrt(gamma)) ** 2

    def density(t):
        return np.sqrt((b - t) * (t - a)) / (2.0 * np.pi * gamma * t)

    def cdf_minus_half(x):
        val, _ = integrate.quad(density, a, x, epsabs=1e-13, epsrel=1e-13, limit=200)
        return val - 0.5

    lo = a + 1e-14 * b
    hi = b - 1e-14 * b
    return float(optimize.brentq(cdf_minus_half, lo, hi, xtol=1e-13, rtol=1e-15))


def mp_median(law: MPLaw) -> float:
    """Median of the MP law: the m with CDF(m) = 1/2, to 1e-10 absolute.

    Computed by bisection on the quadrature CDF and cached per gamma, so
    repeated noise-power estimates at a fixed aspect ratio pay the quadrature
    once (the estimation step itself stays O(p)).
    """
    return _mp_median_of_gamma(law.gamma)


def sample_covariance(data: np.ndarray) -> np.ndarray:
    """Sample covariance (1/n) Y Y^H of snapshot columns Y (p x n), as a Hermitian p x p array.

    The product is symmetrized as (M + M^H)/2, so the result is Hermitian
    exactly; finiteness is left to ``eigh``, which checks it. n < p is
    accepted (the matrix is still well defined) but flagged with a
    RegimeWarning: downstream shrinkage refuses such decompositions.
    """
    data = np.asarray(data)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2 or data.size == 0 or data.shape[1] == 0:
        raise ValueError("no training samples")
    p, n = data.shape
    if n < p:
        warnings.warn(
            f"n = {n} < p = {p}: sample covariance is singular", RegimeWarning,
            stacklevel=2,
        )
    m = data @ data.conj().T / n
    return (m + m.conj().T) / 2.0


def eigh(matrix: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized as (A + A^H)/2 before factoring, which absorbs
    the accumulation error of covariance averaging. Ties keep LAPACK's basis;
    any orthonormal basis of an eigenspace is acceptable.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("invalid matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("invalid matrix")
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.conj().T).max() > 1e-10 * scale:
        raise ValueError("invalid matrix")
    m = (m + m.conj().T) / 2.0
    lam, vec = np.linalg.eigh(m)
    return EigenDecomposition(eigenvalues=lam[::-1].copy(), eigenvectors=vec[:, ::-1].copy())
