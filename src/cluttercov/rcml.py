"""Rank-constrained maximum-likelihood baseline (eigenvalue clipping).

The estimation problem, posed over the eigenvalues of the whitened inverse
covariance, is

    minimize    d^T lam - sum_i log(lam_i)
    subject to  lam ascending, eps <= lam_i <= 1, lam_i = 1 for i > rank

with d the whitened sample eigenvalues in descending order. The variables are
inverse eigenvalues: lam_i = 1 corresponds to the noise floor and lam_i < 1 to
a clutter spike, which is the only reading that makes the upper bound of 1
consistent with spikes above the floor. Mapped back to covariance eigenvalues
the solution is clipping at the noise floor, which is why this baseline and
the nonlinear shrinkage estimator detect identical spike sets and deliver
near-identical SCNR in high dimensions.

The objective is separable and convex, so each coordinate's minimizer is
1/d_i. Because d is descending, those minimizers are already ascending, and
clipping to the common interval [eps, 1] keeps them so: the ordering
constraint is never active.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rmt import AspectRatio, EigenDecomposition
from .shrinkage import CovarianceEstimate, NoiseEstimate, cosine2, g_map


@dataclass(frozen=True)
class RcmlProblem:
    """Per-eigenvalue clipping problem data.

    d: whitened sample eigenvalues, descending, all positive.
    rank: number of leading entries allowed below 1 (clutter modes).
    epsilon: strict-positivity floor for the decision variables.
    """

    d: np.ndarray
    rank: int
    epsilon: float = 1e-8

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("d must be a nonempty vector")
        if np.any(d <= 0):
            raise ValueError("d must be positive")
        if np.any(np.diff(d) > 0):
            raise ValueError("d must be sorted descending")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0 <= self.rank < d.size:
            raise ValueError("rank must satisfy 0 <= rank < p")
        object.__setattr__(self, "d", d)

    @property
    def p(self) -> int:
        return self.d.size


def solve_rcml(problem: RcmlProblem) -> np.ndarray:
    """Optimal whitened inverse eigenvalues, feasible to 1e-10.

    Leading ``rank`` coordinates take the coordinate minimizer 1/d_i of
    d_i lam_i - log lam_i clipped to [epsilon, 1]; trailing coordinates are
    pinned to 1. The ordering constraint is inactive (see the module
    docstring), so the result is exactly optimal, as the projected-gradient
    oracle in the test suite confirms.
    """
    lam = np.ones(problem.p)
    r = problem.rank
    lam[:r] = np.clip(1.0 / problem.d[:r], problem.epsilon, 1.0)
    return lam


def rcml_objective(lam: np.ndarray, d: np.ndarray) -> float:
    """d^T lam - sum log lam, the negative whitened log-likelihood."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("lam must be positive")
    return float(d @ lam - np.sum(np.log(lam)))


def rcml_estimate(
    decomp: EigenDecomposition,
    noise: NoiseEstimate,
    rank: int,
    ratio: AspectRatio | None = None,
) -> CovarianceEstimate:
    """Clipping estimate: leading ``rank`` eigenvalues floored at the noise power.

    Maps the solve_rcml output back to covariance eigenvalues,
    sigma2_hat * max(1, whitened sample eigenvalue) for the leading modes;
    the modes that stay above the floor are the estimate's spikes, with the
    decomposition's leading eigenvectors as their vectors.
    """
    if not 0 <= rank < decomp.p:
        raise ValueError("rank must satisfy 0 <= rank < p")
    s2 = noise.sigma2_hat
    problem = RcmlProblem(d=decomp.eigenvalues / s2, rank=rank)
    lam = s2 / solve_rcml(problem)[:rank]  # descending
    spikes = lam[lam > s2]
    return CovarianceEstimate(
        noise=noise, spikes=spikes, vectors=decomp.leading(spikes.size), ratio=ratio
    )


def stein_objective(lam: float, a: float, b: float, m: float) -> float:
    """Scalar spike objective a * lam - b * log(lam) + m; minimized at b / a."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return a * lam - b * np.log(lam) + m


def stein_pivot(ell: float, gamma: float) -> tuple[float, float, float]:
    """Coefficients (a, b, m) of the per-spike objective at population spike ell.

    a = c^2/g_map(ell) + s^2 with c^2 = cosine2(ell), b = 1, and
    m = 1/g_map(ell) - 1 - a + log(ell). Substituting ell for g_map(ell) in a
    recovers the reciprocal of the Stein shrinker, which is how the two
    estimators end up sharing one optimization problem.
    """
    if ell <= 1.0 + np.sqrt(gamma):
        raise ValueError("sub-critical spike")
    c2 = cosine2(ell, gamma)
    gval = g_map(ell, gamma)
    a = c2 / gval + (1.0 - c2)
    m = 1.0 / gval - 1.0 - a + np.log(ell)
    return a, 1.0, m
