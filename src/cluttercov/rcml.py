"""Rank-constrained maximum-likelihood (RCML) baseline: eigenvalue clipping.

RCML maximizes the Gaussian likelihood of the training data over the
covariances whose eigenvalues are at least the noise floor sigma2_hat and of
which at most ``rank`` lie above it (Kang, Monga & Rangaswamy, IEEE TAES
2014). In the sample eigenbasis the problem separates. With d_i the whitened
sample eigenvalues lam_i / sigma2_hat in descending order and x_i the
whitened inverse eigenvalues of the estimate, it reads

    minimize    sum_i (d_i x_i - log x_i)
    subject to  x ascending, 0 < x_i <= 1, x_i = 1 for i > rank.

Each term is convex with its minimum at 1/d_i, so each leading coordinate
takes min(1, 1/d_i). Because d is descending those values are ascending, and
the ordering constraint never binds. Mapped back to covariance eigenvalues,
RCML keeps every leading sample eigenvalue that lies above the floor and
puts the rest on it: it clips the sample spectrum at sigma2_hat, and no
solver is needed.

The paper states that RCML and the nonlinear shrinkage estimator share the
same optimization problem in high dimensions. Here that reads as follows.
Both keep the sample eigenvectors and the noise floor, and with the rank set
to the shrinkage spike count they keep the same spikes. Per spike, both
minimize a t - log t over t > 0, whose minimizer is 1/a. For RCML, t is the
whitened inverse eigenvalue and a the whitened sample eigenvalue, so the
spike keeps its sample value. For the Stein loss, t is the whitened
eigenvalue and a = c^2/ell + s^2, the weight the loss puts on it once the
misalignment of the sample eigenvector (c^2 = cosine2(ell, gamma),
s^2 = 1 - c^2) is counted, so the spike becomes the Stein shrinker
1/(c^2/ell + s^2). The two estimators differ only in that slope.
"""

from __future__ import annotations

from .rmt import AspectRatio, EigenDecomposition
from .shrinkage import CovarianceEstimate


def rcml_estimate(
    decomp: EigenDecomposition,
    sigma2_hat: float,
    rank: int,
    ratio: AspectRatio | None = None,
) -> CovarianceEstimate:
    """Clipping estimate: the leading ``rank`` sample eigenvalues above the floor.

    The leading ``rank`` sample eigenvalues that exceed ``sigma2_hat`` are the
    estimate's spikes, with the decomposition's leading eigenvectors as their
    vectors; every other eigenvalue sits on the floor.
    """
    if not 0 <= rank < decomp.p:
        raise ValueError("rank must satisfy 0 <= rank < p")
    lead = decomp.eigenvalues[:rank]  # descending
    spikes = lead[lead > sigma2_hat]
    return CovarianceEstimate(
        sigma2_hat=sigma2_hat, spikes=spikes, vectors=decomp.leading(spikes.size), ratio=ratio
    )
