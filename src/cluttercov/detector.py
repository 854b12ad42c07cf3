"""Low-rank adaptive matched filter (LR-AMF): one detection pass and its detection law.

The detector projects the estimated clutter subspace out of the test snapshot
and matched-filters what remains:

    T = |s^H P y|^2 / (sigma2_hat * ||P s||^2)

with P the projection off the top-rank sample eigenvectors V, applied as
P x = x - V (V^H x) so the p x p projector is never formed. Under the null T
is a unit-mean exponential, Exp(1), so detection compares T against the
threshold -log(p_fa). The report's ``chi2_statistic`` is 2 T, chi-squared
with one complex degree of freedom, and its ``raw_statistic`` is the
uncalibrated |s^H P y|^2 / ||P s||^2.

T normalizes by sigma2_hat, not by y^H P y, so this is a low-rank AMF, not
the paper's LR-ANMF |s^H P y|^2 / ((s^H P s)(y^H P y)) (ROADMAP item 4).

Only the sample eigenvectors and the noise power enter the statistic, so
the shrinkage and clipping estimates, which share both, drive identical
detectors.

``detect`` takes the p x n training block and the test cell y apart, as
the two views ``w[:, :n]`` and ``w[:, n]`` of one draw of n + 1 snapshots
(with the target added to y by ``inject_target``), and reads the training
block in place. Its steering vector is a plain p-vector in the frame of
those snapshots; the statistic is invariant when all are rotated by one
unitary, so snapshots drawn in R's eigenbasis pair with the rotated
steering vector V^H s. ``theoretical_pd`` reads the true covariance as a
``SpikedCovariance`` whose vectors are R's r leading eigenvectors, and the
steering p-vector in the frame of those vectors.

The detector holds no ``SpikedCovariance`` of its own: it projects off the
leading ``rank`` sample eigenvectors for any rank it is given, which need
not be the spikes that lie above sigma2_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rmt import AspectRatio
from .shrinkage import SpikedCovariance, cosine2, detect_spikes
from . import rmt

PD_SERIES_RTOL = 1e-12
PD_SERIES_MAX_TERMS = 10_000


@dataclass(frozen=True)
class DetectionReport:
    """One detection decision: the calibrated statistic against -log(p_fa).

    ``statistic`` is T, Exp(1) under the null, and ``raw_statistic`` the
    unwhitened matched-filter value; the threshold and the decision are
    derived from them and ``p_fa``.
    """

    statistic: float
    p_fa: float
    raw_statistic: float

    def __post_init__(self):
        if self.statistic < 0:
            raise ValueError("statistic must be nonnegative")

    @property
    def threshold(self) -> float:
        return float(-np.log(self.p_fa))

    @property
    def decision(self) -> bool:
        return bool(self.statistic > self.threshold)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "threshold": self.threshold,
            "decision": self.decision,
            "theoretical_pfa": self.p_fa,
            "chi2_statistic": 2.0 * self.statistic,
            "raw_statistic": self.raw_statistic,
        }


def _pd_series(mean: float, delta_threshold: float) -> float:
    """P(statistic > threshold) for the noncentral law, by Poisson-mixture series.

    The detection statistic under the alternative is |z|^2 with z a unit
    complex Gaussian of squared mean ``mean``; the tail is
    sum_k e^{-mean} mean^k / k! * Q(k + 1, threshold) with Q the regularized
    upper incomplete gamma. At integer order Q has the closed form of a
    Poisson tail, built term by term from Q(1, t) = e^{-t} by
    Q(k + 1, t) = Q(k, t) + e^{-t} t^k / k!. Terms are accumulated until they
    fall below PD_SERIES_RTOL of the running sum, capped at
    PD_SERIES_MAX_TERMS.
    """
    if mean < 0:
        raise ValueError("noncentrality must be nonnegative")
    if mean == 0.0:
        return float(np.exp(-delta_threshold))
    if mean > 0.25 * PD_SERIES_MAX_TERMS:
        # The Poisson mass lies above mean - 20 sqrt(mean) >= 1,500, past any
        # threshold -log(p_fa) <= 744.4, where Q(k + 1, threshold) = 1 to
        # working precision, so the tail is 1.
        return 1.0
    total = 0.0
    log_pmf = -mean  # log of Poisson pmf at k = 0
    log_t = math.log(delta_threshold)
    upper_gamma = 0.0  # Q(k + 1, t) once the k-th Poisson term of t is added
    for k in range(PD_SERIES_MAX_TERMS):
        if k > 0:
            log_pmf += np.log(mean) - np.log(k)
        upper_gamma += math.exp(k * log_t - delta_threshold - math.lgamma(k + 1))
        term = np.exp(log_pmf) * upper_gamma
        total += term
        # once past the Poisson mode the terms decay monotonically
        if k > mean and term < PD_SERIES_RTOL * max(total, 1e-300):
            break
    return float(min(total, 1.0))


def theoretical_pd(
    model: SpikedCovariance, steering: np.ndarray, amplitude: complex, p_fa: float, gamma: float
) -> float:
    """Asymptotic detection probability for a target of the given amplitude.

    ``steering`` is the target's p-vector in the frame of ``model.vectors``,
    the true clutter eigenvectors u_i (with R's spike vectors, R's frame).
    The leakage-corrected deflection uses the u_i and the eigenvector
    alignment c^2(ell_i), all in unit-noise (whitened) units:

        A  = ||P s_w||^2 + sum_i (1 - c^2_i) |s_w^H u_i|^2
        nu = 1 / A + sum_i (ell_i - 1)(1 - c^2_i) |s_w^H u_i|^2 / A^2

    and the exponential-calibrated statistic is noncentral with squared mean
    |amplitude|^2 / nu. For a clutter-free scene (p x 0 vectors) nu is
    1 / ||s_w||^2, so the squared mean is exactly the injected SNR
    |amplitude|^2 ||s||^2 / sigma2. The probability of detection is the
    Poisson-mixture series over the regularized upper incomplete gamma at
    threshold -log(p_fa).
    """
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie in (0, 1)")
    if np.shape(steering) != (model.p,):
        raise ValueError("steering dimension does not match the model")
    ells = model.whitened_spikes()
    edge = 1.0 + np.sqrt(gamma)
    if np.any(ells <= edge):
        raise ValueError("sub-critical spike")
    s_w = steering / np.sqrt(model.sigma2)
    overlap = np.abs(model.vectors.conj().T @ s_w) ** 2
    proj_norm2 = float(np.real(np.vdot(s_w, s_w)) - overlap.sum())
    c2 = np.array([cosine2(ell, gamma) for ell in ells])
    a_val = proj_norm2 + float(((1.0 - c2) * overlap).sum())
    nu = 1.0 / a_val + float(((ells - 1.0) * (1.0 - c2) * overlap).sum()) / a_val**2
    if not np.isfinite(nu) or nu <= 0:
        raise ValueError("divergent deflection")
    mean = abs(amplitude) ** 2 / nu
    return _pd_series(mean, float(-np.log(p_fa)))


def detect(
    train: np.ndarray, y: np.ndarray, steering: np.ndarray, rank: int | None, p_fa: float
) -> DetectionReport:
    """Low-rank AMF pass (not the LR-ANMF): p x n training ``train``, test snapshot ``y``.

    The training block yields the sample covariance, its leading ``rank``
    eigenvectors the clutter projection of the steering p-vector, and the
    noise power estimate. ``rank`` None means "estimate it": the count of
    ``shrinkage.detect_spikes``, the rule the shrinkage estimator detects its
    spikes by. ``train`` is never copied when it is contiguous in either
    order, as the training view ``w[:, :n]`` of a column-major draw is,
    and the sample covariance of that view is column-major and reduced in
    place by ``rmt.eigh``: besides its inputs, a call holds one p x p array,
    the sample covariance and then its reduction, and ``leading``'s solve,
    not a second p x n block or p x p copy. A non-finite test snapshot
    raises ValueError; non-finite training data fails in ``eigh``.
    """
    if np.ndim(train) != 2:
        raise ValueError("training snapshots must be a p x n array")
    p, n = np.shape(train)
    if rank is not None and not 0 <= rank < p:
        raise ValueError("rank must satisfy 0 <= rank < p")
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie in (0, 1)")
    if np.shape(y) != (p,):
        raise ValueError("test snapshot dimension does not match the training data")
    if np.shape(steering) != (p,):
        raise ValueError("steering dimension does not match snapshots")
    if n < p:
        raise ValueError("insufficient samples")
    if not np.all(np.isfinite(y)):
        raise ValueError("test snapshot must be finite")
    decomp = rmt.eigh(rmt.sample_covariance(train), overwrite_a=True)  # nothing else reads the SCM
    sigma2_hat, detected = detect_spikes(decomp, AspectRatio(p, n))
    v = decomp.leading(detected.size if rank is None else rank)
    ps = steering - v @ (v.conj().T @ steering)
    denom = float(np.real(np.vdot(ps, ps)))
    if denom <= 1e-12 * p:
        raise ValueError("target in clutter subspace")
    num = abs(np.vdot(ps, y)) ** 2  # |s^H P y|^2 with P Hermitian idempotent
    return DetectionReport(
        statistic=float(num / (sigma2_hat * denom)), p_fa=p_fa, raw_statistic=float(num / denom)
    )
