"""Low-rank adaptive normalized matched filter: statistic, thresholds, detection laws.

The detector projects the estimated clutter subspace out of the test snapshot
and matched-filters what remains. The statistic is calibrated so that under
the null it follows a chi-squared law with one complex degree of freedom:

    T = 2 |s^H P y|^2 / (sigma2_hat * ||P s||^2)

with P the projection off the top-rank sample eigenvectors V, applied as
P x = x - V (V^H x) so the p x p projector is never formed. T / 2 is then a
unit-mean exponential under the null, so the threshold for a false-alarm
probability p_fa is simply -log(p_fa), and detection compares T / 2 against
it. The uncalibrated |s^H P y|^2 / ||P s||^2 value is reported alongside for
transparency.

Only the sample eigenvectors and the noise power enter the statistic, so
the shrinkage and clipping estimates, which share both, drive identical
detectors.

``detect`` takes a plain p x (n + 1) snapshot array: the last column is the
test snapshot and the n columns before it are the training data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .rmt import AspectRatio, EigenDecomposition
from .scenario import SteeringSpec, steering_vector
from .shrinkage import SpikedModel, cosine2, estimate_noise
from . import rmt

PD_SERIES_RTOL = 1e-12
PD_SERIES_MAX_TERMS = 10_000


@dataclass(frozen=True)
class DetectorConfig:
    """Detection setup: clutter rank for the projection, target false-alarm rate.

    ``rank`` None means "estimate it": the detector counts the training
    eigenvalues above the spike-detection edge, the same count the shrinkage
    estimator reports.
    """

    rank: int | None
    p_fa: float

    def __post_init__(self):
        if self.rank is not None and self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if not 0.0 < self.p_fa < 1.0:
            raise ValueError("p_fa must lie in (0, 1)")

    @property
    def threshold(self) -> float:
        return threshold_for_pfa(self.p_fa)


@dataclass(frozen=True)
class DetectionReport:
    """One detection decision with its calibrated statistic and laws.

    ``statistic`` is the exponential-calibrated value (T / 2) compared against
    ``threshold`` = -log(p_fa) and ``raw_statistic`` the unwhitened
    matched-filter value; the decision, the false-alarm rate the threshold
    implies and the chi-squared-scaled T are derived from them.
    """

    statistic: float
    threshold: float
    raw_statistic: float

    def __post_init__(self):
        if self.statistic < 0:
            raise ValueError("statistic must be nonnegative")

    @property
    def decision(self) -> bool:
        return bool(self.statistic > self.threshold)

    @property
    def theoretical_pfa(self) -> float:
        return float(np.exp(-self.threshold))

    @property
    def chi2_statistic(self) -> float:
        return 2.0 * self.statistic

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "threshold": self.threshold,
            "decision": self.decision,
            "theoretical_pfa": self.theoretical_pfa,
            "chi2_statistic": self.chi2_statistic,
            "raw_statistic": self.raw_statistic,
        }


def clutter_projection(decomp: EigenDecomposition, rank: int, x: np.ndarray) -> np.ndarray:
    """P x for P the projection off the span of the top-``rank`` sample eigenvectors.

    P x = x - V (V^H x) with V the leading p x rank eigenvector block; P is
    Hermitian and idempotent with trace p - rank, and rank 0 returns x.
    """
    if not 0 <= rank < decomp.p:
        raise ValueError("rank must satisfy 0 <= rank < p")
    v = decomp.leading(rank)
    return x - v @ (v.conj().T @ x)


def test_statistic(y: np.ndarray, ps: np.ndarray, sigma2_hat: float) -> float:
    """Chi-squared-calibrated matched-filter statistic of one test snapshot.

    T = 2 |s^H P y|^2 / (sigma2_hat ||P s||^2) from the projected steering
    vector ``ps`` = P s; under the null with the true clutter rank this
    converges to a chi-squared law with one complex degree of freedom (mean 2).
    """
    denom = float(np.real(np.vdot(ps, ps)))
    if denom <= 1e-12 * ps.size:
        raise ValueError("target in clutter subspace")
    num = abs(np.vdot(ps, y)) ** 2  # s^H P y with P Hermitian idempotent
    return float(2.0 * num / (sigma2_hat * denom))


def threshold_for_pfa(p_fa: float) -> float:
    """Detection threshold -log(p_fa) for the exponential-calibrated statistic."""
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie in (0, 1)")
    return float(-np.log(p_fa))


def _pd_series(mean: float, delta_threshold: float) -> float:
    """P(statistic > threshold) for the noncentral law, by Poisson-mixture series.

    The detection statistic under the alternative is |z|^2 with z a unit
    complex Gaussian of squared mean ``mean``; the tail is
    sum_k e^{-mean} mean^k / k! * Q(k + 1, threshold) with Q the regularized
    upper incomplete gamma. Terms are accumulated until they fall below
    PD_SERIES_RTOL of the running sum, capped at PD_SERIES_MAX_TERMS.
    """
    if mean < 0:
        raise ValueError("noncentrality must be nonnegative")
    if mean == 0.0:
        return float(np.exp(-delta_threshold))
    if mean > 0.25 * PD_SERIES_MAX_TERMS:
        # The Poisson mode approaches the term cap; every term retained there
        # has Q(k + 1, threshold) = 1 to working precision for any sane
        # threshold, so the tail is 1.
        if delta_threshold < mean - 20.0 * np.sqrt(mean):
            return 1.0
        raise ValueError("noncentrality too large for the series cap")
    total = 0.0
    log_pmf = -mean  # log of Poisson pmf at k = 0
    for k in range(PD_SERIES_MAX_TERMS):
        if k > 0:
            log_pmf += np.log(mean) - np.log(k)
        term = np.exp(log_pmf) * special.gammaincc(k + 1, delta_threshold)
        total += term
        # once past the Poisson mode the terms decay monotonically
        if k > mean and term < PD_SERIES_RTOL * max(total, 1e-300):
            break
    return float(min(total, 1.0))


def theoretical_pd(
    model: SpikedModel,
    target: SteeringSpec,
    amplitude: complex,
    p_fa: float,
    gamma: float,
    eigvecs_truth: np.ndarray | None = None,
) -> float:
    """Asymptotic detection probability for a target of the given amplitude.

    The leakage-corrected deflection uses the true clutter eigvectors u_i and
    the eigenvector alignment c^2(ell_i), all in unit-noise (whitened) units:

        A  = ||P s_w||^2 + sum_i (1 - c^2_i) |s_w^H u_i|^2
        nu = 1 / A + sum_i (ell_i - 1)(1 - c^2_i) |s_w^H u_i|^2 / A^2

    and the exponential-calibrated statistic is noncentral with squared mean
    |amplitude|^2 / nu, which for a clutter-free scene reduces exactly to the
    injected SNR |amplitude|^2 ||s||^2 / sigma2. The probability of detection
    is the Poisson-mixture series over the regularized upper incomplete gamma
    at threshold -log(p_fa).
    """
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie in (0, 1)")
    ells = model.whitened_spikes()
    edge = 1.0 + np.sqrt(gamma)
    if np.any(ells <= edge):
        raise ValueError("sub-critical spike")
    s_w = steering_vector(target) / np.sqrt(model.sigma2)
    if ells.size:
        if eigvecs_truth is None:
            raise ValueError("eigvecs_truth required when the model has spikes")
        u = np.asarray(eigvecs_truth)
        if u.shape != (model.p, ells.size):
            raise ValueError("eigvecs_truth must be p x r")
        overlap = np.abs(u.conj().T @ s_w) ** 2
        proj_norm2 = float(np.real(np.vdot(s_w, s_w)) - overlap.sum())
        c2 = np.array([cosine2(ell, gamma) for ell in ells])
        a_val = proj_norm2 + float(((1.0 - c2) * overlap).sum())
        nu = 1.0 / a_val + float(((ells - 1.0) * (1.0 - c2) * overlap).sum()) / a_val**2
    else:
        nu = 1.0 / float(np.real(np.vdot(s_w, s_w)))
    if not np.isfinite(nu) or nu <= 0:
        raise ValueError("divergent deflection")
    mean = abs(amplitude) ** 2 / nu
    return _pd_series(mean, threshold_for_pfa(p_fa))


def detect(snapshots: np.ndarray, target: SteeringSpec, config: DetectorConfig) -> DetectionReport:
    """Full detection pass on p x (n + 1) snapshots whose last column is the test snapshot.

    The n training columns before it (a view, not a copy) yield the sample
    covariance, its leading eigenvectors the clutter projection of the
    steering vector, and the noise power estimate. A non-finite test
    snapshot raises ValueError; non-finite training data fails in ``eigh``.
    """
    y, train = snapshots[:, -1], snapshots[:, :-1]
    p, n = train.shape
    if n < p:
        raise ValueError("insufficient samples")
    if not np.all(np.isfinite(y)):
        raise ValueError("test snapshot must be finite")
    decomp = rmt.eigh(rmt.sample_covariance(train))
    ratio = AspectRatio(p, n)
    sigma2_hat = estimate_noise(decomp, ratio)
    rank = config.rank
    if rank is None:
        edge2 = (1.0 + np.sqrt(ratio.gamma)) ** 2
        rank = int(np.count_nonzero(decomp.eigenvalues / sigma2_hat > edge2))
    ps = clutter_projection(decomp, rank, steering_vector(target))
    raw = abs(np.vdot(ps, y)) ** 2 / float(np.real(np.vdot(ps, ps)))
    return DetectionReport(
        statistic=test_statistic(y, ps, sigma2_hat) / 2.0,
        threshold=config.threshold,
        raw_statistic=float(raw),
    )
