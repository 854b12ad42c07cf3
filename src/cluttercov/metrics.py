"""Scalar performance metrics: normalized SCNR, its bounds, MVDR variance, Stein loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .scenario import SteeringSpec, steering_vector
from .shrinkage import CovarianceEstimate, SpikedModel, cosine2, stein_shrinker


@dataclass(frozen=True)
class ScnrReport:
    """Kantorovich lower bound on the normalized SCNR.

    kappa is the condition number of the whitened mismatch matrix driving the
    bound.
    """

    lower_bound: float
    kappa: float

    def __post_init__(self):
        if not self.kappa >= 1.0:
            raise ValueError("kappa must be >= 1")
        if not 0.0 < self.lower_bound <= 1.0:
            raise ValueError("lower bound must lie in (0, 1]")


def _inverse_apply(estimate, vecs: np.ndarray) -> np.ndarray:
    """M^{-1} @ vecs: low rank for a spiked estimate, a dense solve otherwise."""
    if isinstance(estimate, CovarianceEstimate):
        return estimate.inverse_apply(vecs)
    m = np.asarray(estimate)
    if not np.all(np.isfinite(m)):
        raise ValueError("invalid matrix")
    return np.linalg.solve(m, vecs)


def normalized_scnr_batch(estimate, truth: np.ndarray, steerings: np.ndarray) -> np.ndarray:
    """Normalized SCNR for every steering column of ``steerings`` (p x m).

    For each target vector y the value is
    (y^H Rbar^{-1} y)^2 / ((y^H R^{-1} y) (y^H Rbar^{-1} R Rbar^{-1} y)),
    which is 1 exactly when Rbar is proportional to R and below 1 otherwise.
    """
    s = np.asarray(steerings)
    if s.ndim == 1:
        s = s[:, None]
    truth = np.asarray(truth)
    try:
        w = _inverse_apply(estimate, s)  # Rbar^{-1} y
        t = np.linalg.solve(truth, s)  # R^{-1} y
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular covariance input") from exc
    num = np.real(np.sum(s.conj() * w, axis=0)) ** 2
    den1 = np.real(np.sum(s.conj() * t, axis=0))
    den2 = np.real(np.sum(w.conj() * (truth @ w), axis=0))
    if np.any(den1 <= 0) or np.any(den2 <= 0):
        raise ValueError("covariance inputs must be positive definite")
    return num / (den1 * den2)


def normalized_scnr(estimate, truth: np.ndarray, target: SteeringSpec) -> float:
    """Normalized SCNR of an estimate against the true covariance at one target."""
    y = steering_vector(target)
    return float(normalized_scnr_batch(estimate, truth, y)[0])


def kantorovich_bound(
    truth_spectrum: SpikedModel,
    estimate: CovarianceEstimate | None,
    gamma: float,
) -> ScnrReport:
    """Lower bound on normalized SCNR from the per-spike whitening mismatch.

    Each true whitened spike ell pairs with the whitened eigenvalue eta the
    estimator assigns it (the Stein shrinker value when ``estimate`` is None,
    the realized estimate otherwise). The two pivot eigenvalues per spike are

        nu_pm = T/2 +- sqrt(T^2/4 - D),  D = eta / ell,
        T = (s^2 + eta c^2) / ell + c^2 + eta s^2,

    the condition number is kappa = max(1, max nu_+) / min(1, min nu_-), and
    the bound is 4 kappa / (kappa + 1)^2. With no spikes the whitening is
    perfect and the bound is 1.
    """
    ells = truth_spectrum.whitened_spikes()
    if ells.size == 0:
        return ScnrReport(lower_bound=1.0, kappa=1.0)
    if estimate is None:
        etas = np.array([stein_shrinker(ell, gamma) for ell in ells])
    else:
        s2 = estimate.sigma2_hat
        etas = np.ones(ells.size)
        k = min(estimate.spike_count, ells.size)
        etas[:k] = estimate.spikes[:k] / s2
    nu_plus = np.empty(ells.size)
    nu_minus = np.empty(ells.size)
    for i, (ell, eta) in enumerate(zip(ells, etas)):
        c2 = cosine2(ell, gamma)
        s2c = 1.0 - c2
        d = eta / ell
        t = (s2c + eta * c2) / ell + c2 + eta * s2c
        disc = t * t / 4.0 - d
        if disc < 0.0:
            if disc < -1e-12:
                raise ValueError("complex pivot")
            disc = 0.0
        root = np.sqrt(disc)
        nu_plus[i] = t / 2.0 + root
        nu_minus[i] = t / 2.0 - root
    kappa = max(1.0, nu_plus.max()) / min(1.0, nu_minus.min())
    bound = 4.0 * kappa / (kappa + 1.0) ** 2
    return ScnrReport(lower_bound=float(bound), kappa=float(kappa))


def mvdr_error_variance(m, target: SteeringSpec) -> float:
    """Beamformer error variance 1 / |s^H M^{-1} s| at the target steering vector."""
    s = steering_vector(target)
    try:
        w = _inverse_apply(m, s[:, None])[:, 0]
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular matrix") from exc
    quad = abs(np.vdot(s, w))
    if quad <= 0 or not np.isfinite(quad):
        raise ValueError("matrix must be positive definite")
    return float(1.0 / quad)


def stein_loss(truth: np.ndarray, estimate) -> float:
    """Stein loss tr(R^{-1} Rbar - I) - log det(R^{-1} Rbar), nonnegative.

    Zero exactly when the estimate equals the truth. Values within fp dust
    below zero are clamped to 0. A spiked ``CovarianceEstimate`` is scored
    without forming Rbar: with R = L L^H factored once,

        tr(R^{-1} Rbar) = s2 ||L^{-1}||_F^2 + sum_i (lam_i - s2) ||L^{-1} v_i||^2,
        log det(R^{-1} Rbar) = sum_i log(lam_i / s2) - sum_j log(L_jj^2 / s2),

    which is O(p^2 r) past the factorization. A dense ``estimate`` takes the
    direct path, the reference the spiked path is tested against.
    """
    r = np.asarray(truth)
    p = r.shape[0]
    try:
        if isinstance(estimate, CovarianceEstimate):
            if estimate.p != p:
                raise ValueError("shape mismatch")
            val = _stein_loss_spiked(r, estimate)
        else:
            val = _stein_loss_dense(r, np.asarray(estimate))
    except np.linalg.LinAlgError as exc:
        raise ValueError("truth must be positive definite") from exc
    if val < 0:
        if val < -1e-10 * p:
            raise ValueError("stein loss evaluated negative; inputs not PD?")
        val = 0.0
    return val


def _stein_loss_spiked(r: np.ndarray, estimate: CovarianceEstimate) -> float:
    s2 = estimate.sigma2_hat
    chol = sla.cholesky(r, lower=True)
    (trtri,) = sla.get_lapack_funcs(("trtri",), (chol,))
    chol_inv, info = trtri(chol, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("singular Cholesky factor")
    quad = np.sum(np.abs(chol_inv @ estimate.vectors) ** 2, axis=0)  # v_i^H R^{-1} v_i
    trace = s2 * np.sum(np.abs(chol_inv) ** 2) + np.sum((estimate.spikes - s2) * quad)
    logdet = np.sum(np.log(estimate.spikes / s2)) - np.sum(np.log(np.abs(np.diag(chol)) ** 2 / s2))
    return float(trace - r.shape[0] - logdet)


def _stein_loss_dense(r: np.ndarray, rbar: np.ndarray) -> float:
    if r.shape != rbar.shape:
        raise ValueError("shape mismatch")
    m = sla.cho_solve(sla.cho_factor(r, lower=True), rbar)  # R^{-1} Rbar
    sign, logdet = np.linalg.slogdet(m)
    if sign.real <= 0 or not np.isfinite(logdet):
        raise ValueError("estimate must be positive definite")
    return float(np.real(np.trace(m)) - r.shape[0] - logdet)
