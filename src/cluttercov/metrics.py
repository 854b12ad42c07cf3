"""Scalar performance metrics: normalized SCNR, its bounds, MVDR variance, Stein loss.

Every metric scores a spiked estimate against the true covariance R, both
``SpikedCovariance``s, and reads the truth by attribute alone: ``p``,
``quad_inv`` (y^H R^{-1} y per column), ``apply`` (R w), ``trace_inv`` and
``logdet``. The SCNR and MVDR metrics take steering vectors as plain
p-vectors (or the columns of a p x m matrix), in the frame of the truth and
the estimate. Every metric is invariant when R, the estimate and the
steering vectors are rotated together by one unitary, so the callers score
in R's eigenbasis, with each steering vector s rotated to V^H s. There the
one truth is the scene's ``SpikedCovariance.diagonal``, in O(pr) per
vector: R's eigenvalues within 1e-6 of sigma2 count as its floor
(``scenario.truth_spiked_model``).
"""

from __future__ import annotations

import numpy as np

from .shrinkage import SpikedCovariance, cosine2


def normalized_scnr_batch(
    estimate: SpikedCovariance, truth, steerings: np.ndarray, truth_quad: np.ndarray
) -> np.ndarray:
    """Normalized SCNR for every steering column of ``steerings`` (p x m).

    For each target vector y the value is
    (y^H Rbar^{-1} y)^2 / ((y^H R^{-1} y) (y^H Rbar^{-1} R Rbar^{-1} y)),
    which is 1 exactly when Rbar is proportional to R and below 1 otherwise.
    Rbar^{-1} y comes from the estimate's low-rank form. ``truth_quad`` is
    the truth's y^H R^{-1} y per column, ``truth.quad_inv(steerings)``: it
    does not depend on the estimate, so a sweep forms it once per row of
    steering vectors for all its trials and both estimators.
    """
    s = np.asarray(steerings)
    if s.ndim == 1:
        s = s[:, None]
    w = estimate.inverse_apply(s)  # Rbar^{-1} y
    num = np.real(np.sum(s.conj() * w, axis=0)) ** 2
    den2 = np.real(np.sum(w.conj() * truth.apply(w), axis=0))
    if np.any(truth_quad <= 0) or np.any(den2 <= 0):
        raise ValueError("covariance inputs must be positive definite")
    return num / (truth_quad * den2)


def kantorovich_bound(truth: SpikedCovariance, estimate: SpikedCovariance, gamma: float) -> float:
    """Lower bound on normalized SCNR from the per-spike whitening mismatch.

    Each true whitened spike ell pairs with the whitened eigenvalue eta the
    estimate assigns it: its spike of the same rank over its floor, or 1
    past its spike count. The two pivot eigenvalues per spike are

        nu_pm = T/2 +- sqrt(T^2/4 - D),  D = eta / ell,
        T = (s^2 + eta c^2) / ell + c^2 + eta s^2,

    the condition number of the whitened mismatch matrix is
    kappa = max(1, max nu_+) / min(1, min nu_-), and the bound is
    4 kappa / (kappa + 1)^2, in (0, 1]. With no spikes the whitening is
    perfect and the bound is 1.
    """
    ells = truth.whitened_spikes()
    if ells.size == 0:
        return 1.0
    etas = np.ones(ells.size)
    k = min(estimate.r, ells.size)
    etas[:k] = estimate.spikes[:k] / estimate.sigma2
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
    bound = float(4.0 * kappa / (kappa + 1.0) ** 2)
    if not 0.0 < bound <= 1.0:
        raise ValueError("lower bound must lie in (0, 1]")
    return bound


def mvdr_error_variance(m, steering: np.ndarray) -> float:
    """Beamformer error variance 1 / (s^H M^{-1} s) at the steering p-vector s.

    ``m`` is an estimate or a truth, read through its ``quad_inv``, and must
    be positive definite.
    """
    quad = float(m.quad_inv(np.asarray(steering)))
    if quad <= 0 or not np.isfinite(quad):
        raise ValueError("matrix must be positive definite")
    return float(1.0 / quad)


def stein_loss(truth, estimate: SpikedCovariance) -> float:
    """Stein loss tr(R^{-1} Rbar - I) - log det(R^{-1} Rbar), nonnegative.

    Zero exactly when the estimate equals the truth. Values within fp dust
    below zero are clamped to 0. The spiked estimate is scored in closed form
    from the truth's y^H R^{-1} y, tr(R^{-1}) and log det R, without forming
    Rbar:

        tr(R^{-1} Rbar) = s2 tr(R^{-1}) + sum_i (lam_i - s2) v_i^H R^{-1} v_i,
        log det(R^{-1} Rbar) = sum_i log(lam_i / s2) + p log s2 - log det R,

    which is O(pr^2) through a ``SpikedCovariance``.
    """
    p = truth.p
    if estimate.p != p:
        raise ValueError("shape mismatch")
    s2 = estimate.sigma2
    quad = truth.quad_inv(estimate.vectors)  # v_i^H R^{-1} v_i
    trace = s2 * truth.trace_inv + np.sum((estimate.spikes - s2) * quad)
    logdet = np.sum(np.log(estimate.spikes / s2)) + p * np.log(s2) - truth.logdet
    val = float(trace - p - logdet)
    if val < 0:
        if val < -1e-10 * p:
            raise ValueError("stein loss evaluated negative; inputs not PD?")
        val = 0.0
    return val
