"""Scalar performance metrics: normalized SCNR, its bounds, MVDR variance, Stein loss.

The SCNR and MVDR metrics take steering vectors as plain p-vectors (or the
columns of a p x m matrix), in the frame of the truth and the estimate.
Every metric is invariant when R, the estimate and the steering vectors are
rotated together by one unitary, so a caller may score in R's eigenbasis,
with R = diag(lam) and each steering vector s rotated to V^H s. There a
``DiagonalTruth`` scores against lam itself, in O(p) per vector, with no
p x p array; a dense R goes through the factors of a ``TruthFactor``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

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


class TruthFactor:
    """The true covariance R with the factors every metric needs, computed once.

    With R = L L^H (Cholesky), ``chol_inv`` is L^{-1} (LAPACK ``trtri``),
    ``trace_inv`` = ||L^{-1}||_F^2 = tr(R^{-1}) and ``logdet`` = log det R.
    A sweep scores every estimate against one R, so it builds this once; a
    metric handed a plain array factors it on entry. y^H R^{-1} y is then
    ||L^{-1} y||^2, with no solve. A non-finite or non-positive-definite R
    raises ValueError.
    """

    def __init__(self, truth: np.ndarray):
        r = np.asarray(truth)
        if r.ndim != 2 or r.shape[0] != r.shape[1] or not np.all(np.isfinite(r)):
            raise ValueError("truth must be a finite square matrix")
        try:
            chol = sla.cholesky(r, lower=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise ValueError("truth must be positive definite") from exc
        (trtri,) = sla.get_lapack_funcs(("trtri",), (chol,))
        chol_inv, info = trtri(chol, lower=1)
        if info != 0:
            raise ValueError("truth must be positive definite")
        self.matrix = r
        self.chol_inv = chol_inv
        self.trace_inv = float(np.sum(np.abs(chol_inv) ** 2))
        self.logdet = float(np.sum(np.log(np.abs(np.diag(chol)) ** 2)))

    @property
    def p(self) -> int:
        return self.matrix.shape[0]

    def quad_inv(self, y: np.ndarray) -> np.ndarray:
        """y^H R^{-1} y for each column of ``y``, as ||L^{-1} y||^2."""
        return np.sum(np.abs(self.chol_inv @ y) ** 2, axis=0)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """R w for a p-vector or the columns of a p x m matrix."""
        return self.matrix @ w


class DiagonalTruth:
    """A diagonal true covariance R = diag(lam), scored from the p-vector lam alone.

    The metrics' interface of a ``TruthFactor`` in O(p) per vector:
    y^H R^{-1} y = sum |y|^2 / lam, tr(R^{-1}) = sum 1 / lam,
    log det R = sum log lam and R w = lam * w. No p x p array is held; only
    ``matrix``, which builds diag(lam) on each use, serves a dense estimate.
    A non-finite or non-positive lam raises ValueError.
    """

    def __init__(self, eigenvalues: np.ndarray):
        lam = np.asarray(eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0 or not np.all(np.isfinite(lam)):
            raise ValueError("truth must be a finite nonempty vector of eigenvalues")
        if not np.all(lam > 0.0):
            raise ValueError("truth must be positive definite")
        self.eigenvalues = lam
        self.trace_inv = float(np.sum(1.0 / lam))
        self.logdet = float(np.sum(np.log(lam)))

    @property
    def p(self) -> int:
        return self.eigenvalues.size

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.eigenvalues)

    def _column(self, x: np.ndarray) -> np.ndarray:
        """lam shaped to broadcast down the columns of ``x``."""
        return self.eigenvalues.reshape((-1,) + (1,) * (np.ndim(x) - 1))

    def quad_inv(self, y: np.ndarray) -> np.ndarray:
        """y^H R^{-1} y for each column of ``y``, as sum |y|^2 / lam."""
        return np.sum(np.abs(y) ** 2 / self._column(y), axis=0)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """R w = lam * w for a p-vector or the columns of a p x m matrix."""
        return self._column(w) * w


def _factored(truth) -> TruthFactor | DiagonalTruth:
    return truth if isinstance(truth, (TruthFactor, DiagonalTruth)) else TruthFactor(truth)


def _inverse_apply(estimate, vecs: np.ndarray) -> np.ndarray:
    """M^{-1} @ vecs: low rank for a spiked estimate, a dense solve otherwise."""
    if isinstance(estimate, CovarianceEstimate):
        return estimate.inverse_apply(vecs)
    m = np.asarray(estimate)
    if not np.all(np.isfinite(m)):
        raise ValueError("invalid matrix")
    return np.linalg.solve(m, vecs)


def normalized_scnr_batch(estimate, truth, steerings: np.ndarray) -> np.ndarray:
    """Normalized SCNR for every steering column of ``steerings`` (p x m).

    For each target vector y the value is
    (y^H Rbar^{-1} y)^2 / ((y^H R^{-1} y) (y^H Rbar^{-1} R Rbar^{-1} y)),
    which is 1 exactly when Rbar is proportional to R and below 1 otherwise.
    ``truth`` is R as a ``TruthFactor``, a ``DiagonalTruth`` or a plain
    array.
    """
    s = np.asarray(steerings)
    if s.ndim == 1:
        s = s[:, None]
    truth = _factored(truth)
    try:
        w = _inverse_apply(estimate, s)  # Rbar^{-1} y
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular covariance input") from exc
    num = np.real(np.sum(s.conj() * w, axis=0)) ** 2
    den1 = truth.quad_inv(s)
    den2 = np.real(np.sum(w.conj() * truth.apply(w), axis=0))
    if np.any(den1 <= 0) or np.any(den2 <= 0):
        raise ValueError("covariance inputs must be positive definite")
    return num / (den1 * den2)


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


def mvdr_error_variance(m, steering: np.ndarray) -> float:
    """Beamformer error variance 1 / |s^H M^{-1} s| at the steering p-vector s.

    ``m`` is a ``CovarianceEstimate`` (inverted through its low-rank form) or
    a covariance as a ``TruthFactor``, a ``DiagonalTruth`` or a plain array,
    which must be positive definite.
    """
    s = np.asarray(steering)
    if isinstance(m, CovarianceEstimate):
        quad = abs(np.vdot(s, m.inverse_apply(s[:, None])[:, 0]))
    else:
        quad = float(_factored(m).quad_inv(s))
    if quad <= 0 or not np.isfinite(quad):
        raise ValueError("matrix must be positive definite")
    return float(1.0 / quad)


def stein_loss(truth, estimate) -> float:
    """Stein loss tr(R^{-1} Rbar - I) - log det(R^{-1} Rbar), nonnegative.

    Zero exactly when the estimate equals the truth. Values within fp dust
    below zero are clamped to 0. ``truth`` is R as a ``TruthFactor``, a
    ``DiagonalTruth`` or a plain array. A spiked ``CovarianceEstimate`` is
    scored in closed form from the truth's y^H R^{-1} y, tr(R^{-1}) and
    log det R, without forming Rbar:

        tr(R^{-1} Rbar) = s2 tr(R^{-1}) + sum_i (lam_i - s2) v_i^H R^{-1} v_i,
        log det(R^{-1} Rbar) = sum_i log(lam_i / s2) + p log s2 - log det R,

    which is O(p^2 r) through a ``TruthFactor`` and O(pr) through a
    ``DiagonalTruth``. A dense ``estimate`` takes the direct path, the
    reference the spiked path is tested against.
    """
    truth = _factored(truth)
    p = truth.p
    if isinstance(estimate, CovarianceEstimate):
        if estimate.p != p:
            raise ValueError("shape mismatch")
        val = _stein_loss_spiked(truth, estimate)
    else:
        val = _stein_loss_dense(truth.matrix, np.asarray(estimate))
    if val < 0:
        if val < -1e-10 * p:
            raise ValueError("stein loss evaluated negative; inputs not PD?")
        val = 0.0
    return val


def _stein_loss_spiked(truth, estimate: CovarianceEstimate) -> float:
    s2 = estimate.sigma2_hat
    quad = truth.quad_inv(estimate.vectors)  # v_i^H R^{-1} v_i
    trace = s2 * truth.trace_inv + np.sum((estimate.spikes - s2) * quad)
    logdet = np.sum(np.log(estimate.spikes / s2)) + truth.p * np.log(s2) - truth.logdet
    return float(trace - truth.p - logdet)


def _stein_loss_dense(r: np.ndarray, rbar: np.ndarray) -> float:
    if r.shape != rbar.shape:
        raise ValueError("shape mismatch")
    m = sla.cho_solve(sla.cho_factor(r, lower=True), rbar)  # R^{-1} Rbar
    sign, logdet = np.linalg.slogdet(m)
    if sign.real <= 0 or not np.isfinite(logdet):
        raise ValueError("estimate must be positive definite")
    return float(np.real(np.trace(m)) - r.shape[0] - logdet)
