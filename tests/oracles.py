"""Independent reference implementations that only the tests need.

Each is the direct, unoptimized form of something the package computes
another way: the Marchenko-Pastur density (the package has only its closed
CDF), the whitened shrinkage map and its finite-difference slope (the
package has the analytic slope), a dense true covariance read through
solves (the package scores against a ``SpikedCovariance`` only), the dense
p x p form of a spiked estimate (the package keeps and writes its floor,
spikes and p x r vectors), the whole-matrix expression of a scene's
covariance (the package forms it a block of rows at a time), and a
training block's sample eigendecomposition from a copy of its SCM (a trial
reduces its SCM in place).
"""

import numpy as np

from cluttercov import (
    AspectRatio,
    ScattererClutter,
    SpikedClutter,
    SteeringSpec,
    ToeplitzClutter,
    eigh,
    f_map,
    g_map,
    sample_covariance,
    steering_vector,
    stein_shrinker,
)
from cluttercov.rng import substream
from cluttercov.scenario import _toeplitz_response


def mp_pdf(x, law):
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


def shrink_whitened(lam, gamma):
    """Whitened shrinkage map: stein_shrinker(f_map(lam)) above the bulk edge, 1 below."""
    if lam > (1.0 + np.sqrt(gamma)) ** 2:
        return stein_shrinker(f_map(lam, gamma), gamma)
    return 1.0


def eta_prime_fd(ell, gamma, rel_step=1e-6):
    """Slope of ``shrink_whitened`` at beta = g_map(ell), by central difference.

    The relative step is ``rel_step``; it agrees with the analytic chain-rule
    value to ~1e-6 relative.
    """
    beta = g_map(ell, gamma)
    h = rel_step * beta
    return (shrink_whitened(beta + h, gamma) - shrink_whitened(beta - h, gamma)) / (2.0 * h)


class DenseTruth:
    """A dense true covariance R, read by the metrics as they read a ``SpikedCovariance``.

    Every attribute comes from a direct solve or determinant of the p x p
    array: y^H R^{-1} y by ``np.linalg.solve``, tr(R^{-1}) from the inverse
    and log det R by ``slogdet``. It checks nothing, so a metric's own
    checks see an indefinite R as it is.
    """

    def __init__(self, r):
        self.matrix = np.asarray(r)
        self.trace_inv = float(np.real(np.trace(np.linalg.inv(self.matrix))))
        self.logdet = float(np.linalg.slogdet(self.matrix)[1])

    @property
    def p(self):
        return self.matrix.shape[0]

    def quad_inv(self, y):
        """y^H R^{-1} y for a p-vector or each column of a p x m matrix."""
        return np.real(np.sum(np.conj(y) * np.linalg.solve(self.matrix, y), axis=0))

    def apply(self, w):
        """R w for a p-vector or the columns of a p x m matrix."""
        return self.matrix @ w


def dense_estimate(estimate):
    """The p x p matrix s2 I + V diag(spikes - s2) V^H of a ``SpikedCovariance``."""
    s2, v = estimate.sigma2, estimate.vectors
    return (v * (estimate.spikes - s2)) @ v.conj().T + s2 * np.eye(estimate.p)


def dense_clutter_covariance(config):
    """(R_c + R_c^H) / 2 + sigma2 * I of a scene, each term a full p x p array.

    The expression ``synthesize_clutter_covariance`` is pinned to bit for
    bit: R_c is the sum of |a|^2 v v^H over the scatterers in order, H H^H
    for the Toeplitz response H, or U diag(spikes - sigma2) U^H for the
    seeded unitary U of spiked clutter. No checks and no warnings.
    """
    p = config.p
    clutter = config.clutter
    r_c = np.zeros((p, p), dtype=complex)
    if isinstance(clutter, SpikedClutter):
        rng = substream(config.seed, 0xBA515)
        z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        u = np.linalg.qr(z)[0][:, : clutter.spikes.size]
        r_c = (u * (clutter.spikes - config.sigma2)) @ u.conj().T
    elif isinstance(clutter, ScattererClutter):
        for sc in clutter.scatterers:
            v = steering_vector(SteeringSpec(sc.theta, sc.doppler, config.N, config.K))
            r_c += (abs(sc.amplitude) ** 2) * np.outer(v, v.conj())
    elif isinstance(clutter, ToeplitzClutter):
        h_mat = _toeplitz_response(clutter.taps, p, clutter.pulse_len)
        r_c = h_mat @ h_mat.conj().T
    return (r_c + r_c.conj().T) / 2.0 + config.sigma2 * np.eye(p)


def decomposed(train):
    """The sample eigendecomposition of p x n ``train`` and its aspect ratio: what ``detect`` reads."""
    return eigh(sample_covariance(train)), AspectRatio(*np.shape(train))
