"""Marchenko-Pastur law, sample covariance, and the Hermitian eigendecomposition contract.

Everything downstream (shrinkage, clipping baseline, detector, metrics) is built
on three primitives: the MP density/median at aspect ratio gamma = p/n, the
sample covariance of a p x n snapshot array (a Hermitian rank-n update,
returned as a plain Hermitian p x p array), and a descending-order Hermitian
eigendecomposition. The estimators need every eigenvalue but only the r
leading eigenvectors, so ``eigh`` does one Householder tridiagonal reduction
(O(p^3), about a third of a full ``np.linalg.eigh``), takes all eigenvalues
from the tridiagonal in O(p^2), and computes eigenvectors only when a caller
asks for them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate, linalg, optimize
from scipy.linalg import blas, lapack


class RegimeWarning(UserWarning):
    """Inputs are outside the p < n regime where the asymptotic theory is guaranteed."""


class ModelOrderWarning(UserWarning):
    """Clutter rank exceeds the spiked-model budget of 0.1 * p."""


SPIKE_FRACTION_BUDGET = 0.1  # max clutter rank as a fraction of dimension
_MIRROR_BLOCK = 64  # rows per step of the in-place triangle mirror


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


class EigenDecomposition:
    """Spectral factorization of a Hermitian matrix, eigenvalues descending.

    ``eigenvalues`` holds all p eigenvalues. ``leading(k)`` returns the p x k
    unit eigenvectors paired with ``eigenvalues[:k]`` and ``eigenvectors``
    the full p x p basis, column i paired with eigenvalues[i]. Ties may take
    any orthonormal basis of their eigenspace. Orthonormality
    (max |V^H V - I| < 1e-10) and reconstruction to 1e-8 relative are
    contractual and exercised by the test suite rather than recomputed on
    every construction.

    A decomposition built from explicit ``eigenvectors`` serves both from that
    basis. One built by ``eigh`` holds its Householder reduction instead:
    ``leading(k)`` solves the tridiagonal for only the k vectors (MRRR,
    LAPACK ``dstemr``) and back-transforms them through the stored
    reflectors in O(p^2 k), and the returned block is the caller's own. The
    full basis is ``np.linalg.eigh`` of the symmetrized matrix, computed on
    first access. Only the snapshot sampler reads it: its factor fixes every
    random draw, so it keeps the LAPACK basis the recorded outputs were made
    with, which a ``leading(p)`` basis would not match on the degenerate
    noise floor. Once built, that basis also serves ``leading`` and the
    reduction is released.
    """

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray | None = None,
                 *, _reduction: tuple | None = None):
        lam = np.asarray(eigenvalues, dtype=float)
        if lam.ndim != 1:
            raise ValueError("eigenvalues must be length p")
        if (eigenvectors is None) == (_reduction is None):
            raise ValueError("exactly one of eigenvectors and a reduction is required")
        if eigenvectors is not None:
            eigenvectors = np.asarray(eigenvectors)
            if eigenvectors.shape != (lam.size, lam.size):
                raise ValueError("eigenvalues must be length p, eigenvectors p x p")
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        self._eigenvalues = lam
        self._basis = eigenvectors
        # (packed, d, e, tau): see ``eigh`` for the layout of ``packed``
        self._reduction = _reduction

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    @property
    def p(self) -> int:
        return self._eigenvalues.size

    @property
    def eigenvectors(self) -> np.ndarray:
        """The full p x p eigenvector basis, built on first access."""
        if self._basis is None:
            packed = self._reduction[0]
            # np.linalg.eigh reads only the lower triangle, which ``packed``
            # keeps equal to the symmetrized matrix
            self._basis = np.linalg.eigh(packed)[1][:, ::-1].copy()
            self._reduction = None
        return self._basis

    def leading(self, k: int) -> np.ndarray:
        """The p x k unit eigenvectors of the k largest eigenvalues, in descending order."""
        p = self.p
        if not 0 <= k <= p:
            raise ValueError("k must satisfy 0 <= k <= p")
        if self._basis is not None:
            return self._basis[:, :k]
        packed, d, e, tau = self._reduction
        if k == 0:
            return np.zeros((p, 0), dtype=packed.dtype)
        z = linalg.eigh_tridiagonal(
            d, e, select="i", select_range=(p - k, p - 1), lapack_driver="stemr"
        )[1]
        vec = z[:, ::-1].astype(packed.dtype)
        if p > 1:
            # ?unmtr with uplo = L is ?unmqr on rows 1: with the reflectors
            # stored from row 1 of the reduced (Fortran-ordered) matrix. That
            # block starts one element into the buffer with leading dimension
            # p; the view below has it in its first p - 1 rows, which are
            # all ?unmqr reads, so the reflectors are never copied.
            reflectors = packed.reshape(-1)[1 : 1 + p * (p - 1)].reshape((p, p - 1), order="F")
            unmqr = lapack.zunmqr if np.iscomplexobj(packed) else lapack.dormqr
            work = unmqr("L", "N", reflectors, tau, vec[1:], lwork=-1)[1]
            out, _, info = unmqr("L", "N", reflectors, tau, vec[1:], lwork=int(work[0].real))
            if info != 0:
                raise np.linalg.LinAlgError(f"?unmqr failed with info = {info}")
            vec[1:] = out
        # the reduction was of the Fortran view packed.T = conj(A)
        return vec.conj()

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

    Formed by one Hermitian rank-n update (BLAS ``zherk``, ``dsyrk`` for real
    data), half the flops of a general product. The update runs on Y^T,
    which a C-ordered Y passes without a copy: it gives (Y^T)^H Y^T =
    conj(Y Y^H) in its lower triangle, whose transpose is the upper triangle
    of Y Y^H. That is mirrored into the lower one in place, so the result is
    Hermitian exactly with a real diagonal. Finiteness is left to ``eigh``,
    which checks it. n < p is accepted (the matrix is still well defined) but
    flagged with a RegimeWarning: downstream shrinkage refuses such
    decompositions.
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
    rank_n_update = blas.zherk if np.iscomplexobj(data) else blas.dsyrk
    scm = rank_n_update(1.0 / n, data.T, trans=2, lower=1).T
    for i in range(0, p, _MIRROR_BLOCK):
        j = min(i + _MIRROR_BLOCK, p)
        scm[j:, i:j] = scm[i:j, j:].conj().T
        block = scm[i:j, i:j]
        block[...] = np.triu(block) + np.triu(block, 1).conj().T
    return scm


def eigh(matrix: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized as (A + A^H)/2, which absorbs the accumulation
    error of covariance averaging. One blocked Householder reduction to
    tridiagonal form (``zhetrd``, ``dsytrd`` for real input) then yields all
    eigenvalues through ``dsterf``; eigenvectors are left to
    ``EigenDecomposition.leading`` and ``.eigenvectors``, which compute them
    only when asked.

    The reduction runs in place on the Fortran view of the symmetrized
    matrix, which is its transpose conj(A). Its reflectors fill the upper
    triangle of the C-ordered array; the lower triangle is not referenced and
    keeps A, and the diagonal is restored, so the one p x p buffer holds both
    the reflectors and the matrix the full basis is later computed from.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("invalid matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("invalid matrix")
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    scale = max(np.abs(m).max(), 1.0)
    mh = m.conj().T
    if np.abs(m - mh).max() > 1e-10 * scale:
        raise ValueError("invalid matrix")
    packed = np.add(m, mh, order="C")
    del mh
    packed /= 2.0
    p = packed.shape[0]
    diagonal = packed.diagonal().copy()
    if np.iscomplexobj(packed):
        reduce, lwork = lapack.zhetrd, lapack.zhetrd_lwork(p, lower=1)[0].real
    else:
        reduce, lwork = lapack.dsytrd, lapack.dsytrd_lwork(p, lower=1)[0]
    reduced, d, e, tau, info = reduce(packed.T, lower=1, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal reduction failed with info = {info}")
    packed = reduced.T  # ``packed`` itself unless the wrapper had to copy
    np.fill_diagonal(packed, diagonal)
    lam = linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
    return EigenDecomposition(lam[::-1].copy(), _reduction=(packed, d, e, tau))
