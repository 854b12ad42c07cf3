"""Marchenko-Pastur law, sample covariance, and the Hermitian eigendecomposition contract.

Everything downstream (shrinkage, clipping baseline, detector, metrics) is built
on three primitives: the MP CDF and median at aspect ratio gamma = p/n,
both in closed form (the median by Newton's method on the CDF),
the sample covariance of a p x n snapshot array (a Hermitian rank-n update,
returned as a plain Hermitian p x p array), and a descending-order Hermitian
eigendecomposition. Every matrix they form is complex128 and column-major,
as LAPACK's complex routines take it: real input is read as complex. The
estimators need every eigenvalue but only the r
leading eigenvectors, so ``eigh`` does one Householder tridiagonal reduction
(O(p^3), about a third of a full dense ``zheevd``), takes all eigenvalues
from the tridiagonal in O(p^2), and returns an ``EigenDecomposition`` that
computes leading eigenvectors only when asked. The reduction is of A in a
column-major array, A = Q T Q^H: a copy, or the caller's own array when
the caller hands it over (``overwrite_a``), as each Monte Carlo trial does
with its sample covariance. As in LAPACK's ``uplo = L`` routines, A and
then its reduction live in the array's lower triangle, diagonal included:
after the symmetrize-and-check pass nothing reads the strictly upper
triangle, so that pass does not form it. So the full basis is V = Q Z
with Z the tridiagonal's own eigenvectors: the decomposition applies V^H x
and V x from it, and no caller forms V as a p x p array or reduces A again.

LAPACK and BLAS are scipy's own f2py wrappers, bound from its compiled
``scipy.linalg._flapack`` and ``_fblas`` extension modules rather than
through the ``scipy.linalg`` package, whose import costs about 0.2 s of
every command's start-up (on recent scipy its array-API layer also loads
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``) for Python code this
module never calls. scipy's folder is found without importing scipy
either: its package ``__init__`` (``scipy._lib`` and, through
``_testutils``, ``subprocess``) costs about 1.4 MB and 8 ms of every
process. It is imported only where a module will not load from its file
alone, as on Windows wheels, whose ``__init__`` puts the DLLs on the
search path. The two tridiagonal solves call ``dsterf`` and ``dstemr``
directly, with the finiteness and ``info`` checks ``scipy.linalg`` makes
around them.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np


class RegimeWarning(UserWarning):
    """Inputs are outside the p < n regime where the asymptotic theory is guaranteed."""


class ModelOrderWarning(UserWarning):
    """Clutter rank exceeds the spiked-model budget of 0.1 * p."""


SPIKE_FRACTION_BUDGET = 0.1  # max clutter rank as a fraction of dimension
_MIRROR_BLOCK = 64  # tile side of the SCM mirror and of the symmetrize-and-check pass
_MEDIAN_MAX_STEPS = 100  # cap on Newton steps for the MP median, which takes under ten


def _scipy_extension(name: str):
    """scipy's compiled module ``scipy.linalg.<name>``, without running scipy's package code.

    A module already imported is reused. Otherwise it is loaded from its
    file in the folder ``find_spec`` gives for scipy, which imports
    nothing. An f2py module is a single-phase extension, which registers
    itself in ``sys.modules`` as it loads, so a later ``import scipy.linalg``
    shares it. Where that load fails, as where only scipy's ``__init__``
    puts the DLLs on the search path, scipy is imported and the load tried
    again.
    """
    qualified = f"scipy.linalg.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    spec = importlib.util.find_spec("scipy")
    try:
        if spec is None:
            raise ImportError("scipy is not installed")
        return _load_file(qualified, Path(spec.origin).parent / "linalg" / name, suffixes)
    except ImportError:
        import scipy

        return _load_file(qualified, Path(scipy.__file__).parent / "linalg" / name, suffixes)


def _load_file(qualified: str, stem: Path, suffixes):
    """Module ``qualified`` executed from the first file ``<stem><suffix>`` there is."""
    for suffix in suffixes:
        path = Path(f"{stem}{suffix}")
        if path.is_file():
            spec = importlib.util.spec_from_file_location(qualified, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no {qualified} module at {stem}")


lapack = _scipy_extension("_flapack")
blas = _scipy_extension("_fblas")


def scipy_version() -> str:
    """The version of the scipy whose LAPACK is bound, from its ``version.py``, without importing scipy."""
    return _load_file("scipy.version", Path(lapack.__file__).parents[1] / "version", [".py"]).version


@dataclass(frozen=True)
class AspectRatio:
    """Dimension-to-sample ratio gamma = p/n.

    gamma is the exact finite-sample ratio, never a user-supplied limit; n < p
    is refused as insufficient samples. gamma == 1 (n == p) is accepted with a
    RegimeWarning: the estimators evaluate there, but their guarantees assume p < n.
    """

    p: int
    n: int
    gamma: float = field(init=False)

    def __post_init__(self):
        if self.p < 1 or self.n < 1:
            raise ValueError("p and n must be positive integers")
        g = self.p / self.n
        if not 0.0 < g <= 1.0:
            raise ValueError(f"insufficient samples: p/n = {g:.6g} outside (0, 1]")
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
    """All eigenvalues of a Hermitian matrix, descending, its leading eigenvectors on request,
    and its full eigenbasis as an operator.

    Only ``eigh`` builds one, from its Householder reduction of A to the
    real tridiagonal T = Q^H A Q, kept in the lower triangle of a p x p
    array: its strictly upper triangle is never read. ``leading(k)`` returns the p x k
    unit eigenvectors paired with ``eigenvalues[:k]``: it solves the
    tridiagonal for only those k vectors (MRRR, LAPACK ``dstemr``) and
    back-transforms them through the stored reflectors in O(p^2 k). Ties
    may take any orthonormal basis of their eigenspace. Orthonormality
    (max |V^H V - I| < 1e-10) and reconstruction through ``leading(p)`` to
    1e-8 relative are contractual and exercised by the test suite rather
    than recomputed on every construction. The block is kept, so a second
    ``leading(k)`` with k no larger (the shrinkage and clipping estimates of
    one sample covariance ask for the same r) copies it instead of solving
    again; every returned block is the caller's own.

    ``to_eigenbasis(x)`` = V^H x and ``from_eigenbasis(x)`` = V x apply the
    full basis V, columns in descending eigenvalue order, without forming
    it: V = Q Z, with Z the real eigenvectors of T by divide and
    conquer (``dstedc``). That is how LAPACK's ``zheevd`` builds
    its basis from the same reduction, so V is numpy's dense ``eigh`` basis to
    roundoff, ties included, and not ``leading``'s. A rotation of m vectors
    is one pass of the reflectors and one real product with Z, O(p^2 m), in
    complex128 whatever the dtype of x. Z is solved at the first rotation
    and kept: p^2 floats beside the reduction's p^2 entries.
    """

    def __init__(self, eigenvalues: np.ndarray, reduction: tuple):
        self._eigenvalues = eigenvalues
        self._reduction = reduction  # (packed, d, e, tau): see ``eigh`` for ``packed``
        self._leading = None  # the last block ``leading`` solved for
        self._tridiagonal_basis = None  # Z, once a rotation has asked for it

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    @property
    def p(self) -> int:
        return self._eigenvalues.size

    def leading(self, k: int) -> np.ndarray:
        """The p x k unit eigenvectors of the k largest eigenvalues, in descending order."""
        p = self.p
        if not 0 <= k <= p:
            raise ValueError("k must satisfy 0 <= k <= p")
        if self._leading is not None and k <= self._leading.shape[1]:
            return self._leading[:, :k].copy()
        _, d, e, _ = self._reduction
        if k == 0:
            return np.zeros((p, 0), dtype=complex)
        # the ``dstemr`` wrapper returns a p x p block for any k; the p x k
        # result is allocated before it and the block freed at once, so the
        # block's memory is not left as a hole below a live array
        vec = np.empty((p, k), dtype=complex)
        z = _tridiagonal_leading(d, e, k)
        vec[...] = z[:, ::-1]
        del z
        self._reflect(vec, "N")
        self._leading = vec
        return vec.copy()

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """V^H x = Z^T Q^H x for a p-vector or the columns of a p x m block."""
        c = np.array(self._operand(x), dtype=complex, order="C")
        self._reflect(c, "C")
        # Z's columns ascend, so the descending coordinates are its rows reversed
        out = np.ascontiguousarray(_real_product(self._z().T, c)[::-1])
        return out[:, 0] if np.ndim(x) == 1 else out

    def from_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """V x = Q Z x for a p-vector or the columns of a p x m block, x in descending order."""
        # Z's columns ascend
        c = _real_product(self._z(), np.array(self._operand(x)[::-1], dtype=complex, order="C"))
        self._reflect(c, "N")
        return c[:, 0] if np.ndim(x) == 1 else c

    def _operand(self, x) -> np.ndarray:
        """x as a p x m block: a p-vector is one column."""
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != self.p:
            raise ValueError(f"expected a p-vector or a p x m block, p = {self.p}")
        return x[:, None] if x.ndim == 1 else x

    def _z(self) -> np.ndarray:
        """Z, the p x p real eigenvectors of T in ascending eigenvalue order, solved once."""
        if self._tridiagonal_basis is None:
            _, d, e, _ = self._reduction
            # ``dsbevd`` on T as a band of one subdiagonal: its band reduction
            # is then a copy of d and e and its Q the identity, so Z is what
            # ``dstedc`` returns for them, times I. scipy's ``dstevd``
            # wrapper, the direct route, is not in every scipy release this
            # package supports.
            band = np.zeros((2, d.size))
            band[0], band[1, :-1] = d, e
            _, z, info = lapack.dsbevd(band, compute_v=1, lower=1)
            _check_info(info, "dsbevd")
            self._tridiagonal_basis = z
        return self._tridiagonal_basis

    def _reflect(self, c: np.ndarray, trans: str) -> None:
        """Q c (``trans`` "N") or Q^H c ("C") in place, for the reduction's Q.

        ``c`` is a C-ordered complex p x m block.
        """
        packed, _, _, tau = self._reduction
        p = packed.shape[0]
        if p == 1 or c.shape[1] == 0:
            return
        # zunmtr with uplo = L is zunmqr on rows 1: with the reflectors below
        # the diagonal, a block one element into packed's column-major buffer
        # with leading dimension p. The view has it in its first p - 1 rows,
        # all that zunmqr reads, so the reflectors are never copied.
        reflectors = packed.ravel(order="F")[1 : 1 + p * (p - 1)].reshape((p, p - 1), order="F")
        work = lapack.zunmqr("L", trans, reflectors, tau, c[1:], lwork=-1)[1]
        out, _, info = lapack.zunmqr("L", trans, reflectors, tau, c[1:], lwork=int(work[0].real))
        _check_info(info, "zunmqr")
        c[1:] = out


def _check_info(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} did not converge (info = {info})")


def _tridiagonal_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues of the real symmetric tridiagonal with diagonal d and off-diagonal e, ascending.

    A reduction that overflowed leaves a non-finite d or e; ``eigh`` reads
    them here first, so this is their one finiteness check.
    """
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("tridiagonal must not contain infs or NaNs")
    if d.size == 1:
        return d.copy()
    w, info = lapack.dsterf(d, e)
    _check_info(info, "dsterf")
    return w


def _tridiagonal_leading(d: np.ndarray, e: np.ndarray, k: int) -> np.ndarray:
    """The p x k unit eigenvectors of the k largest eigenvalues of the tridiagonal (d, e), ascending.

    Solved by MRRR (``dstemr``) for those k only, 1 <= k <= p; the result is
    a view of the wrapper's p x p block. d and e are a reduction's, which
    ``_tridiagonal_eigenvalues`` has already found finite.
    """
    p = d.size
    if p == 1:
        return np.ones((1, 1))
    # ?stemr takes e with p entries, the last one its workspace
    e_ = np.empty(p)
    e_[:-1] = e
    # range 2 selects eigenvalues il..iu (1-based, ascending); vl and vu are unread
    select = (2, 0.0, 1.0, p - k + 1, p)
    lwork, liwork, info = lapack.dstemr_lwork(d, e_, *select)
    _check_info(info, "dstemr_lwork")
    m, _, z, info = lapack.dstemr(d, e_, *select, lwork=lwork, liwork=liwork)
    _check_info(info, "dstemr")
    return z[:, :m]


def _real_product(m: np.ndarray, c: np.ndarray) -> np.ndarray:
    """m @ c for a real matrix m and a C-ordered complex block c, with no complex copy of m.

    c is multiplied as its real view, (real, imaginary) column pairs.
    """
    return (m @ c.view(float)).view(complex)


def _mp_cdf_of_gamma(x: float, gamma: float) -> float:
    """CDF of the MP law at aspect ratio gamma, in closed form.

    With a, b the support edges, for a < x < b

        F(x) = [sqrt((b - x)(x - a)) + (1 + gamma) asin((2x - a - b) / (b - a))
                - (1 - gamma) asin(((a + b) x - 2ab) / (x (b - a))) + pi gamma]
               / (2 pi gamma),

    0 at or below a and 1 at or above b. Each asin is evaluated as an atan2
    of the same angle, which keeps full accuracy next to the edges.
    """
    a = (1.0 - math.sqrt(gamma)) ** 2
    b = (1.0 + math.sqrt(gamma)) ** 2
    if x <= a:
        return 0.0
    if x >= b:
        return 1.0
    # asin(u) = atan2(c u, c sqrt(1 - u^2)) for any c > 0. For both
    # arguments 1 - u^2 factors through the edges, (b - x)(x - a) times a
    # constant (sqrt(ab) = 1 - gamma), so neither atan2 loses accuracy as x
    # nears a or b, where asin is ill-conditioned.
    s2 = 2.0 * math.sqrt((b - x) * (x - a))
    val = (
        s2 / 2.0
        + (1.0 + gamma) * math.atan2(2.0 * x - a - b, s2)
        - (1.0 - gamma) * math.atan2((a + b) * x - 2.0 * a * b, (1.0 - gamma) * s2)
        + math.pi * gamma
    ) / (2.0 * math.pi * gamma)
    return min(max(val, 0.0), 1.0)


@lru_cache(maxsize=256)
def _mp_median_of_gamma(gamma: float) -> float:
    # Newton on F(x) - 1/2 with F' the MP density, from the mean 1 (the
    # median sits just below it); a step that leaves the bracket known to
    # hold the root bisects it instead.
    a = (1.0 - math.sqrt(gamma)) ** 2
    b = (1.0 + math.sqrt(gamma)) ** 2
    lo, hi, x = a, b, 1.0
    for _ in range(_MEDIAN_MAX_STEPS):
        f = _mp_cdf_of_gamma(x, gamma) - 0.5
        if f == 0.0:
            break
        if f < 0.0:
            lo = x
        else:
            hi = x
        density = math.sqrt((b - x) * (x - a)) / (2.0 * math.pi * gamma * x)
        step = f / density
        nxt = x - step if lo < x - step < hi else 0.5 * (lo + hi)
        done = abs(nxt - x) <= 1e-15 * x
        x = nxt
        if done:
            break
    return x


def mp_median(law: MPLaw) -> float:
    """Median of the MP law: the m with CDF(m) = 1/2, to 1e-12 relative.

    Found by a bracketed Newton iteration on the closed-form CDF, whose
    derivative is the density, and cached per gamma.
    """
    return _mp_median_of_gamma(law.gamma)


def sample_covariance(data: np.ndarray) -> np.ndarray:
    """Sample covariance (1/n) Y Y^H of snapshot columns Y (p x n), as a Hermitian p x p array.

    Formed by one Hermitian rank-n update (BLAS ``zherk``), half the flops
    of a general product, in the lower triangle of a Fortran-ordered
    result. A complex128 column-major Y, such as the training block
    ``w[:, :n]`` of a ``complex_normal`` draw, is the update's own operand;
    the BLAS wrapper copies any other Y into one, so real data is read as
    complex. The filled triangle is mirrored into the other in place, so
    the result is Hermitian exactly with a real diagonal. Finiteness is
    left to ``eigh``, which checks it. n < p is accepted (the matrix is
    still well defined) but flagged with a RegimeWarning: downstream
    shrinkage refuses such decompositions.
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
    # Y Y^H in the lower triangle of a Fortran-ordered array, whose
    # C-ordered transpose holds conj(Y Y^H) in its upper triangle
    scm = blas.zherk(1.0 / n, data, trans=0, lower=1)
    upper = scm.T
    # mirroring ``upper`` makes it Hermitian, and with it ``scm``, its transpose
    for i in range(0, p, _MIRROR_BLOCK):
        j = min(i + _MIRROR_BLOCK, p)
        for k in range(j, p, _MIRROR_BLOCK):  # square tiles keep the scratch small
            upper[k : k + _MIRROR_BLOCK, i:j] = upper[i:j, k : k + _MIRROR_BLOCK].conj().T
        block = upper[i:j, i:j]
        block[...] = np.triu(block) + np.triu(block, 1).conj().T
    return scm


def symmetrized(m: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """(m + m^H) / 2 of a square array in a column-major array's lower triangle, after ``eigh``'s checks.

    The lower triangle, diagonal included, is the result, all that
    LAPACK's ``uplo = L`` routines read; the strictly upper triangle is not
    part of it, and it is complex128 whatever the input's dtype. With
    ``overwrite_a`` and a writeable complex128 column-major ``m`` the result
    is formed in ``m`` itself, which is returned, and ``m``'s contents are
    undefined if a check fails. Any other input is left as it is and the
    pass runs in a complex128 column-major copy. The pass runs over pairs
    of ``_MIRROR_BLOCK`` square tiles, (I, J) and its mirror (J, I): each
    pair is checked finite before any arithmetic on it but |.|, and its
    lower result tile is formed while the pair is in cache. Besides the
    array, the only scratch is two tiles, one complex and one real. Every
    entry is the same expression either way, so the lower triangle is
    bitwise that of (m + m^H) / 2.
    """
    if not (overwrite_a and m.dtype == complex and m.flags.f_contiguous and m.flags.writeable):
        m = np.array(m, dtype=complex, order="F")
    # C-ordered tiles of m^T, for contiguous writes: a pair's upper tile of
    # m^T is its lower tile of m, written only once both tiles are read
    t = m.T
    p = m.shape[0]
    side = min(_MIRROR_BLOCK, p)
    sym_tile, abs_tile = np.empty((side, side), dtype=complex), np.empty((side, side))
    scale, skew = 1.0, 0.0
    for i in range(0, p, _MIRROR_BLOCK):
        rows = slice(i, min(i + _MIRROR_BLOCK, p))
        for k in range(i, p, _MIRROR_BLOCK):
            cols = slice(k, min(k + _MIRROR_BLOCK, p))
            upper, lower = t[rows, cols], t[cols, rows]
            h, w = upper.shape
            sym, mag = sym_tile[:h, :w], abs_tile[:h, :w]
            # |.| of a NaN or infinite entry is NaN or infinite, and both
            # maxima carry it to this check
            big = np.maximum(np.abs(upper, out=mag).max(), np.abs(lower, out=mag.T).max())
            if not np.isfinite(big):
                raise ValueError("invalid matrix")
            scale = max(scale, big)
            # |lower - upper^H| is the transpose of |upper - lower^H|: one bound covers both
            np.conjugate(lower.T, out=sym)
            skew = max(skew, np.abs(np.subtract(upper, sym, out=sym), out=mag).max())
            np.conjugate(lower.T, out=sym)
            sym += upper
            sym /= 2.0
            upper[...] = sym
    if skew > 1e-10 * scale:
        raise ValueError("invalid matrix")
    return m


def eigh(matrix: np.ndarray, overwrite_a: bool = False) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized as (A + A^H)/2, which absorbs the accumulation
    error of covariance averaging. One blocked Householder reduction to
    tridiagonal form (``zhetrd``, real input read as complex) then yields all
    eigenvalues through ``dsterf``; eigenvectors are left to
    ``EigenDecomposition.leading``, which computes only the ones asked for.

    A non-finite entry, or a skew max |A - A^H| above 1e-10 max(max |A|, 1),
    raises ValueError("invalid matrix"). The checks and the symmetrization
    run over pairs of ``_MIRROR_BLOCK`` square tiles (``symmetrized``),
    which forms (A + A^H)/2 in the lower triangle of a column-major array,
    diagonal included, and not in the strictly upper one: the reduction
    (``uplo = L``) reads only that triangle. It runs in place there, so it
    is of A itself, A = Q T Q^H, and it leaves the tridiagonal and Q's
    reflectors in the same triangle, the only part the eigenvectors and the
    rotations of the decomposition read.

    ``overwrite_a`` is scipy's ownership flag. With it, a writeable
    complex128 column-major input is checked, symmetrized and reduced where
    it is, and the decomposition keeps it: the caller hands
    the array over and must not read or write it again. Besides the input
    the working set is then two tiles of scratch or the reduction's
    workspace. Any other input, and any input without the flag, is left
    unchanged: the working set is one p x p copy plus that
    scratch, never a full-size temporary.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError("invalid matrix")
    packed = symmetrized(m, overwrite_a)
    lwork = lapack.zhetrd_lwork(packed.shape[0], lower=1)[0].real
    reduced, d, e, tau, info = lapack.zhetrd(packed, lower=1, lwork=int(lwork), overwrite_a=1)
    _check_info(info, "zhetrd")
    lam = _tridiagonal_eigenvalues(d, e)
    return EigenDecomposition(lam[::-1].copy(), (reduced, d, e, tau))
