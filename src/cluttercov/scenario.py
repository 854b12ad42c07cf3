"""Synthetic radar scenes: steering vectors, clutter covariances, snapshot sampling.

A scene is an N-channel, K-pulse space-time configuration (dimension
p = N * K) with white noise of power sigma2 and one of three clutter
descriptions:

* ``ScattererClutter``: a set of uncorrelated point scatterers, each
  contributing |amplitude|^2 v v^H along its space-time steering vector.
  Clutter rank equals the scatterer count, which keeps scenes spiked by
  construction.
* ``ToeplitzClutter``: a scalar-channel impulse response h convolved with a
  white unit-power pulse of length ``pulse_len``; the clutter covariance is
  H H^H for the p x pulse_len Toeplitz convolution matrix H, so
  ``pulse_len`` sets the clutter rank. Long pulses can exceed the
  spiked-rank budget, which is flagged.
* ``SpikedClutter``: direct spectral synthesis of the spikes in a seeded
  random unitary basis; ``ScenarioConfig`` checks them against its sigma2.

``synthesize_clutter_covariance`` owns the one check of a scene's clutter
rank against the 0.1 * p budget. Every clutter kind is a thin factor F,
R = sigma2 I + F F^H with F p x m (the |a| v columns of the scatterers, the
Toeplitz response H, or spiked clutter's basis columns scaled by
sqrt(spikes - sigma2)), so ``clutter_spikes`` reads R's spikes and their
vectors off the m x m Gram F^H F, without R. ``truth_spiked_model`` is the
scene's one truth, the ``SpikedCovariance`` every metric reads, in R's
eigenbasis: R's eigenvalues within 1e-6 of sigma2 count as floor.

Snapshots are plain p x n arrays of circularly-symmetric complex Gaussian
draws with the scene covariance, reproducible per (seed, stream) and
byte-identical across runs. They are column-major, one contiguous column
per snapshot, so any leading block of columns is a contiguous view.
``SnapshotSampler`` returns them in the eigenbasis V of the scene's
R = V diag(lam) V^H, as V^H X, in O(pn) rather than the O(p^2 n) product
with V: ``from_eigenbasis(draw)`` rotates them back, and
``to_eigenbasis(s)`` = V^H s takes a vector into their frame. Both apply V
from the one ``eigh`` reduction the sampler makes, never as a p x p array.

Detection draws n + 1 snapshots w and splits them without copying: the
training block w[:, :n] and the test cell w[:, n]. ``inject_target``
returns the test cell plus the target as a new p-vector, so the draw itself,
training block and test cell alike, is never modified.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .rmt import SPIKE_FRACTION_BUDGET, ModelOrderWarning, eigh
from .rng import complex_normal, substream
from .shrinkage import SpikedCovariance

_SYNTHESIS_ROWS = 64  # rows per step of the covariance synthesis


@dataclass(frozen=True)
class SteeringSpec:
    """Angle/Doppler pair defining a space-time steering vector.

    theta is the cone angle in radians, doppler the normalized Doppler
    frequency in [-1/2, 1/2].
    """

    theta: float
    doppler: float
    N: int
    K: int

    def __post_init__(self):
        if self.N < 1 or self.K < 1:
            raise ValueError("N and K must be positive")
        if not np.isfinite(self.theta):
            raise ValueError("cone angle theta must be finite")
        if not -0.5 <= self.doppler <= 0.5:
            raise ValueError("normalized Doppler must lie in [-1/2, 1/2]")

    @property
    def p(self) -> int:
        return self.N * self.K


def steering_vector(spec: SteeringSpec) -> np.ndarray:
    """Kronecker product of the angle and Doppler phase ramps.

    Angle ramp exp(-j pi i sin(theta)) for i = 1..N, Doppler ramp
    exp(-j 2 pi i f_d) for i = 1..K; every entry has unit modulus so the
    squared norm is always N * K.
    """
    i_n = np.arange(1, spec.N + 1)
    i_k = np.arange(1, spec.K + 1)
    a_theta = np.exp(-1j * np.pi * i_n * np.sin(spec.theta))
    a_dopp = np.exp(-2j * np.pi * i_k * spec.doppler)
    return np.kron(a_theta, a_dopp)


@dataclass(frozen=True)
class Scatterer:
    """Point clutter scatterer: complex power |amplitude|^2 along its steering vector.

    Fields are converted to finite floats, the power must be finite too, and
    ``doppler`` must lie in [-1/2, 1/2].
    """

    amplitude: float
    theta: float
    doppler: float

    def __post_init__(self):
        for name in ("amplitude", "theta", "doppler"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"scatterer {name} must be finite")
            object.__setattr__(self, name, value)
        try:
            self.amplitude ** 2
        except OverflowError:
            raise ValueError("scatterer power |amplitude|^2 must be finite") from None
        if not -0.5 <= self.doppler <= 0.5:
            raise ValueError("normalized Doppler must lie in [-1/2, 1/2]")


@dataclass(frozen=True)
class ScattererClutter:
    """Uncorrelated point scatterers; clutter rank = number of scatterers."""

    scatterers: tuple[Scatterer, ...]

    def __post_init__(self):
        object.__setattr__(self, "scatterers", tuple(self.scatterers))

    @property
    def rank(self) -> int:
        return len(self.scatterers)


@dataclass(frozen=True)
class ToeplitzClutter:
    """Scalar-channel impulse response convolved with a white pulse.

    The clutter covariance is H H^H for the p x pulse_len Toeplitz matrix H
    built from the taps, so ``pulse_len`` sets the clutter rank:
    min(pulse_len, p) when the first tap is nonzero. Every tap must be
    finite.
    """

    taps: np.ndarray
    pulse_len: int

    def __post_init__(self):
        taps = np.atleast_1d(np.asarray(self.taps, dtype=complex))
        if self.pulse_len < 1:
            raise ValueError("pulse_len must be positive")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        object.__setattr__(self, "taps", taps)


@dataclass(frozen=True)
class SpikedClutter:
    """Clutter given by R's spikes, descending and above the scene's sigma2."""

    spikes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "spikes", np.asarray(self.spikes, dtype=float).reshape(-1))


ClutterSpec = ScattererClutter | ToeplitzClutter | SpikedClutter | None


class ConfigError(Exception):
    """Input the program cannot run as given.

    Bad flags, missing files, malformed scenario JSON, or a scene that no
    model of the program fits.
    """


class SceneOverflowError(ValueError):
    """A scene of finite numbers whose covariance overflows the float range."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Full synthetic scene: dimensions, noise floor, clutter, seed."""

    N: int
    K: int
    n: int
    sigma2: float
    clutter: ClutterSpec = None
    seed: int = 0
    name: str = "custom"

    def __post_init__(self):
        if self.N < 1 or self.K < 1:
            raise ValueError("N and K must be positive")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 < self.sigma2 < np.inf:
            raise ValueError("sigma2 must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if isinstance(self.clutter, SpikedClutter):
            # the spikes must make a spiked covariance at this p and sigma2
            SpikedCovariance.diagonal(self.p, self.sigma2, self.clutter.spikes)

    @property
    def p(self) -> int:
        return self.N * self.K


def _toeplitz_response(taps: np.ndarray, p: int, pulse_len: int) -> np.ndarray:
    """The first min(pulse_len, p) columns of H; the columns past p are zero."""
    h = np.zeros(p, dtype=complex)
    m = min(taps.size, p)
    h[:m] = taps[:m]
    cols = np.arange(min(pulse_len, p))
    rows = np.arange(p)[:, None]
    idx = rows - cols[None, :]
    out = np.zeros((p, cols.size), dtype=complex)
    valid = (idx >= 0) & (idx < p)
    out[valid] = h[idx[valid]]
    return out


def _spiked_basis(config: ScenarioConfig) -> np.ndarray:
    """The p x r leading columns of spiked clutter's seeded unitary basis, r its spike count."""
    p = config.p
    rng = substream(config.seed, 0xBA515)
    z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return np.linalg.qr(z)[0][:, : config.clutter.spikes.size]


def _clutter_factor(config: ScenarioConfig) -> np.ndarray:
    """The p x m factor F of a scene's clutter, R_c = F F^H; m = 0 without clutter."""
    p, clutter = config.p, config.clutter
    if clutter is None:
        return np.zeros((p, 0), dtype=complex)
    if isinstance(clutter, SpikedClutter):
        return _spiked_basis(config) * np.sqrt(clutter.spikes - config.sigma2)
    if isinstance(clutter, ScattererClutter):
        factor = np.empty((p, clutter.rank), dtype=complex)
        for j, sc in enumerate(clutter.scatterers):
            v = steering_vector(SteeringSpec(sc.theta, sc.doppler, config.N, config.K))
            factor[:, j] = abs(sc.amplitude) * v
        return factor
    if isinstance(clutter, ToeplitzClutter):
        return _toeplitz_response(clutter.taps, p, clutter.pulse_len)
    raise TypeError(f"unsupported clutter description: {type(clutter).__name__}")


def clutter_spikes(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """R's spikes, descending, and their unit eigenvectors, p x r in R's frame, without R.

    R = sigma2 I + F F^H for the scene's p x m clutter factor F, so with the
    Gram F^H F = W diag(mu) W^H the spikes are sigma2 + mu and their vectors
    F W diag(mu)^(-1/2): one ``eigh`` of an m x m matrix and O(p m^2) work.
    Only spiked clutter's seeded basis (a p x p QR) and a Toeplitz pulse of
    length p or more still size a p x p array. The spikes are the
    eigenvalues above sigma2 (1 + 1e-6), the cut R's own would take.

    F is scaled by a power of two before the product, exactly, so each part
    of an entry is below 1 and the Gram's entries are below 2 p: no finite
    spike overflows it. A spike past the float range raises
    ``SceneOverflowError``.
    """
    p, sigma2 = config.p, config.sigma2
    factor = _clutter_factor(config)
    parts = factor.view(float)  # real and imaginary parts, each finite
    big = np.abs(parts).max(initial=0.0)
    if big == 0.0:
        return np.empty(0), np.empty((p, 0), dtype=complex)
    exponent = int(np.frexp(big)[1])  # big < 2^exponent <= 2 big
    factor = np.ldexp(parts, -exponent).view(complex)
    decomp = eigh(factor.conj().T @ factor)
    mu = decomp.eigenvalues  # 4^-exponent times R's spikes less sigma2
    with np.errstate(over="ignore"):
        spikes = sigma2 + np.ldexp(mu, 2 * exponent)
    r = int(np.count_nonzero(spikes > sigma2 * (1.0 + 1e-6)))
    spikes = spikes[:r]
    if not np.all(np.isfinite(spikes)):
        raise SceneOverflowError(
            f"scene {config.name!r}: a clutter spike overflows the float range"
        )
    return spikes, factor @ (decomp.leading(r) / np.sqrt(mu[:r]))


def synthesize_clutter_covariance(config: ScenarioConfig) -> np.ndarray:
    """True clutter-plus-noise covariance R = R_c + sigma2 * I for a scene.

    Emits ModelOrderWarning when the clutter construction yields rank above
    0.1 * p, in which case the scene is no longer spiked in the modeled sense.
    Raises ``SceneOverflowError``, a ValueError, when R has an entry past the
    float range, as clutter of finite but huge amplitudes can give.

    R is bitwise (R_c + R_c^H) / 2 + sigma2 * I, with R_c the sum of the
    |a|^2 v v^H in scatterer order, H H^H, or U diag(spikes - sigma2) U^H.
    Every Monte Carlo output rests on those bits: the sampler's basis of the
    degenerate noise floor is whatever LAPACK returns for them, and a change
    of R at roundoff (7e-16 relative, from one product in place of the sum
    of 25 scatterers) moves the noise-floor coordinates of V^H s by more
    than their size. So the sum and the symmetrization are formed
    ``_SYNTHESIS_ROWS`` rows at a time, entry for entry the same
    expressions, and besides R_c and R the working set is a few such row
    blocks (and, for Toeplitz clutter, the p x pulse_len response).
    """
    p = config.p
    clutter = config.clutter
    clutter_rank = 0
    row_blocks = [slice(i, min(i + _SYNTHESIS_ROWS, p)) for i in range(0, p, _SYNTHESIS_ROWS)]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        if clutter is None:
            r_c = np.zeros((p, p), dtype=complex)
        elif isinstance(clutter, SpikedClutter):
            clutter_rank = clutter.spikes.size
            u = _spiked_basis(config)
            r_c = (u * (clutter.spikes - config.sigma2)) @ u.conj().T
        elif isinstance(clutter, ScattererClutter):
            r_c = np.zeros((p, p), dtype=complex)
            term = np.empty((min(_SYNTHESIS_ROWS, p), p), dtype=complex)
            for sc in clutter.scatterers:
                v = steering_vector(SteeringSpec(sc.theta, sc.doppler, config.N, config.K))
                power, v_conj = abs(sc.amplitude) ** 2, v.conj()
                for rows in row_blocks:
                    # rows of |a|^2 v v^H: the entries of np.outer(v, v.conj()), scaled
                    block = np.multiply(v[rows, None], v_conj, out=term[: rows.stop - rows.start])
                    block *= power
                    r_c[rows] += block
            del term
            clutter_rank = clutter.rank
        elif isinstance(clutter, ToeplitzClutter):
            h_mat = _toeplitz_response(clutter.taps, p, clutter.pulse_len)
            r_c = h_mat @ h_mat.conj().T
            del h_mat
        else:
            raise TypeError(f"unsupported clutter description: {type(clutter).__name__}")
        covariance = np.empty((p, p), dtype=complex)
        for rows in row_blocks:
            block = np.add(r_c[rows], r_c[:, rows].conj().T, out=covariance[rows])
            block /= 2.0
            block += config.sigma2 * np.eye(rows.stop - rows.start, p, k=rows.start)
    if not np.all(np.isfinite(covariance)):
        raise SceneOverflowError(
            f"scene {config.name!r}: the clutter covariance overflows the float range"
        )
    if isinstance(clutter, ToeplitzClutter):
        clutter_rank = int(np.linalg.matrix_rank(r_c, hermitian=True))
    if clutter_rank > int(SPIKE_FRACTION_BUDGET * p):
        warnings.warn(
            f"clutter rank {clutter_rank} exceeds the 0.1*p = "
            f"{int(SPIKE_FRACTION_BUDGET * p)} spiked-model budget",
            ModelOrderWarning,
            stacklevel=2,
        )
    return covariance


def truth_spiked_model(
    config: ScenarioConfig, covariance: np.ndarray | None = None
) -> SpikedCovariance:
    """Exact spiked description of a scene's true covariance, in its own eigenbasis.

    The spikes, R's eigenvalues above sigma2 (1 + 1e-6), come from
    ``clutter_spikes``, off the clutter's m x m Gram; the rest floor at
    sigma2, and for scenes built from scatterers or spikes the cut is
    exact. No p x p array is formed or reduced. Clutter that lifts all p
    eigenvalues leaves no noise floor for the model, which raises
    ``ConfigError`` naming the clutter rank. ``covariance`` is accepted and
    not read: the benchmark's set-up probe passes R, until the benchmark
    change that drops it.
    """
    spikes = clutter_spikes(config)[0]
    if spikes.size >= config.p:
        raise ConfigError(
            f"scene {config.name!r}: clutter rank {spikes.size} fills all p = {config.p} "
            "dimensions, so the spiked truth has no noise floor; the clutter rank must be below p"
        )
    return SpikedCovariance.diagonal(config.p, config.sigma2, spikes)


class SnapshotSampler:
    """Sampler for repeated draws from one true covariance, in its eigenbasis.

    Holds the ``eigh`` decomposition of R (``decomposition``) and the square
    roots of its clipped eigenvalues lam (``root``). A draw is diag(root) Z
    for white Z, the snapshots V diag(root) Z expressed in R's eigenbasis V,
    columns in descending eigenvalue order: ``from_eigenbasis`` rotates them
    back, and ``to_eigenbasis`` takes a vector into the frame of the draws,
    in which R is diag(lam), the scene's ``truth_spiked_model`` up to
    roundoff on the floor. Each draw uses an independent, order-insensitive
    substream of the seed.

    V is LAPACK's basis of (R + R^H) / 2, the one numpy's dense ``eigh``
    gives, to roundoff: the decomposition applies it from its own reduction
    of R and never forms it (``rmt.EigenDecomposition.to_eigenbasis``), so
    one reduction builds the sampler. Draws never read the decomposition. It
    lives until ``release_basis``: a Monte Carlo sweep rotates every vector
    it scores with ``to_eigenbasis`` and then releases it, so its trials
    hold p-vectors of the sampler only. ``estimate`` keeps it to rotate its
    estimate back.
    """

    def __init__(self, covariance: np.ndarray):
        covariance = np.asarray(covariance)
        decomposition = eigh(covariance)
        lam = decomposition.eigenvalues
        tol = 1e-10 * max(lam.max(), 0.0) if lam.size else 0.0
        if lam.min() < -max(tol, 1e-30):
            raise ValueError("covariance is not positive semi-definite")
        # eigenvalues below numerical-rank dust are exact zeros of the model
        self.root = np.sqrt(np.where(lam > 1e-13 * max(lam.max(), 0.0), lam, 0.0))
        self.decomposition = decomposition
        self.p = covariance.shape[0]

    def draw(self, n: int, seed: int, stream: int = 0) -> np.ndarray:
        """p x n circular complex Gaussian snapshots of covariance diag(lam), scaled as drawn.

        These are the snapshots of R expressed in its eigenbasis V. Real and
        imaginary parts each carry half the variance. ``complex_normal``
        scales each block of rows by ``root`` as it fills the array, which
        is column-major, so ``draw(n + 1)`` splits into the training block
        ``[:, :n]`` and the test cell ``[:, n]`` as contiguous views,
        neither of them a copy. Identical (covariance, n, seed, stream)
        always reproduces the same array.
        """
        if n < 1:
            raise ValueError("n must be positive")
        return complex_normal(substream(seed, stream), self.p, n, self.root)

    def to_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """V^H x for a p-vector or the columns of a p x m matrix; RuntimeError once released."""
        return self._frame().to_eigenbasis(x)

    def from_eigenbasis(self, x: np.ndarray) -> np.ndarray:
        """V x for a p-vector or the columns of a p x m matrix; RuntimeError once released."""
        return self._frame().from_eigenbasis(x)

    def release_basis(self) -> None:
        """Drop the decomposition. Draws go on as before; the rotations raise from here on."""
        self.decomposition = None

    def _frame(self):
        if self.decomposition is None:
            raise RuntimeError("the sampler's basis was released")
        return self.decomposition


def inject_target(y: np.ndarray, steering: np.ndarray, amplitude: complex) -> np.ndarray:
    """The test cell plus the target, y + amplitude * steering, as a new p-vector.

    ``y`` is the test snapshot and ``steering`` a p-vector in its frame. The
    sum is built in the one output vector, so ``y``, typically the column
    ``w[:, n]`` of a draw whose training block ``w[:, :n]`` is read in
    place, is left as it was.
    """
    y = np.asarray(y)
    if y.ndim != 1 or np.shape(steering) != y.shape:
        raise ValueError("steering dimension does not match the test snapshot")
    out = np.multiply(amplitude, steering, dtype=np.result_type(y, steering, amplitude))
    out += y
    return out


def amplitude_for_snr(snr_db: float, sigma2: float, N: int, K: int) -> float:
    """Target amplitude giving |h|^2 * N * K / sigma2 = 10^(snr_db / 10).

    Raises ValueError when the amplitude is not finite (a NaN SNR, or one so
    large that the power overflows).
    """
    try:
        amp = float(np.sqrt(10.0 ** (snr_db / 10.0) * sigma2 / (N * K)))
    except OverflowError:
        amp = np.inf
    if not np.isfinite(amp):
        raise ValueError(f"SNR {snr_db} dB gives a non-finite target amplitude")
    return amp


def challenge_synthetic(n: int | None = None, seed: int | None = None) -> ScenarioConfig:
    """Synthetic stand-in for the 512-dimensional coastal-scene recording.

    Mirrors the published scene dimensions: 8 concatenated channels of 64
    pulses (p = 512), noise power 5e-14, and a clutter ridge of 25 ground
    scatterers whose Doppler tracks sin(theta)/2. Snapshot synthesis is
    covariance-domain, so the recording's pulse length (1000) and convolution
    alignment do not enter; amplitudes are log-spaced to span roughly 10 to
    10^4 times the noise floor, matching a strongly spiked spectrum.
    """
    n_eff = 2335 if n is None else n
    seed_eff = 0x5D512 if seed is None else seed
    sigma2 = 5e-14
    m = 25
    thetas = np.linspace(-np.pi / 3, np.pi / 3, m)
    dopplers = np.sin(thetas) / 2.0
    strengths = np.logspace(4, 1, m)  # whitened clutter power per scatterer
    scatterers = tuple(
        Scatterer(amplitude=float(np.sqrt(s * sigma2)), theta=float(t), doppler=float(fd))
        for s, t, fd in zip(strengths, thetas, dopplers)
    )
    return ScenarioConfig(
        N=8,
        K=64,
        n=n_eff,
        sigma2=sigma2,
        clutter=ScattererClutter(scatterers),
        seed=seed_eff,
        name="challenge-synthetic",
    )


PRESETS = {"challenge-synthetic": challenge_synthetic}


def preset(name: str, n: int | None = None, seed: int | None = None) -> ScenarioConfig:
    """Look up a named preset scene."""
    try:
        builder = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown scenario preset: {name!r}") from None
    return builder(n=n, seed=seed)
