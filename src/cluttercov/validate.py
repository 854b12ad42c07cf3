"""Monte Carlo validation: KS testing, CLT verification and metric sweeps.

Every routine is deterministic given its seed: each trial draws from an
independent substream keyed by the trial index, so a trial's values do not
depend on execution order. A sweep's means are sums run in trial order,
one float array per training size, divided by the trial count once:
floating-point addition is not associative, so that order is what keeps
their bits. The Doppler and angle rows, which all train on the scene's n,
share each trial's draw and estimates, so such a sweep costs its trials,
not its rows times its trials. A sweep returns its table as numbers, a
header and its rows, and formats no text: the CLI writes the table as CSV.

Every trial, the CLI's single-shot ``estimate`` and ``detect`` included,
runs through ``_trial_estimates`` or ``_detection_trial``, and only their
``_decomposition`` factors snapshots: the estimators and the detector read
its output. So a trial holds its draw and one p x p array. Around the
trials a sweep holds vectors only: the spiked truth never reads R, R is
dropped once the sampler is built, and the sampler's reduction of R, which
applies its eigenbasis V without forming it, once every steering vector
the sweep scores is rotated into V, before the first draw.

The sweeps run every trial in the eigenbasis V of the scene's R: the
sampler draws there in O(pn), one p x n array scaled as it is filled, and
each steering vector enters once per sweep as V^H s, with the truth's
s^H R^{-1} s, which no trial changes, beside it. There every metric
reads the one truth, the scene's ``SpikedCovariance`` with vectors
eye(p, r) (R's eigenvalues within 1e-6 of sigma2 count as floor), so no
p x p truth is alive during the trials. Both estimators keep the sample
eigenvectors and every metric is invariant under that common rotation, so
the rows equal those of the original frame up to roundoff. ``verify_clt``
draws from a diagonal ``SpikedCovariance`` directly, and the detection
probability ``theoretical_pd`` reads the same truth with R's r spike
vectors, from the clutter's m x m Gram, in the original frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import rmt
from .detector import detect, theoretical_pd
from .metrics import (
    kantorovich_bound,
    mvdr_error_variance,
    normalized_scnr_batch,
    stein_loss,
)
from .rcml import rcml_estimate
from .rng import complex_normal, substream
from .scenario import (
    ScenarioConfig,
    SnapshotSampler,
    SteeringSpec,
    amplitude_for_snr,
    clutter_spikes,
    inject_target,
    steering_vector,
    synthesize_clutter_covariance,
    truth_spiked_model,
)
from .shrinkage import CltParams, SpikedCovariance, shrink_spectrum

KOLMOGOROV_SERIES_TERMS = 100
DEFAULT_TRIALS = 1024

SWEEP_HEADER = [
    "scenario",
    "axis",
    "value",
    "n",
    "gamma",
    "trials",
    "rho_shrinkage",
    "rho_rcml",
    "scnr_bound",
    "mvdr_ratio_shrinkage",
    "mvdr_ratio_rcml",
    "stein_loss_shrinkage",
    "stein_loss_rcml",
]
DETECTION_HEADER = ["snr_db", "p_fa", "empirical_pd", "theoretical_pd", "trials"]

# marginalization grids: angle spacing of pi/180 rad (179 points), Doppler
# spacing of pi/50 = 0.0628 in normalized Doppler (16 points; pi/50 rad/PRI
# would be a spacing of 0.01). A marginal is the plain mean over its grid.
ANGLE_MARGIN_GRID = np.arange(-np.pi / 2 + np.pi / 180, np.pi / 2, np.pi / 180)
DOPPLER_MARGIN_GRID = np.arange(-0.5, 0.5, np.pi / 50)


@dataclass(frozen=True)
class KsResult:
    """Two-sample Kolmogorov-Smirnov outcome."""

    statistic: float
    p_value: float
    n1: int  # the size of the first sample

    def __post_init__(self):
        if not 0.0 <= self.statistic <= 1.0:
            raise ValueError("statistic must lie in [0, 1]")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")


@dataclass(frozen=True)
class TrialPlan:
    """Monte Carlo plan: scene, target, trial count, seed."""

    scenario: ScenarioConfig
    target: SteeringSpec
    trials: int = DEFAULT_TRIALS
    seed: int = 0

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")


def _kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function, each series truncated at 100 terms.

    From lam = 0.5 up it is 2 sum_k (-1)^(k-1) exp(-2 k^2 lam^2); below, where
    that series converges too slowly, it is one minus the dual series
    (sqrt(2 pi) / lam) sum_k exp(-(2k - 1)^2 pi^2 / (8 lam^2)) of the CDF.
    """
    if lam <= 0:
        return 1.0
    k = np.arange(1, KOLMOGOROV_SERIES_TERMS + 1)
    if lam < 0.5:
        cdf = np.sqrt(2.0 * np.pi) / lam * np.sum(np.exp(-((2 * k - 1) * np.pi / lam) ** 2 / 8.0))
        total = 1.0 - cdf
    else:
        total = 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * lam) ** 2))
    return float(min(1.0, max(0.0, total)))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> KsResult:
    """Exact two-sample KS distance with the asymptotic Kolmogorov p-value.

    The statistic is the sup distance between the two empirical CDFs over the
    merged order statistics; the p-value evaluates the Kolmogorov survival
    function at sqrt(n1 n2 / (n1 + n2)) * statistic.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    stat = float(np.abs(cdf_a - cdf_b).max())
    n_eff = a.size * b.size / (a.size + b.size)
    p = 1.0 if stat == 0.0 else _kolmogorov_sf(np.sqrt(n_eff) * stat)
    return KsResult(statistic=stat, p_value=p, n1=a.size)


@dataclass(frozen=True)
class CltSpikeResult:
    """CLT verification outcome for one spike."""

    ell: float
    limit_value: float  # sigma2 * eta(beta): the a.s. limit of the shrunk eigenvalue
    mean_estimate: float
    ks: KsResult
    samples: np.ndarray = field(repr=False)


def verify_clt(
    model: SpikedCovariance, gamma: float, trials: int, seed: int
) -> list[CltSpikeResult]:
    """Check the distributional law of the shrunk spike eigenvalues by simulation.

    For each spike, collects sqrt(n) * (shrunk eigenvalue - its limit) over
    trials of the full estimation pipeline and KS-tests the whitened values
    against reference normal draws with the prescribed scale
    alpha * eta_prime(beta) / sqrt(2). The prescribed variance alpha^2 is that
    of real Gaussian snapshots; the draws are circular complex
    (``complex_normal``), which halves it, so the scale carries 1/sqrt(2).

    The snapshots are p = ``model.p`` dimensional, drawn with the diagonal
    covariance diag(model.spectrum()), as the eigenvalue law is basis-free.
    n is chosen as round(p / gamma) and the exact ratio p / n is used
    throughout, which keeps the CLT's p/n - gamma = o(n^{-1/2}) side condition
    trivially satisfied.

    The centring is asymptotic. At moderate p the sample spike eigenvalue
    still carries an O(1/n) location term (Lawley's expansion), dominated
    between two spikes by ell_i ell_j / (n (ell_i - ell_j)): in the (5, 3)
    scene at p = 120, n = 600 the ell = 3 samples sit about -0.15 sd off
    zero, and the KS test rejects that correct pipeline at 28.75% of seeds
    (40 seeds, real and complex draws), while a lone ell = 3 sits
    -0.01 to -0.06 sd off. So a small p-value at small p is no fault.
    """
    if model.r == 0:
        raise ValueError("model must have at least one spike")
    if trials < 2:
        raise ValueError("need at least two trials")
    p = model.p
    n = int(round(p / gamma))
    ratio = rmt.AspectRatio(p, n)
    g = ratio.gamma
    ells = model.whitened_spikes()
    params = [CltParams(ell, g) for ell in ells]
    sigma2 = model.sigma2
    complex_scale = 1.0 / np.sqrt(2.0)
    root = np.sqrt(model.spectrum())

    def draw(n, seed, stream):
        return complex_normal(substream(seed, stream), p, n, root)

    shrunk = np.empty((trials, model.r))
    ests = _trial_estimates(draw, n, seed, trials, lambda decomp: shrink_spectrum(decomp, ratio))
    for t, est in enumerate(ests):
        # a spike the estimator missed sits on the floor
        k = min(est.r, model.r)
        shrunk[t] = est.sigma2
        shrunk[t, :k] = est.spikes[:k]

    results = []
    for i, prm in enumerate(params):
        limit = sigma2 * prm.eta_of_beta
        samples = np.sqrt(n) * (shrunk[:, i] - limit) / sigma2
        ref_rng = substream(seed, 10_000_000 + i)
        ref = ref_rng.standard_normal(trials) * np.sqrt(prm.alpha2) * prm.eta_prime * complex_scale
        results.append(
            CltSpikeResult(
                ell=float(ells[i]),
                limit_value=limit,
                mean_estimate=float(shrunk[:, i].mean()),
                ks=ks_two_sample(samples, ref),
                samples=samples,
            )
        )
    return results


def _decomposition(snapshots: np.ndarray) -> rmt.EigenDecomposition:
    """A trial's one factorization: the SCM of its p x n ``snapshots``, reduced in place.

    Nothing else reads the SCM, and column-major snapshots, or a leading block
    of their columns, give a column-major one. The snapshots are let go before
    the reduction, which frees a draw passed as a temporary (CPython 3.11 on
    hands a call its arguments). Names are looked up at call time.
    """
    scm = rmt.sample_covariance(snapshots)
    del snapshots
    return rmt.eigh(scm, overwrite_a=True)


def _trial_estimates(draw, n: int, seed: int, trials: int, estimate):
    """Yield ``estimate(_decomposition(draw(n, seed, t)))`` for t < trials.

    Trial t draws from stream (seed, t). Its working set is the p x n
    snapshots plus their p x p SCM, or that one p x p array plus what
    ``estimate`` asks of it, and only the estimate reaches the next draw.
    """
    for t in range(trials):
        yield estimate(_decomposition(draw(n, seed, t)))


def _estimate_both(decomp: rmt.EigenDecomposition, ratio: rmt.AspectRatio,
                   rank: int | None = None) -> dict:
    """Both estimates of one trial; RCML clips at ``rank``, by default the shrinkage spike count."""
    shrink = shrink_spectrum(decomp, ratio)
    return {
        "shrinkage": shrink,
        "rcml": rcml_estimate(decomp, shrink.sigma2, shrink.r if rank is None else rank),
    }


def _detection_trial(draw, ratio: rmt.AspectRatio, seed: int, t: int, steering: np.ndarray,
                     amp: complex, rank: int | None, pfas) -> list:
    """Trial t of detection: ``detect``'s report at each false-alarm rate in ``pfas``.

    The draw of n + 1 snapshots (n = ``ratio.n``) from stream (seed, t) is the training
    view ``[:, :n]``, which each rate decomposes anew, and the test cell ``[:, n]``, to which
    ``inject_target`` adds the target; it is freed on return. Names are looked up at call time.
    """
    n = ratio.n
    w = draw(n + 1, seed, t)
    y = inject_target(w[:, n], steering, amp)
    # one factorization per rate, though ``detect`` leaves it unchanged: the traced counts
    # pin rmt.eigh at one per (SNR, p_fa, trial); one per trial is ROADMAP item 11, stage 1
    return [detect(_decomposition(w[:, :n]), ratio, y, steering, rank, pfa) for pfa in pfas]


def _sweep_estimation(plan: TrialPlan, axis: str, values, spiked, sampler) -> list:
    scn = plan.scenario
    # the trials run in R's eigenbasis, where the spiked truth is diagonal,
    # and every steering vector enters that frame here, before the first draw;
    # a row scores its steering vectors with the truth's y^H R^{-1} y of each,
    # the one SCNR term that no trial changes
    s_target = sampler.to_eigenbasis(steering_vector(plan.target))
    if axis == "n":
        scored = [(s_target[:, None], spiked.quad_inv(s_target[:, None]))]
        groups = ((int(v), [v], scored) for v in values)  # lazy: one row at a time
    else:
        values = [float(v) for v in values]  # read twice: by the steering grids and the rows
        if axis == "doppler":
            specs = [[SteeringSpec(th, v, scn.N, scn.K) for th in ANGLE_MARGIN_GRID]
                     for v in values]
        else:  # angle
            specs = [[SteeringSpec(v, fd, scn.N, scn.K) for fd in DOPPLER_MARGIN_GRID]
                     for v in values]
        s_mats = [sampler.to_eigenbasis(np.column_stack([steering_vector(s) for s in row_specs]))
                  for row_specs in specs]
        scored = [(s_mat, spiked.quad_inv(s_mat)) for s_mat in s_mats]
        groups = [(scn.n, values, scored)] if scored else []  # every row trains on n
    sampler.release_basis()  # the trials read root, the spiked truth and the rotated vectors
    mvdr_truth = mvdr_error_variance(spiked, s_target)
    rows = []
    for n, group_values, scored in groups:
        ratio = rmt.AspectRatio(scn.p, n)
        sums = np.zeros((len(scored), len(SWEEP_HEADER[6:])))  # the averaged columns, by row
        for ests in _trial_estimates(sampler.draw, n, plan.seed, plan.trials,
                                     lambda decomp: _estimate_both(decomp, ratio)):
            shared = [kantorovich_bound(spiked, ests["shrinkage"], ratio.gamma),
                      *(mvdr_error_variance(est, s_target) / mvdr_truth for est in ests.values()),
                      *(stein_loss(spiked, est) for est in ests.values())]
            for row_sums, (s_mat, quad) in zip(sums, scored):
                row_sums += [*(np.mean(normalized_scnr_batch(est, spiked, s_mat, quad))
                               for est in ests.values()), *shared]
        for value, means in zip(group_values, (sums / plan.trials).tolist()):
            rows.append([scn.name, axis, float(value), n, ratio.gamma, plan.trials, *means])
    return rows


def _sweep_detection(plan: TrialPlan, snr_grid, pfa_list, rank: int | None,
                     spiked, sampler) -> list:
    scn = plan.scenario
    ratio = rmt.AspectRatio(scn.p, scn.n)
    steering = steering_vector(plan.target)  # theoretical_pd reads it in R's frame
    s_target = sampler.to_eigenbasis(steering)  # the frame of the draws
    sampler.release_basis()  # the trials read root and the two steering vectors only
    rows = []
    for snr_db in snr_grid:
        amp = amplitude_for_snr(float(snr_db), scn.sigma2, scn.N, scn.K)
        hits = np.zeros(len(pfa_list))  # by position: a rate listed twice is two rows
        for t in range(plan.trials):
            reports = _detection_trial(sampler.draw, ratio, plan.seed, t, s_target, amp, rank,
                                       pfa_list)
            hits += [report.decision for report in reports]
        for pfa, pd in zip(pfa_list, (hits / plan.trials).tolist()):
            pd_theory = theoretical_pd(spiked, steering, amp, pfa, ratio.gamma)
            rows.append([float(snr_db), float(pfa), pd, pd_theory, plan.trials])
    return rows


def sweep(
    plan: TrialPlan,
    axis: str,
    values=None,
    pfa_list: tuple[float, ...] | None = None,
    rank: int | None = None,
) -> tuple[list[str], list[list]]:
    """Monte Carlo sweep along one axis; returns its table as ``(header, rows)``.

    axis "n" averages normalized SCNR, MVDR ratio, and Stein loss over trials
    at each training size (default: multiples of p up to the scene's n). Axis
    "doppler" and "angle" fix the training size and marginalize the SCNR over
    the complementary steering grid (angle spacing pi/180 when sweeping
    Doppler, Doppler spacing pi/50 in normalized Doppler when sweeping angle).
    The marginal is a plain mean over that grid, so a feature confined to one
    angle (or one Doppler) is diluted by the grid size. Axis "snr" runs the
    detector and reports empirical versus asymptotic detection probability
    for each requested false-alarm rate.

    Of the estimating rows, only Doppler and angle rows share a trial's draw:
    they all train on the scene's n and read both estimates of each trial, so
    they carry the same bound, MVDR and Stein columns, and their Monte Carlo
    work is the trials alone. Each "n" row runs its own trials, a value
    listed twice included; trial t draws from stream (seed, t), so equal
    values give equal rows. Every axis but "n" needs its grid ``values``, and
    the "snr" axis a nonempty ``pfa_list`` of false-alarm rates, one row per
    entry at each SNR (a rate listed twice gives two equal rows); the rows of
    one SNR share each trial's draw.

    Through its trials a sweep holds the sampler's draw scale, the spiked
    truth with its p x r vectors (eye(p, r), or on the "snr" axis the r
    spike vectors of R that ``theoretical_pd`` reads) and the rotated
    steering vectors (each Doppler or angle row its p x 179 or p x 16 grid,
    the "snr" axis the target's in R's frame too). The spikes and, on the
    "snr" axis, their vectors come from the clutter's m x m Gram
    (``clutter_spikes``), so the sampler's is the one reduction of the
    p x p R. R is dropped once the sampler is built, and that reduction
    once the steering vectors are rotated, before the first draw. A trial
    then holds what ``_trial_estimates`` or ``_detection_trial`` bounds.
    The "n" axis makes its rows as it reaches them, so its grid may be any
    lazy iterable and costs one row's memory; a Doppler or angle grid is
    read once, into a list.

    The header is ``SWEEP_HEADER``, or ``DETECTION_HEADER`` on the "snr" axis,
    and each row a list of its columns' values: names as str, counts as int,
    every other column a float. A zero-trial plan returns the header and no
    rows.
    """
    if axis not in ("n", "doppler", "angle", "snr"):
        raise ValueError("axis must be one of n, doppler, angle, snr")
    if plan.trials == 0:
        return DETECTION_HEADER if axis == "snr" else SWEEP_HEADER, []
    scn = plan.scenario
    if values is None and axis != "n":
        raise ValueError(f"the {axis} axis needs its grid values")
    if scn.n < scn.p and (values is None or axis != "n"):  # rows train on n, or p to n
        raise ValueError("insufficient samples")
    values = range(scn.p, scn.n + 1, scn.p) if values is None else values
    if axis == "snr" and (pfa_list is None or len(pfa_list) == 0):
        raise ValueError("the snr axis needs its false-alarm rates")
    truth = synthesize_clutter_covariance(scn)
    spiked = truth_spiked_model(scn)
    sampler = SnapshotSampler(truth)  # R's one p x p reduction
    del truth
    # the estimation trials score against the truth in R's eigenbasis, while
    # theoretical_pd reads it in R's frame, with the spike vectors that the
    # clutter's m x m Gram gives
    if axis == "snr" and spiked.r:
        spiked = replace(spiked, vectors=clutter_spikes(scn)[1])
    if axis == "snr":
        return DETECTION_HEADER, _sweep_detection(plan, values, tuple(pfa_list), rank, spiked,
                                                  sampler)
    return SWEEP_HEADER, _sweep_estimation(plan, axis, values, spiked, sampler)
