"""Monte Carlo validation: KS testing, CLT verification and metric sweeps.

Every routine is deterministic given its seed: each trial draws from an
independent substream keyed by the trial index, so results do not depend on
execution order, and aggregations are plain commutative reductions. Sweep
rows that train on one snapshot count share each trial's draw and estimates,
so a sweep costs its distinct training sizes times its trials, not its rows
times its trials.

Every trial, the CLI's single-shot ``estimate`` and ``detect`` included,
runs through ``_trial_estimates`` or ``_detection_trial``, which also bound
what a trial holds: its draw and its sample covariance, which ``rmt.eigh``
reduces in place when it is column-major. Around the trials a sweep holds
vectors only: the spiked truth never reads R, R is dropped once the
sampler is built, and the sampler's reduction of R, which applies its
eigenbasis V without forming it, once every steering vector the sweep
scores is rotated into V, before the first draw.

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

import csv
import io
from dataclasses import dataclass, field, replace
from itertools import groupby

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
    n1: int
    n2: int

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
    return KsResult(statistic=stat, p_value=p, n1=a.size, n2=b.size)


@dataclass(frozen=True)
class CltSpikeResult:
    """CLT verification outcome for one spike."""

    ell: float
    limit_value: float  # sigma2 * eta(beta): the a.s. limit of the shrunk eigenvalue
    mean_estimate: float
    ks: KsResult
    samples: np.ndarray = field(repr=False)


def verify_clt(
    model: SpikedCovariance, gamma: float, trials: int, seed: int, ensemble: str = "complex"
) -> list[CltSpikeResult]:
    """Check the distributional law of the shrunk spike eigenvalues by simulation.

    For each spike, collects sqrt(n) * (shrunk eigenvalue - its limit) over
    trials of the full estimation pipeline and KS-tests the whitened values
    against reference normal draws with the prescribed scale
    alpha * eta_prime(beta). The prescribed variance alpha^2 is exact for real
    Gaussian snapshots; circular complex snapshots halve it, so the reference
    scale carries a 1/sqrt(2) factor for ensemble="complex".

    The snapshots are p = ``model.p`` dimensional, drawn with the diagonal
    covariance diag(model.spectrum()), as the eigenvalue law is basis-free.
    n is chosen as round(p / gamma) and the exact ratio p / n is used
    throughout, which keeps the CLT's p/n - gamma = o(n^{-1/2}) side condition
    trivially satisfied.

    The centring is asymptotic. At moderate p the sample spike eigenvalue
    still carries an O(1/n) location term (Lawley's expansion), dominated
    between two spikes by ell_i ell_j / (n (ell_i - ell_j)): in the (5, 3)
    scene at p = 120, n = 600 (complex) the ell = 3 samples sit about
    -0.15 sd off zero, and the KS test rejects that correct pipeline at
    28.75% of seeds (40 seeds, both ensembles), while a lone ell = 3 sits
    -0.01 to -0.06 sd off. So a small p-value at small p is no fault.
    """
    if ensemble not in ("real", "complex"):
        raise ValueError("ensemble must be 'real' or 'complex'")
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
    scale_fix = 1.0 if ensemble == "real" else 1.0 / np.sqrt(2.0)

    root = np.sqrt(model.spectrum())

    def draw(n, seed, stream):
        if ensemble == "complex":
            return complex_normal(substream(seed, stream), p, n, root)
        w = substream(seed, stream).standard_normal((p, n))
        w *= root[:, None]  # in place, so one p x n block is alive
        return w

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
        ref = ref_rng.standard_normal(trials) * np.sqrt(prm.alpha2) * prm.eta_prime * scale_fix
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


def _trial_estimates(draw, n: int, seed: int, trials: int, estimate):
    """Yield ``estimate(rmt.eigh(rmt.sample_covariance(draw(n, seed, t)), overwrite_a=True))`` for t < trials.

    Trial t draws from stream (seed, t). Each array lives while a step needs
    it: the snapshots until their SCM is formed, and the SCM, which nothing
    else reads, until ``estimate`` returns, as the array that ``rmt.eigh``
    reduces in place (a column-major draw, as ``complex_normal`` makes,
    gives a column-major SCM; any other is reduced in a copy). So a trial's
    working set is its largest step, the p x n snapshots plus their p x p
    SCM, or that one p x p array plus what ``estimate`` asks of it, and only
    the estimate reaches the next draw. Names are looked up at call time, so
    a rebound one is called.
    """
    for t in range(trials):
        yield estimate(rmt.eigh(rmt.sample_covariance(draw(n, seed, t)), overwrite_a=True))


def _estimate_both(decomp: rmt.EigenDecomposition, ratio: rmt.AspectRatio,
                   rank: int | None = None) -> dict:
    """Both estimates of one trial; RCML clips at ``rank``, by default the shrinkage spike count."""
    shrink = shrink_spectrum(decomp, ratio)
    return {
        "shrinkage": shrink,
        "rcml": rcml_estimate(decomp, shrink.sigma2, shrink.r if rank is None else rank),
    }


def _detection_trial(draw, n: int, seed: int, t: int, steering: np.ndarray, amp: complex,
                     rank: int | None, pfas) -> list:
    """Trial t of detection: ``detect``'s report at each false-alarm rate in ``pfas``.

    The draw of n + 1 snapshots from stream (seed, t) is the training view
    ``[:, :n]`` and the test cell ``[:, n]``, to which ``inject_target`` adds
    the target; it is freed on return. Names are looked up at call time.
    """
    w = draw(n + 1, seed, t)
    y = inject_target(w[:, n], steering, amp)
    return [detect(w[:, :n], y, steering, rank, pfa) for pfa in pfas]


def _format_row(values) -> list[str]:
    out = []
    for v in values:
        if isinstance(v, float):
            out.append(f"{v:.10g}")
        else:
            out.append(str(v))
    return out


def _rows_to_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(_format_row(row))
    return buf.getvalue()


def _sweep_estimation(plan: TrialPlan, axis: str, values, spiked, sampler) -> str:
    scn = plan.scenario

    def rotated(specs):
        # a row's steering vectors in the frame of the draws, with the truth's
        # y^H R^{-1} y of each: the one SCNR term that no trial changes
        s_mat = sampler.to_eigenbasis(np.column_stack([steering_vector(s) for s in specs]))
        return s_mat, spiked.quad_inv(s_mat)

    # the trials run in R's eigenbasis, where the spiked truth is diagonal,
    # and every steering vector enters that frame here, before the first draw
    if axis == "n":
        column, quad = rotated([plan.target])  # one rotation serves every row and the MVDR target
        s_target = column[:, 0]
        cases = ((v, int(v), (column, quad)) for v in values)  # lazy: one row at a time
    else:
        s_target = sampler.to_eigenbasis(steering_vector(plan.target))
        if axis == "doppler":
            specs = [[SteeringSpec(th, float(v), scn.N, scn.K) for th in ANGLE_MARGIN_GRID]
                     for v in values]
        else:  # angle
            specs = [[SteeringSpec(float(v), fd, scn.N, scn.K) for fd in DOPPLER_MARGIN_GRID]
                     for v in values]
        cases = [(v, scn.n, rotated(row_specs)) for v, row_specs in zip(values, specs)]
    sampler.release_basis()  # the trials read root, the spiked truth and the rotated vectors
    mvdr_truth = mvdr_error_variance(spiked, s_target)
    rows = []
    for n, group in groupby(cases, key=lambda case: case[1]):
        group = [(value, scored) for value, _, scored in group]
        ratio = rmt.AspectRatio(scn.p, n)
        sums = [dict.fromkeys(SWEEP_HEADER[6:], 0.0) for _ in group]  # the averaged columns
        for ests in _trial_estimates(sampler.draw, n, plan.seed, plan.trials,
                                     lambda decomp: _estimate_both(decomp, ratio)):
            trial = {"scnr_bound": kantorovich_bound(spiked, ests["shrinkage"], ratio.gamma)}
            for name, est in ests.items():
                trial[f"mvdr_ratio_{name}"] = mvdr_error_variance(est, s_target) / mvdr_truth
                trial[f"stein_loss_{name}"] = stein_loss(spiked, est)
            for (_, (s_mat, quad)), row_sums in zip(group, sums):
                for name, est in ests.items():
                    rho = normalized_scnr_batch(est, spiked, s_mat, quad)
                    trial[f"rho_{name}"] = float(np.mean(rho))
                for col in row_sums:
                    row_sums[col] += trial[col]
        for (value, _), row_sums in zip(group, sums):
            rows.append([scn.name, axis, float(value), n, ratio.gamma, plan.trials,
                         *(total / plan.trials for total in row_sums.values())])
    return _rows_to_csv(SWEEP_HEADER, rows)


def _sweep_detection(plan: TrialPlan, snr_grid, pfa_list, rank: int | None,
                     spiked, sampler) -> str:
    scn = plan.scenario
    ratio_gamma = scn.p / scn.n
    steering = steering_vector(plan.target)  # theoretical_pd reads it in R's frame
    s_target = sampler.to_eigenbasis(steering)  # the frame of the draws
    sampler.release_basis()  # the trials read root and the two steering vectors only
    rows = []
    for snr_db in snr_grid:
        amp = amplitude_for_snr(float(snr_db), scn.sigma2, scn.N, scn.K)
        hits = [0] * len(pfa_list)  # by position: a rate listed twice is two rows
        for t in range(plan.trials):
            reports = _detection_trial(sampler.draw, scn.n, plan.seed, t, s_target, amp, rank,
                                       pfa_list)
            hits = [hit + report.decision for hit, report in zip(hits, reports)]
        for pfa, hit in zip(pfa_list, hits):
            pd_theory = theoretical_pd(spiked, steering, amp, pfa, ratio_gamma)
            rows.append([float(snr_db), float(pfa), hit / plan.trials, pd_theory, plan.trials])
    return _rows_to_csv(DETECTION_HEADER, rows)


def sweep(
    plan: TrialPlan,
    axis: str,
    values=None,
    pfa_list: tuple[float, ...] | None = None,
    rank: int | None = None,
) -> str:
    """Monte Carlo sweep along one axis; returns the CSV text.

    axis "n" averages normalized SCNR, MVDR ratio, and Stein loss over trials
    at each training size (default: multiples of p up to the scene's n). Axis
    "doppler" and "angle" fix the training size and marginalize the SCNR over
    the complementary steering grid (angle spacing pi/180 when sweeping
    Doppler, Doppler spacing pi/50 in normalized Doppler when sweeping angle).
    The marginal is a plain mean over that grid, so a feature confined to one
    angle (or one Doppler) is diluted by the grid size. Axis "snr" runs the
    detector and reports empirical versus asymptotic detection probability
    for each requested false-alarm rate.

    Rows at one training size share each trial's draw and both estimates, so
    every row of a Doppler or angle sweep carries the same bound, MVDR and
    Stein columns, and the Monte Carlo work scales with the distinct training
    sizes times the trials. Every axis but "n" needs its grid ``values``, and
    the "snr" axis a nonempty ``pfa_list`` of false-alarm rates, one row per
    entry at each SNR (a rate listed twice gives two equal rows).

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
    lazy iterable and costs one row's memory.

    A zero-trial plan short-circuits to a header-only table.
    """
    if axis not in ("n", "doppler", "angle", "snr"):
        raise ValueError("axis must be one of n, doppler, angle, snr")
    if plan.trials == 0:
        header = DETECTION_HEADER if axis == "snr" else SWEEP_HEADER
        return _rows_to_csv(header, [])
    scn = plan.scenario
    if values is None:
        if axis != "n":
            raise ValueError(f"the {axis} axis needs its grid values")
        if scn.n < scn.p:
            raise ValueError("insufficient samples")  # no multiple of p fits in n
        values = range(scn.p, scn.n + 1, scn.p)
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
        return _sweep_detection(plan, values, tuple(pfa_list), rank, spiked, sampler)
    return _sweep_estimation(plan, axis, values, spiked, sampler)
