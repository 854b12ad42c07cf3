"""Monte Carlo validation: KS testing, CLT verification and metric sweeps.

Every routine is deterministic given its seed: each trial draws from an
independent substream keyed by the trial index, so results do not depend on
execution order, and aggregations are plain commutative reductions.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import rmt
from .detector import DetectorConfig, detect, theoretical_pd
from .metrics import kantorovich_bound, mvdr_error_variance, normalized_scnr_batch, stein_loss
from .rcml import rcml_estimate
from .rng import substream
from .scenario import (
    ScenarioConfig,
    SnapshotSampler,
    SteeringSpec,
    amplitude_for_snr,
    inject_target,
    steering_vector,
    synthesize_clutter_covariance,
    truth_spiked_model,
)
from .shrinkage import SpikedModel, clt_params, shrink_spectrum

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
    """Monte Carlo plan: scene, trial count, target, seed."""

    scenario: ScenarioConfig
    trials: int = DEFAULT_TRIALS
    seed: int = 0
    target: SteeringSpec | None = None

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")

    def resolved_target(self) -> SteeringSpec:
        if self.target is not None:
            return self.target
        return SteeringSpec(theta=np.deg2rad(30.0), doppler=0.2,
                            N=self.scenario.N, K=self.scenario.K)


def _kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function, series truncated at 100 terms."""
    if lam <= 0:
        return 1.0
    k = np.arange(1, KOLMOGOROV_SERIES_TERMS + 1)
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
    model: SpikedModel,
    gamma: float,
    p: int,
    trials: int,
    seed: int,
    ensemble: str = "complex",
) -> list[CltSpikeResult]:
    """Check the distributional law of the shrunk spike eigenvalues by simulation.

    For each spike, collects sqrt(n) * (shrunk eigenvalue - its limit) over
    trials of the full estimation pipeline and KS-tests the whitened values
    against reference normal draws with the prescribed scale
    alpha * eta_prime(beta). The prescribed variance alpha^2 is exact for real
    Gaussian snapshots; circular complex snapshots halve it, so the reference
    scale carries a 1/sqrt(2) factor for ensemble="complex".

    n is chosen as round(p / gamma) and the exact ratio p / n is used
    throughout, which keeps the CLT's p/n - gamma = o(n^{-1/2}) side condition
    trivially satisfied.

    The centring is asymptotic. At moderate p the sample spike eigenvalue
    still carries an O(1/n) location term (Lawley's expansion), so the
    whitened samples sit O(1/sqrt(n)) off zero: about -0.15 sd for ell = 3
    at p = 120, n = 600 (complex), which a KS test over a few hundred trials
    detects. There the test rejects that correct spike at 28.75% of seeds
    (40 seeds, both ensembles), so a small p-value at small p does not by
    itself show a fault in the pipeline.
    """
    if ensemble not in ("real", "complex"):
        raise ValueError("ensemble must be 'real' or 'complex'")
    if model.r == 0:
        raise ValueError("model must have at least one spike")
    if trials < 2:
        raise ValueError("need at least two trials")
    n = int(round(p / gamma))
    ratio = rmt.AspectRatio(p, n)
    g = ratio.gamma
    ells = model.whitened_spikes()
    if np.any(ells <= 1.0 + np.sqrt(g)):
        raise ValueError("sub-critical spike")
    params = [clt_params(ell, g) for ell in ells]
    sigma2 = model.sigma2
    scale_fix = 1.0 if ensemble == "real" else 1.0 / np.sqrt(2.0)

    root = np.sqrt(model.spectrum())
    shrunk = np.empty((trials, model.r))
    for t in range(trials):
        rng = substream(seed, t)
        if ensemble == "real":
            w = rng.standard_normal((p, n))
        else:
            w = (rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))) / np.sqrt(2.0)
        w *= root[:, None]  # diagonal truth: the eigenvalue law is basis-free
        decomp = rmt.eigh(rmt.sample_covariance(w))
        est = shrink_spectrum(decomp, ratio)
        # a spike the estimator missed sits on the floor
        k = min(est.spike_count, model.r)
        shrunk[t] = est.sigma2_hat
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


def _steering_matrix(specs: list[SteeringSpec]) -> np.ndarray:
    return np.column_stack([steering_vector(s) for s in specs])


def _estimate_both(data: np.ndarray, ratio: rmt.AspectRatio) -> dict:
    decomp = rmt.eigh(rmt.sample_covariance(data))
    shrink = shrink_spectrum(decomp, ratio)
    return {
        "shrinkage": shrink,
        "rcml": rcml_estimate(decomp, shrink.sigma2_hat, shrink.spike_count, ratio=ratio),
    }


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


def _sweep_estimation(plan: TrialPlan, axis: str, values, truth, spiked, sampler) -> str:
    scn = plan.scenario
    p = scn.p
    rows = []
    target = plan.resolved_target()
    if axis == "n":
        n_values = [int(v) for v in values]
        cases = [(n, [target]) for n in n_values]
    elif axis == "doppler":
        cases = [
            (scn.n, [SteeringSpec(th, float(v), scn.N, scn.K) for th in ANGLE_MARGIN_GRID])
            for v in values
        ]
    else:  # angle
        cases = [
            (scn.n, [SteeringSpec(float(v), fd, scn.N, scn.K) for fd in DOPPLER_MARGIN_GRID])
            for v in values
        ]

    mvdr_truth = mvdr_error_variance(truth, target)
    for value, (n, specs) in zip(values, cases):
        ratio = rmt.AspectRatio(p, n)
        s_mat = _steering_matrix(specs)
        acc = {name: dict(rho=0.0, mvdr=0.0, stein=0.0) for name in ("shrinkage", "rcml")}
        bound_acc = 0.0
        for t in range(plan.trials):
            ests = _estimate_both(sampler.draw(n, plan.seed, stream=t), ratio)
            for name, est in ests.items():
                acc[name]["rho"] += float(
                    np.mean(normalized_scnr_batch(est, truth, s_mat))
                )
                acc[name]["mvdr"] += mvdr_error_variance(est, target) / mvdr_truth
                acc[name]["stein"] += stein_loss(truth, est)
            bound_acc += kantorovich_bound(spiked, ests["shrinkage"], ratio.gamma).lower_bound
        k = plan.trials
        shr, rc = acc["shrinkage"], acc["rcml"]
        row = [
            scn.name,
            axis,
            float(value),
            n,
            ratio.gamma,
            plan.trials,
            shr["rho"] / k,
            rc["rho"] / k,
            bound_acc / k,
            shr["mvdr"] / k,
            rc["mvdr"] / k,
            shr["stein"] / k,
            rc["stein"] / k,
        ]
        rows.append(row)
    return _rows_to_csv(SWEEP_HEADER, rows)


def _sweep_detection(plan: TrialPlan, snr_grid, pfa_list, rank: int | None) -> str:
    scn = plan.scenario
    truth = synthesize_clutter_covariance(scn)
    spiked = truth_spiked_model(scn, truth)
    sampler = SnapshotSampler(truth)
    target = plan.resolved_target()
    ratio_gamma = scn.p / scn.n
    eigvecs = None
    if spiked.r:
        eigvecs = rmt.eigh(truth).leading(spiked.r)
    rows = []
    for snr_db in snr_grid:
        amp = amplitude_for_snr(float(snr_db), scn.sigma2, scn.N, scn.K)
        hits = {pfa: 0 for pfa in pfa_list}
        for t in range(plan.trials):
            # rebinding frees the last trial's snapshots before the injected copy is made
            snaps = sampler.draw(scn.n + 1, plan.seed, stream=t)
            snaps = inject_target(snaps, target, amp)
            for pfa in pfa_list:
                report = detect(snaps, target, DetectorConfig(rank=rank, p_fa=pfa))
                hits[pfa] += int(report.decision)
        for pfa in pfa_list:
            pd_theory = theoretical_pd(spiked, target, amp, pfa, ratio_gamma, eigvecs)
            emp = hits[pfa] / plan.trials if plan.trials else float("nan")
            rows.append([float(snr_db), float(pfa), emp, pd_theory, plan.trials])
    return _rows_to_csv(DETECTION_HEADER, rows)


def sweep(
    plan: TrialPlan,
    axis: str,
    values=None,
    pfa_list: tuple[float, ...] = (1e-2,),
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

    A zero-trial plan short-circuits to a header-only table.
    """
    if axis not in ("n", "doppler", "angle", "snr"):
        raise ValueError("axis must be one of n, doppler, angle, snr")
    if plan.trials == 0:
        header = DETECTION_HEADER if axis == "snr" else SWEEP_HEADER
        return _rows_to_csv(header, [])
    scn = plan.scenario
    if axis == "snr":
        grid = np.arange(-10.0, 30.0 + 1e-9, 4.0) if values is None else values
        return _sweep_detection(plan, grid, tuple(pfa_list), rank)
    if values is None:
        if axis == "n":
            if scn.n < scn.p:
                raise ValueError("insufficient samples")  # no multiple of p fits in n
            values = [k * scn.p for k in range(1, max(2, scn.n // scn.p) + 1) if k * scn.p <= scn.n]
        else:
            values = np.linspace(-0.5, 0.5, 16) if axis == "doppler" else np.linspace(
                -np.pi / 3, np.pi / 3, 16
            )
    truth = synthesize_clutter_covariance(scn)
    spiked = truth_spiked_model(scn, truth)
    sampler = SnapshotSampler(truth)
    return _sweep_estimation(plan, axis, values, truth, spiked, sampler)
