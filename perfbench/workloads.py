"""The benchmark's workloads: CLI arguments, set-up inputs, output checks, call counts.

Every workload runs the ``challenge-synthetic`` preset (or, for the CLT
check, a diagonal truth) through one ``cluttercov`` subcommand. The
benchmark seed is passed to the CLI as ``--seed``; nothing else varies
with it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Relative tolerance against the recorded reference outputs. The CLI writes
# sweep values with 10 significant digits; 1e-6 admits a reordered BLAS
# reduction and rejects any change of the estimator or metric.
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12

SWEEP_HEADER = [
    "scenario", "axis", "value", "n", "gamma", "trials",
    "rho_shrinkage", "rho_rcml", "scnr_bound",
    "mvdr_ratio_shrinkage", "mvdr_ratio_rcml",
    "stein_loss_shrinkage", "stein_loss_rcml",
]
DETECTION_HEADER = ["snr_db", "p_fa", "empirical_pd", "theoretical_pd", "trials"]
CLT_KEYS = {"spike", "limit_value", "mean_estimate", "ks_statistic", "p_value", "trials"}

SWEEP_SETUP = """
from cluttercov import SnapshotSampler, preset, synthesize_clutter_covariance, truth_spiked_model
scn = preset("challenge-synthetic")
truth = synthesize_clutter_covariance(scn)
truth_spiked_model(scn, truth)
SnapshotSampler(truth)
"""
CLT_SETUP = """
from cluttercov import AspectRatio, MPLaw, mp_median
mp_median(MPLaw(AspectRatio(1024, 2048)))
"""


class CheckError(Exception):
    """An output that breaks its schema, its value ranges or its reference."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]
    output: str  # data file the command writes under --out-dir
    setup_code: str  # fresh-process set-up: the fixed inputs, built through public functions
    trials: int
    p: int
    scenario: str = "challenge-synthetic"
    grid: tuple = ()  # sweep values (n or SNR) in row order
    pfa: tuple[float, ...] = ()
    spikes: tuple[float, ...] = ()

    @property
    def rows(self) -> int:
        if self.spikes:
            return 1
        return len(self.grid) * max(len(self.pfa), 1)

    @property
    def trial_evals(self) -> int:
        """Monte Carlo (grid point, trial) pairs one command evaluates."""
        return self.rows * self.trials

    def cli_argv(self, seed: int, out_dir: Path) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--out-dir", str(out_dir)]


def _est_counts(g: int, t: int) -> dict:
    k = g * t
    return {
        "cli.self": 1, "validate.self": 1,
        "scenario.synthesize": 1, "scenario.truth_spiked_model": 1, "scenario.sampler_init": 1,
        "scenario.draw": k, "scenario.inject_target": 0,
        "rmt.sample_covariance": k, "rmt.eigh": 2 + k, "rmt.mp_median": k,
        "shrinkage.shrink_spectrum": k, "shrinkage.estimate_noise": k, "rcml.rcml_estimate": k,
        "metrics.stein_loss": 2 * k, "metrics.normalized_scnr_batch": 2 * k,
        "metrics.mvdr_error_variance": 1 + 2 * k, "metrics.kantorovich_bound": k,
        "detector.detect": 0, "detector.theoretical_pd": 0,
    }


def _det_counts(s: int, f: int, t: int) -> dict:
    k = s * f * t
    return {
        "cli.self": 1, "validate.self": 1,
        "scenario.synthesize": 1, "scenario.truth_spiked_model": 1, "scenario.sampler_init": 1,
        "scenario.draw": s * t, "scenario.inject_target": s * t,
        "rmt.sample_covariance": k, "rmt.eigh": 3 + k, "rmt.mp_median": k,
        "shrinkage.shrink_spectrum": 0, "shrinkage.estimate_noise": k, "rcml.rcml_estimate": 0,
        "metrics.stein_loss": 0, "metrics.normalized_scnr_batch": 0,
        "metrics.mvdr_error_variance": 0, "metrics.kantorovich_bound": 0,
        "detector.detect": k, "detector.theoretical_pd": s * f,
    }


def _clt_counts(t: int) -> dict:
    return {
        "cli.self": 1, "validate.self": 1,
        "scenario.synthesize": 0, "scenario.truth_spiked_model": 0, "scenario.sampler_init": 0,
        "scenario.draw": 0, "scenario.inject_target": 0,
        "rmt.sample_covariance": t, "rmt.eigh": t, "rmt.mp_median": t,
        "shrinkage.shrink_spectrum": t, "shrinkage.estimate_noise": t, "rcml.rcml_estimate": 0,
        "metrics.stein_loss": 0, "metrics.normalized_scnr_batch": 0,
        "metrics.mvdr_error_variance": 0, "metrics.kantorovich_bound": 0,
        "detector.detect": 0, "detector.theoretical_pd": 0,
    }


def expected_counts(w: Workload) -> dict:
    """Calls per traced layer that one command of workload ``w`` must make."""
    if w.spikes:
        return _clt_counts(w.trials)
    if w.pfa:
        return _det_counts(len(w.grid), len(w.pfa), w.trials)
    return _est_counts(len(w.grid), w.trials)


EST_TRIALS = 1
DET_TRIALS = 1
CLT_TRIALS = 2
DET_SNR = (-10.0, 0.0, 10.0, 20.0)
DET_PFA = (1e-2, 1e-3)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="est-nsweep",
            why="n-sweep at p=512: both estimators and every metric, the paper's main figure",
            argv=("sweep", "--axis", "n", "--trials", str(EST_TRIALS)),
            output="sweep-n.csv",
            setup_code=SWEEP_SETUP,
            trials=EST_TRIALS,
            p=512,
            grid=(512, 1024, 1536, 2048),
        ),
        Workload(
            name="det-snrsweep",
            why="SNR sweep at p=512, two false-alarm rates: detector redoes SCM+eigh per (SNR, pfa, trial)",
            argv=(
                "sweep", "--axis", "snr", "--trials", str(DET_TRIALS), "--pfa", "1e-2,1e-3",
                "--snr-lo", "-10", "--snr-hi", "20", "--snr-step", "10",
            ),
            output="sweep-snr.csv",
            setup_code=SWEEP_SETUP,
            trials=DET_TRIALS,
            p=512,
            grid=DET_SNR,
            pfa=DET_PFA,
        ),
        Workload(
            name="clt-p1024",
            why="CLT/KS check at p=1024, n=2048: rmt layer far past cache, no sampler, metrics or detector",
            argv=("verify-clt", "--p", "1024", "--gamma", "0.5", "--trials", str(CLT_TRIALS)),
            output="clt-verification.json",
            setup_code=CLT_SETUP,
            trials=CLT_TRIALS,
            p=1024,
            scenario="",
            spikes=(5.0, 3.0, 2.5),
        ),
    )
}


# ---------------------------------------------------------------- output checks


def _num(text: str, what: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise CheckError(f"{what}: not a number: {text!r}") from None
    if not math.isfinite(v):
        raise CheckError(f"{what}: not finite: {text!r}")
    return v


def _in(v: float, lo: float, hi: float, what: str, lo_open: bool = False) -> None:
    if v > hi or v < lo or (lo_open and v == lo):
        raise CheckError(f"{what} = {v!r} outside {'(' if lo_open else '['}{lo}, {hi}]")


def _parse_csv(text: str, header: list[str]) -> list[dict]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise CheckError(f"CSV header {rows[0] if rows else None} != {header}")
    out = []
    for i, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise CheckError(f"CSV row {i} has {len(row)} fields, expected {len(header)}")
        out.append(dict(zip(header, row)))
    return out


def _check_est(w: Workload, text: str) -> list[dict]:
    rows = _parse_csv(text, SWEEP_HEADER)
    if len(rows) != len(w.grid):
        raise CheckError(f"{len(rows)} rows, expected {len(w.grid)}")
    parsed = []
    for row, n in zip(rows, w.grid):
        if row["scenario"] != w.scenario or row["axis"] != "n":
            raise CheckError(f"row labels {row['scenario']!r}, {row['axis']!r}")
        vals = {k: _num(row[k], k) for k in SWEEP_HEADER[2:]}
        if vals["value"] != n or vals["n"] != n or vals["trials"] != w.trials:
            raise CheckError(f"row for n={n} reads value={vals['value']}, n={vals['n']}, trials={vals['trials']}")
        if abs(vals["gamma"] - w.p / n) > 1e-9:
            raise CheckError(f"gamma {vals['gamma']} != p/n at n={n}")
        for k in ("rho_shrinkage", "rho_rcml", "scnr_bound"):
            _in(vals[k], 0.0, 1.0, k, lo_open=True)
        for k in ("mvdr_ratio_shrinkage", "mvdr_ratio_rcml"):
            if vals[k] <= 0:
                raise CheckError(f"{k} = {vals[k]} not positive")
        for k in ("stein_loss_shrinkage", "stein_loss_rcml"):
            if vals[k] < 0:
                raise CheckError(f"{k} = {vals[k]} negative")
        parsed.append(vals)
    return parsed


def _check_det(w: Workload, text: str) -> list[dict]:
    rows = _parse_csv(text, DETECTION_HEADER)
    keys = [(s, f) for s in w.grid for f in w.pfa]
    if len(rows) != len(keys):
        raise CheckError(f"{len(rows)} rows, expected {len(keys)}")
    parsed = []
    for row, (snr, pfa) in zip(rows, keys):
        vals = {k: _num(row[k], k) for k in DETECTION_HEADER}
        if vals["snr_db"] != snr or vals["p_fa"] != pfa or vals["trials"] != w.trials:
            raise CheckError(f"row for ({snr}, {pfa}) reads {vals}")
        _in(vals["empirical_pd"], 0.0, 1.0, "empirical_pd")
        _in(vals["theoretical_pd"], 0.0, 1.0, "theoretical_pd")
        hits = vals.pop("empirical_pd") * w.trials  # compared as an exact count
        if abs(hits - round(hits)) > 1e-9:
            raise CheckError(f"empirical_pd {hits / w.trials} is not hits/{w.trials}")
        vals["hits"] = int(round(hits))
        parsed.append(vals)
    return parsed


def _check_clt(w: Workload, text: str) -> list[dict]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"not JSON: {exc}") from None
    if not isinstance(payload, list) or len(payload) != len(w.spikes):
        raise CheckError(f"expected a list of {len(w.spikes)} spikes")
    parsed = []
    for entry, spike in zip(payload, w.spikes):
        if not isinstance(entry, dict) or set(entry) != CLT_KEYS:
            raise CheckError(f"spike entry keys {sorted(entry) if isinstance(entry, dict) else entry}")
        vals = {k: _num(repr(entry[k]), k) for k in CLT_KEYS}
        if vals["spike"] != spike or vals["trials"] != w.trials:
            raise CheckError(f"spike entry {vals}")
        _in(vals["ks_statistic"], 0.0, 1.0, "ks_statistic")
        _in(vals["p_value"], 0.0, 1.0, "p_value")
        if vals["limit_value"] <= 0 or vals["mean_estimate"] <= 0:
            raise CheckError("shrunk eigenvalues must be positive")
        parsed.append(vals)
    return parsed


def check_output(w: Workload, text: str) -> list[dict]:
    """Parse one command's data output and check schema, finiteness and ranges."""
    if w.spikes:
        return _check_clt(w, text)
    if w.pfa:
        return _check_det(w, text)
    return _check_est(w, text)


def check_manifest(w: Workload, text: str, seed: int) -> None:
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"manifest is not JSON: {exc}") from None
    if manifest.get("command") != w.argv[0] or manifest.get("seed") != seed:
        raise CheckError(f"manifest command/seed {manifest.get('command')!r}/{manifest.get('seed')!r}")
    outputs = manifest.get("outputs")
    if not isinstance(outputs, list) or not any(str(o).endswith(w.output) for o in outputs):
        raise CheckError(f"manifest does not list {w.output}")


def compare_reference(w: Workload, parsed: list[dict], ref_text: str) -> None:
    """Values within REFERENCE_RTOL of the reference; detection hit counts exactly."""
    ref = check_output(w, ref_text)
    for i, (got, want) in enumerate(zip(parsed, ref)):
        for key, v in want.items():
            if key == "hits":
                if got[key] != v:
                    raise CheckError(f"row {i}: {got[key]} detections, reference {v}")
            elif abs(got[key] - v) > REFERENCE_ATOL + REFERENCE_RTOL * abs(v):
                raise CheckError(f"row {i}: {key} = {got[key]!r}, reference {v!r}")


def load_reference(w: Workload, ref_dir: Path) -> dict[int, str]:
    path = ref_dir / f"{w.name}.json"
    data = json.loads(path.read_text())
    if data["argv"] != list(w.argv):
        raise CheckError(f"reference {path.name} was recorded for {data['argv']}")
    return {int(k): v for k, v in data["outputs"].items()}
