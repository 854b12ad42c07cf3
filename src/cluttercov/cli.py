"""Command-line entry point: estimate, sweep, detect, verify-clt.

Every run is driven by one root seed, writes its outputs under --out-dir, and
drops a manifest.json recording the command, configuration, seed, and output
paths, so reruns with the same manifest inputs reproduce identical files.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, matio, rmt, validate
from .detector import DetectorConfig, detect
from .rcml import rcml_estimate
from .scenario import (
    PRESETS,
    ScenarioConfig,
    Scatterer,
    ScattererClutter,
    SnapshotSampler,
    SteeringSpec,
    ToeplitzClutter,
    amplitude_for_snr,
    inject_target,
    preset,
    synthesize_clutter_covariance,
)
from .shrinkage import SpikedModel, shrink_spectrum


class ConfigError(Exception):
    """Bad flags, missing files, or malformed scenario JSON."""


def _clutter_from_json(spec: dict, p: int, sigma2: float):
    kind = spec.get("kind")
    if kind == "spiked":
        return SpikedModel(p=p, sigma2=sigma2, spikes=np.asarray(spec["spikes"], dtype=float))
    if kind == "scatterers":
        return ScattererClutter(
            tuple(
                Scatterer(amplitude=s["amplitude"], theta=s["theta"], doppler=s["doppler"])
                for s in spec["scatterers"]
            )
        )
    if kind == "toeplitz":
        taps = np.asarray([complex(re, im) for re, im in spec["taps"]])
        return ToeplitzClutter(taps=taps, pulse_len=int(spec["pulse_len"]))
    if kind in (None, "none"):
        return None
    raise ConfigError(f"unknown clutter kind: {kind!r}")


def _scenario_from_args(args) -> ScenarioConfig:
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        n_flag = getattr(args, "n", None)
        try:
            cfg = ScenarioConfig(
                N=int(raw["N"]),
                K=int(raw["K"]),
                n=int(raw["n"]) if n_flag is None else n_flag,
                sigma2=float(raw["sigma2"]),
                clutter=_clutter_from_json(
                    raw.get("clutter", {}), int(raw["N"]) * int(raw["K"]), float(raw["sigma2"])
                ),
                seed=int(raw.get("seed", 0)),
                name=raw.get("name", path.stem),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad scenario config: {exc}") from exc
        return cfg
    name = getattr(args, "scenario", None) or "challenge-synthetic"
    if name not in PRESETS:
        raise ConfigError(f"unknown scenario preset: {name!r}")
    try:
        return preset(name, n=getattr(args, "n", None))
    except ValueError as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc


def _target_from_args(args, scn: ScenarioConfig) -> SteeringSpec:
    try:
        return SteeringSpec(
            theta=np.deg2rad(args.angle_deg), doppler=args.doppler, N=scn.N, K=scn.K
        )
    except ValueError as exc:
        raise ConfigError(f"bad target: {exc}") from exc


def _write_manifest(out_dir: Path, args, outputs: list[Path]) -> Path:
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "config_path": getattr(args, "config", None),
        "scenario": getattr(args, "scenario", None),
        "seed": getattr(args, "seed", None),
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _validate_outputs(paths: list[Path]) -> None:
    """Re-open every declared output and check it against its schema."""
    for path in paths:
        if not path.exists():
            raise RuntimeError(f"declared output missing: {path}")
        if path.suffix == ".json":
            json.loads(path.read_text())
        elif path.suffix == ".csv":
            text = path.read_text()
            if not text.strip():
                raise RuntimeError(f"empty CSV output: {path}")
        elif path.suffix == ".bin":
            base = path.with_suffix("")
            matio.load_matrix(base)


def _cmd_estimate(args) -> int:
    scn = _scenario_from_args(args)
    seed = scn.seed if args.seed is None else args.seed
    _check_rank(args.rank, scn.p)
    if scn.n < scn.p:
        raise ValueError("insufficient samples")
    truth = synthesize_clutter_covariance(scn)
    snapshots = SnapshotSampler(truth).draw(scn.n, seed)
    ratio = rmt.AspectRatio(scn.p, scn.n)
    decomp = rmt.eigh(rmt.sample_covariance(snapshots))
    shrunk = shrink_spectrum(decomp, ratio)
    if args.estimator == "shrinkage":
        est = shrunk
    else:
        rank = shrunk.spike_count if args.rank is None else args.rank
        est = rcml_estimate(decomp, shrunk.sigma2_hat, rank, ratio=ratio)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = matio.save_estimate(out_dir / f"estimate-{args.estimator}", est)
    outputs.append(_write_manifest(out_dir, args, outputs))
    _validate_outputs(outputs)
    print(json.dumps(est.summary()))
    return 0


def _parse_list(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x)
    except ValueError as exc:
        raise ConfigError(f"bad float list: {text!r}") from exc


def _check_pfa(values) -> None:
    for pfa in values:
        if not 0.0 < pfa < 1.0:
            raise ConfigError(f"--pfa must lie in (0, 1), got {pfa!r}")


def _check_rank(rank: int | None, p: int) -> None:
    if rank is not None and not 0 <= rank < p:
        raise ConfigError(f"--rank must satisfy 0 <= rank < p = {p}, got {rank}")


def _cmd_sweep(args) -> int:
    scn = _scenario_from_args(args)
    seed = scn.seed if args.seed is None else args.seed
    if args.trials < 0:
        raise ConfigError(f"--trials must be nonnegative, got {args.trials}")
    for flag, rows in (("--doppler-grid", args.doppler_grid), ("--angle-grid", args.angle_grid)):
        if rows is not None and rows < 1:
            raise ConfigError(f"{flag} must be positive, got {rows}")
    pfa_list = _parse_list(args.pfa)
    if args.axis == "snr":
        _check_pfa(pfa_list)
        _check_rank(args.rank, scn.p)
    plan = validate.TrialPlan(
        scenario=scn,
        trials=args.trials,
        seed=seed,
        target=_target_from_args(args, scn),
    )
    values = None
    if args.axis == "doppler" and args.doppler_grid is not None:
        values = np.linspace(-0.5, 0.5, args.doppler_grid)
    elif args.axis == "angle" and args.angle_grid is not None:
        values = np.linspace(-np.pi / 3, np.pi / 3, args.angle_grid)
    elif args.axis == "snr":
        if not (args.snr_step > 0 and args.snr_lo <= args.snr_hi):
            raise ConfigError("the SNR grid needs --snr-step > 0 and --snr-lo <= --snr-hi")
        values = np.arange(args.snr_lo, args.snr_hi + 1e-9, args.snr_step)
    csv_text = validate.sweep(plan, args.axis, values=values, pfa_list=pfa_list, rank=args.rank)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"sweep-{args.axis}.csv"
    csv_path.write_text(csv_text)
    outputs = [csv_path, _write_manifest(out_dir, args, [csv_path])]
    _validate_outputs(outputs)
    print(csv_path)
    return 0


def _cmd_detect(args) -> int:
    scn = _scenario_from_args(args)
    seed = scn.seed if args.seed is None else args.seed
    _check_pfa([args.pfa])
    _check_rank(args.rank, scn.p)
    target = _target_from_args(args, scn)
    truth = synthesize_clutter_covariance(scn)
    amp = amplitude_for_snr(args.snr_db, scn.sigma2, scn.N, scn.K)
    snapshots = inject_target(SnapshotSampler(truth).draw(scn.n + 1, seed), target, amp)
    if args.rank == 0 and scn.clutter is not None:
        print(
            "warning: rank 0 disables the clutter projection on a clutter-bearing scene",
            file=sys.stderr,
        )
    report = detect(snapshots, target, DetectorConfig(rank=args.rank, p_fa=args.pfa))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "detection.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    outputs = [report_path, _write_manifest(out_dir, args, [report_path])]
    _validate_outputs(outputs)
    print(json.dumps(report.to_dict()))
    return 0


def _cmd_verify_clt(args) -> int:
    if args.trials < 2:
        raise ConfigError(f"--trials must be at least 2, got {args.trials}")
    if args.p < 1 or not 0.0 < args.gamma <= 1.0 or not args.sigma2 > 0.0:
        raise ConfigError("verify-clt needs --p >= 1, --gamma in (0, 1] and --sigma2 > 0")
    # the exact ratio p / n that verify_clt runs at, and its detection edge
    edge = 1.0 + np.sqrt(args.p / round(args.p / args.gamma))
    spikes = np.asarray(sorted(_parse_list(args.spikes), reverse=True))
    if spikes.size == 0 or not np.all(spikes > edge):
        raise ConfigError(f"--spikes needs whitened spikes above the detection edge {edge:.6g}")
    model = SpikedModel(p=args.p, sigma2=args.sigma2, spikes=spikes * args.sigma2)
    results = validate.verify_clt(
        model, args.gamma, args.p, args.trials, args.seed or 0, ensemble=args.ensemble
    )
    payload = [
        {
            "spike": r.ell,
            "limit_value": r.limit_value,
            "mean_estimate": r.mean_estimate,
            "ks_statistic": r.ks.statistic,
            "p_value": r.ks.p_value,
            "trials": r.ks.n1,
        }
        for r in results
    ]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "clt-verification.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    outputs = [path, _write_manifest(out_dir, args, [path])]
    _validate_outputs(outputs)
    print(json.dumps(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cluttercov",
        description="Spiked clutter-plus-noise covariance estimation and detection toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, scenario=True):
        sp.add_argument("--seed", type=int, default=None, help="root seed (default: scenario seed)")
        sp.add_argument("--out-dir", default="cluttercov-out", help="output directory")
        if scenario:
            sp.add_argument("--scenario", default=None, help="preset scene name")
            sp.add_argument("--config", default=None, help="scenario JSON path")
            sp.add_argument("--n", type=int, default=None, help="training snapshot count")

    sp = sub.add_parser("estimate", help="estimate a covariance from a synthetic scene")
    add_common(sp)
    sp.add_argument("--estimator", choices=["shrinkage", "rcml"], default="shrinkage")
    sp.add_argument("--rank", type=int, default=None, help="clutter rank for the rcml estimator")
    sp.set_defaults(func=_cmd_estimate)

    sp = sub.add_parser("sweep", help="Monte Carlo sweep along one axis")
    add_common(sp)
    sp.add_argument("--axis", choices=["n", "doppler", "angle", "snr"], required=True)
    sp.add_argument("--trials", type=int, default=validate.DEFAULT_TRIALS)
    sp.add_argument("--doppler-grid", type=int, default=None, help="rows for a Doppler sweep")
    sp.add_argument("--angle-grid", type=int, default=None, help="rows for an angle sweep")
    sp.add_argument("--pfa", default="1e-2", help="comma-separated false-alarm rates (snr axis)")
    sp.add_argument("--snr-lo", type=float, default=-10.0)
    sp.add_argument("--snr-hi", type=float, default=30.0)
    sp.add_argument("--snr-step", type=float, default=4.0)
    sp.add_argument("--rank", type=int, default=None, help="projection rank (snr axis)")
    sp.add_argument("--doppler", type=float, default=0.2, help="target Doppler")
    sp.add_argument("--angle-deg", type=float, default=30.0, help="target angle, degrees")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("detect", help="single detection run on a synthetic scene")
    add_common(sp)
    sp.add_argument("--pfa", type=float, default=1e-3)
    sp.add_argument("--snr-db", type=float, default=30.0)
    sp.add_argument("--rank", type=int, default=None, help="projection rank (default: estimated)")
    sp.add_argument("--doppler", type=float, default=0.2, help="target Doppler")
    sp.add_argument("--angle-deg", type=float, default=30.0, help="target angle, degrees")
    sp.set_defaults(func=_cmd_detect)

    sp = sub.add_parser(
        "verify-clt",
        help="distributional check of the shrunk eigenvalues",
        description="KS test of the shrunk spike eigenvalues against their CLT law. The "
        "centring is asymptotic: at moderate p the finite-n location term is large enough "
        "for the KS test to reject a correct pipeline (at p = 120, n = 600 it rejects "
        "ell = 3 at 28.75% of seeds), so read small p-values at small p with care.",
    )
    add_common(sp, scenario=False)
    sp.add_argument("--spikes", default="5,3,2.5", help="whitened spike values")
    sp.add_argument("--gamma", type=float, default=0.2)
    sp.add_argument("--p", type=int, default=400)
    sp.add_argument("--sigma2", type=float, default=1.0)
    sp.add_argument("--trials", type=int, default=validate.DEFAULT_TRIALS)
    sp.add_argument("--ensemble", choices=["real", "complex"], default="complex")
    sp.set_defaults(func=_cmd_verify_clt)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, which matches the config error code
        return int(exc.code or 0)
    args.argv = argv  # recorded in the manifest
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError, KeyError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
