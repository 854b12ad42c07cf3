"""Command-line entry point: estimate, sweep, detect, verify-clt.

Every run is driven by one root seed, writes its outputs under --out-dir, and
drops a manifest.json recording the command, configuration, the seed the run
used (``--seed``, else the scene's seed, or 0 for verify-clt) and output
paths, so reruns with the same manifest inputs reproduce identical files.
The manifest also records the numpy and scipy versions and the
``*_NUM_THREADS`` variables the process saw.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, matio, rmt, validate
from .detector import detect
from .rcml import rcml_estimate
from .scenario import (
    PRESETS,
    ConfigError,
    ScenarioConfig,
    SceneOverflowError,
    Scatterer,
    ScattererClutter,
    SnapshotSampler,
    SpikedClutter,
    SteeringSpec,
    ToeplitzClutter,
    amplitude_for_snr,
    inject_target,
    preset,
    steering_vector,
    synthesize_clutter_covariance,
)
from .shrinkage import SpikedCovariance, shrink_spectrum


def _integer(value, name: str) -> int:
    """A scene JSON number that must be an integer: 4 and 4.0 are, 2.7, true and "4" are not."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _clutter_from_json(spec: dict):
    if not isinstance(spec, dict):
        raise ConfigError(f"clutter must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "spiked":
        return SpikedClutter(spikes=spec["spikes"])
    if kind == "scatterers":
        return ScattererClutter(
            tuple(
                Scatterer(amplitude=s["amplitude"], theta=s["theta"], doppler=s["doppler"])
                for s in spec["scatterers"]
            )
        )
    if kind == "toeplitz":
        taps = np.asarray([complex(re, im) for re, im in spec["taps"]])
        return ToeplitzClutter(taps=taps, pulse_len=_integer(spec["pulse_len"], "pulse_len"))
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
                N=_integer(raw["N"], "N"),
                K=_integer(raw["K"], "K"),
                n=_integer(raw["n"], "n") if n_flag is None else n_flag,
                sigma2=float(raw["sigma2"]),
                clutter=_clutter_from_json(raw.get("clutter", {})),
                seed=_integer(raw.get("seed", 0), "seed"),
                name=raw.get("name", path.stem),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad scenario config: {exc}") from exc
    else:
        name = getattr(args, "scenario", None) or "challenge-synthetic"
        if name not in PRESETS:
            raise ConfigError(f"unknown scenario preset: {name!r}")
        try:
            cfg = preset(name, n=getattr(args, "n", None))
        except ValueError as exc:
            raise ConfigError(f"bad scenario: {exc}") from exc
    _check_draw_size(cfg.p, cfg.n)
    return cfg


def _check_draw_size(p: int, n: float) -> None:
    """ConfigError when a complex p x (n + 1) draw has more bytes than numpy can size.

    numpy refuses such an array with ValueError before any allocation;
    one that it can size but not allocate is its MemoryError, exit 2 too.
    """
    if p * (n + 1) * 16 > np.iinfo(np.intp).max:
        raise ConfigError(f"a {p} x {n + 1:.6g} complex draw is larger than numpy can size")


def _target_from_args(args, scn: ScenarioConfig) -> SteeringSpec:
    try:
        return SteeringSpec(
            theta=np.deg2rad(args.angle_deg), doppler=args.doppler, N=scn.N, K=scn.K
        )
    except ValueError as exc:
        raise ConfigError(f"bad target: {exc}") from exc


def _write_manifest(out_dir: Path, args, seed: int, outputs: list[Path]) -> Path:
    """manifest.json with the seed the run used: ``--seed``, or its default when omitted."""
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "config_path": getattr(args, "config", None),
        "scenario": getattr(args, "scenario", None),
        "seed": seed,
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": rmt.scipy.__version__,
        "thread_settings": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
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
            matio.load_estimate(path.with_suffix(""))  # judged by the estimate's invariants


def _cmd_estimate(args) -> int:
    scn = _scenario_from_args(args)
    seed = scn.seed if args.seed is None else args.seed
    if args.rank is not None and args.estimator != "rcml":
        raise ConfigError("--rank applies to --estimator rcml only")
    _check_rank(args.rank, scn.p)
    if scn.n < scn.p:
        raise ValueError("insufficient samples")
    sampler = SnapshotSampler(synthesize_clutter_covariance(scn))
    ratio = rmt.AspectRatio(scn.p, scn.n)
    # no name holds the draw or the SCM: each is freed once the next step returns
    decomp = rmt.eigh(rmt.sample_covariance(sampler.draw(scn.n, seed)))
    shrunk = shrink_spectrum(decomp, ratio)
    if args.estimator == "shrinkage":
        est = shrunk
    else:
        rank = shrunk.r if args.rank is None else args.rank
        est = rcml_estimate(decomp, shrunk.sigma2, rank)
    # the draw is in R's eigenbasis; the written estimate is in the original frame
    est = dataclasses.replace(est, vectors=sampler.from_eigenbasis(est.vectors))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = matio.save_estimate(out_dir / f"estimate-{args.estimator}", est, ratio.gamma)
    outputs.append(_write_manifest(out_dir, args, seed, outputs))
    _validate_outputs(outputs)
    print(json.dumps(est.summary(ratio.gamma)))
    return 0


def _parse_list(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x)
    except ValueError as exc:
        raise ConfigError(f"bad float list: {text!r}") from exc


def _check_pfa(values) -> None:
    if not values:
        raise ConfigError("--pfa needs at least one false-alarm rate")
    for pfa in values:
        if not 0.0 < pfa < 1.0:
            raise ConfigError(f"--pfa must lie in (0, 1), got {pfa!r}")


def _check_rank(rank: int | None, p: int) -> None:
    if rank is not None and not 0 <= rank < p:
        raise ConfigError(f"--rank must satisfy 0 <= rank < p = {p}, got {rank}")


# sweep flags that one axis alone reads: flag -> (that axis, its default)
_SWEEP_AXIS_FLAGS = {
    "--doppler-grid": ("doppler", 16),
    "--angle-grid": ("angle", 16),
    "--pfa": ("snr", "1e-2"),
    "--snr-lo": ("snr", -10.0),
    "--snr-hi": ("snr", 30.0),
    "--snr-step": ("snr", 4.0),
    "--rank": ("snr", None),
}


def _apply_axis_flags(args) -> None:
    """Default the flags of the chosen axis; a flag given for another axis is a config error."""
    for flag, (axis, default) in _SWEEP_AXIS_FLAGS.items():
        dest = flag[2:].replace("-", "_")
        if args.axis == axis:
            if getattr(args, dest) is None:
                setattr(args, dest, default)
        elif getattr(args, dest) is not None:
            raise ConfigError(f"{flag} applies to --axis {axis} only")


def _cmd_sweep(args) -> int:
    _apply_axis_flags(args)
    scn = _scenario_from_args(args)
    seed = scn.seed if args.seed is None else args.seed
    if args.trials < 0:
        raise ConfigError(f"--trials must be nonnegative, got {args.trials}")
    if args.axis in ("doppler", "angle"):
        rows = getattr(args, f"{args.axis}_grid")
        if rows < 1:
            raise ConfigError(f"--{args.axis}-grid must be positive, got {rows}")
    pfa_list = None
    if args.axis == "snr":
        pfa_list = _parse_list(args.pfa)
        _check_pfa(pfa_list)
        _check_rank(args.rank, scn.p)
        if not (args.snr_step > 0 and args.snr_lo <= args.snr_hi):
            raise ConfigError("the SNR grid needs --snr-step > 0 and --snr-lo <= --snr-hi")
    plan = validate.TrialPlan(
        scenario=scn,
        trials=args.trials,
        seed=seed,
        target=_target_from_args(args, scn),
    )
    values = None  # the n axis defaults to multiples of p up to the scene's n
    if args.axis == "doppler":
        values = np.linspace(-0.5, 0.5, args.doppler_grid)
    elif args.axis == "angle":
        values = np.linspace(-np.pi / 3, np.pi / 3, args.angle_grid)
    elif args.axis == "snr":
        values = np.arange(args.snr_lo, args.snr_hi + 1e-9, args.snr_step)
    csv_text = validate.sweep(plan, args.axis, values=values, pfa_list=pfa_list, rank=args.rank)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"sweep-{args.axis}.csv"
    csv_path.write_text(csv_text)
    outputs = [csv_path, _write_manifest(out_dir, args, seed, [csv_path])]
    _validate_outputs(outputs)
    print(csv_path)
    return 0


def _cmd_detect(args) -> int:
    scn = _scenario_from_args(args)
    seed = scn.seed if args.seed is None else args.seed
    _check_pfa([args.pfa])
    _check_rank(args.rank, scn.p)
    target = _target_from_args(args, scn)
    sampler = SnapshotSampler(synthesize_clutter_covariance(scn))
    # the draw is in R's eigenbasis, so the steering vector is rotated into it
    steering = sampler.to_eigenbasis(steering_vector(target))
    amp = amplitude_for_snr(args.snr_db, scn.sigma2, scn.N, scn.K)
    # the training block and the test cell are views of one draw
    w = sampler.draw(scn.n + 1, seed)
    y = inject_target(w[:, scn.n], steering, amp)
    if args.rank == 0 and scn.clutter is not None:
        print(
            "warning: rank 0 disables the clutter projection on a clutter-bearing scene",
            file=sys.stderr,
        )
    report = detect(w[:, : scn.n], y, steering, args.rank, args.pfa)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "detection.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    outputs = [report_path, _write_manifest(out_dir, args, seed, [report_path])]
    _validate_outputs(outputs)
    print(json.dumps(report.to_dict()))
    return 0


def _cmd_verify_clt(args) -> int:
    if args.trials < 2:
        raise ConfigError(f"--trials must be at least 2, got {args.trials}")
    if args.p < 1 or not 0.0 < args.gamma <= 1.0 or not args.sigma2 > 0.0:
        raise ConfigError("verify-clt needs --p >= 1, --gamma in (0, 1] and --sigma2 > 0")
    _check_draw_size(args.p, args.p / args.gamma)
    # the exact ratio p / n that verify_clt runs at, and its detection edge
    edge = 1.0 + np.sqrt(args.p / round(args.p / args.gamma))
    spikes = np.asarray(sorted(_parse_list(args.spikes), reverse=True))
    if spikes.size == 0 or not np.all(spikes > edge):
        raise ConfigError(f"--spikes needs whitened spikes above the detection edge {edge:.6g}")
    try:
        model = SpikedCovariance.diagonal(args.p, args.sigma2, spikes * args.sigma2)
    except ValueError as exc:
        raise ConfigError(f"bad --spikes: {exc}") from exc
    seed = 0 if args.seed is None else args.seed
    results = validate.verify_clt(model, args.gamma, args.trials, seed, ensemble=args.ensemble)
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
    outputs = [path, _write_manifest(out_dir, args, seed, [path])]
    _validate_outputs(outputs)
    print(json.dumps(payload))
    return 0


def _seed(text: str) -> int:
    """A --seed value: a nonnegative integer, as numpy's SeedSequence requires."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cluttercov",
        description="Spiked clutter-plus-noise covariance estimation and detection toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, scenario=True):
        default_seed = "scenario seed" if scenario else "0"
        sp.add_argument("--seed", type=_seed, default=None,
                        help=f"root seed, a nonnegative integer (default: {default_seed})")
        sp.add_argument("--out-dir", default="cluttercov-out", help="output directory")
        if scenario:
            sp.add_argument("--scenario", default=None, help="preset scene name")
            sp.add_argument("--config", default=None, help="scenario JSON path")
            sp.add_argument("--n", type=int, default=None, help="training snapshot count")

    sp = sub.add_parser("estimate", help="estimate a covariance from a synthetic scene",
                        description="Writes the estimate's p x r vectors V (estimate-*.bin/.json) "
                        "and sigma2_hat, the spikes, r and gamma (estimate-*.summary.json); the "
                        "estimate is sigma2_hat I + V diag(spikes - sigma2_hat) V^H.")
    add_common(sp)
    sp.add_argument("--estimator", choices=["shrinkage", "rcml"], default="shrinkage")
    sp.add_argument("--rank", type=int, default=None, help="clutter rank for the rcml estimator")
    sp.set_defaults(func=_cmd_estimate)

    sp = sub.add_parser("sweep", help="Monte Carlo sweep along one axis")
    add_common(sp)
    sp.add_argument("--axis", choices=["n", "doppler", "angle", "snr"], required=True)
    sp.add_argument("--trials", type=int, default=validate.DEFAULT_TRIALS)
    # each flag below is read by one axis, and given for another is a
    # configuration error; its default (_SWEEP_AXIS_FLAGS) applies there only
    sp.add_argument("--doppler-grid", type=int, help="rows of the doppler axis (default 16)")
    sp.add_argument("--angle-grid", type=int, help="rows of the angle axis (default 16)")
    sp.add_argument("--pfa", help="comma-separated false-alarm rates (snr axis; default 1e-2)")
    sp.add_argument("--snr-lo", type=float, help="lowest SNR in dB (snr axis; default -10)")
    sp.add_argument("--snr-hi", type=float, help="highest SNR in dB (snr axis; default 30)")
    sp.add_argument("--snr-step", type=float, help="SNR step in dB (snr axis; default 4)")
    sp.add_argument("--rank", type=int, help="projection rank (snr axis; default: estimated)")
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
        "centring is asymptotic: at moderate p the finite-n term between two spikes can make "
        "it reject a correct pipeline (spikes 5,3 at p = 120, n = 600: 28.75% of seeds), so "
        "read small p-values at small p with care.",
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
    except (ConfigError, SceneOverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid or draw that numpy refuses to allocate
        print(f"configuration error: {args.command} needs too much memory: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError, KeyError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
