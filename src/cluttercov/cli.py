"""Command-line entry point: estimate, sweep, detect, verify-clt.

A command parses its flags, builds the scene and its sampler, calls
``validate``, whose trial code ``estimate`` and ``detect`` share with the
sweeps, and writes through one output path, which formats what ``validate``
returns: a sweep's table as CSV, the other results as JSON, and an estimate
through ``matio``.

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
import csv
import dataclasses
import io
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, matio, rmt, validate
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
    preset,
    steering_vector,
    synthesize_clutter_covariance,
)
from .shrinkage import SpikedCovariance


def _integer(value, name: str) -> int:
    """A scene JSON number that must be an integer: 4 and 4.0 are, 2.7, true and "4" are not."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """A scene JSON number that must be real: 4 and 2.7 are, true, "2.7" and [2.7] are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise ConfigError(f"{name} must be within the float range, got {value!r}") from None


def _list(value, name: str, length: int | None = None) -> list:
    """A scene JSON field that must be a list, of ``length`` items if given: [1, 2] is, 1 is not."""
    if not isinstance(value, list) or length not in (None, len(value)):
        shape = "a list" if length is None else f"a list of {length} numbers"
        raise ConfigError(f"{name} must be {shape}, got {value!r}")
    return value


def _clutter_from_json(spec: dict):
    if not isinstance(spec, dict):
        raise ConfigError(f"clutter must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "spiked":
        spikes = _list(spec["spikes"], "spikes")
        return SpikedClutter([_real(v, f"spikes[{i}]") for i, v in enumerate(spikes)])
    if kind == "scatterers":
        scatterers = []
        for i, s in enumerate(_list(spec["scatterers"], "scatterers")):
            if not isinstance(s, dict):
                raise ConfigError(f"scatterers[{i}] must be a JSON object, got {s!r}")
            scatterers.append(Scatterer(**{key: _real(s[key], f"scatterers[{i}].{key}")
                                           for key in ("amplitude", "theta", "doppler")}))
        return ScattererClutter(tuple(scatterers))
    if kind == "toeplitz":
        pairs = [_list(tap, f"taps[{i}]", 2) for i, tap in enumerate(_list(spec["taps"], "taps"))]
        taps = np.asarray([complex(_real(re, f"taps[{i}]"), _real(im, f"taps[{i}]"))
                           for i, (re, im) in enumerate(pairs)])
        return ToeplitzClutter(taps=taps, pulse_len=_integer(spec["pulse_len"], "pulse_len"))
    if kind in (None, "none"):
        return None
    raise ConfigError(f"unknown clutter kind: {kind!r}")


def _scene_and_seed(args) -> tuple[ScenarioConfig, int]:
    """A scene command's scene and root seed: ``--seed``, else the scene's."""
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            raw = json.loads(path.read_text())
        except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8 text
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        n_flag = getattr(args, "n", None)
        try:
            cfg = ScenarioConfig(
                N=_integer(raw["N"], "N"),
                K=_integer(raw["K"], "K"),
                n=_integer(raw["n"], "n") if n_flag is None else n_flag,
                sigma2=_real(raw["sigma2"], "sigma2"),
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
    _check_size(cfg.p * (cfg.n + 1) * 16, f"a {cfg.p} x {cfg.n + 1:.6g} complex draw")
    return cfg, cfg.seed if args.seed is None else args.seed


def _check_size(nbytes: float, what: str) -> None:
    """ConfigError naming ``what`` when its ``nbytes`` are more than numpy can size.

    numpy refuses such an array with ValueError before any allocation;
    one that it can size but not allocate is its MemoryError, exit 2 too.
    """
    if nbytes > np.iinfo(np.intp).max:
        raise ConfigError(f"{what} is larger than numpy can size")


def _target_from_args(args, scn: ScenarioConfig) -> SteeringSpec:
    try:
        return SteeringSpec(
            theta=np.deg2rad(args.angle_deg), doppler=args.doppler, N=scn.N, K=scn.K
        )
    except ValueError as exc:
        raise ConfigError(f"bad target: {exc}") from exc


def _write_text(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


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
        "scipy_version": rmt.scipy_version(),
        "thread_settings": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }
    return _write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")


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


def _check_out_dir(out_dir: Path) -> None:
    """ConfigError unless ``out_dir``, or else its nearest existing ancestor, is a directory."""
    existing = next((d for d in (out_dir, *out_dir.parents) if os.path.exists(d)), out_dir)
    if not os.path.isdir(existing):
        raise ConfigError(f"--out-dir {out_dir} cannot be made: {existing} is not a directory")


def _write_outputs(args, seed: int, printed, write) -> int:
    """Make ``--out-dir``, write the command's files by ``write(out_dir)``, which
    returns their paths, then the manifest; check them all and print ``printed``."""
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # made unusable since ``_check_out_dir``, or not writable
        raise ConfigError(f"cannot make --out-dir {out_dir}: {exc}") from exc
    outputs = write(out_dir)
    outputs.append(_write_manifest(out_dir, args, seed, outputs))
    _validate_outputs(outputs)
    print(printed)
    return 0


def _write_json(args, seed: int, name: str, payload) -> int:
    """The output tail of a command whose one file is ``payload`` as strict JSON, which it
    prints; a non-finite value is a ValueError naming the file, before anything is written."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return _write_outputs(args, seed, json.dumps(payload, allow_nan=False), lambda out_dir:
                          [_write_text(out_dir / name, text)])


def _write_csv(args, seed: int, name: str, header: list[str], rows: list[list]) -> int:
    """The output tail of a command whose one file is the table ``header``, ``rows`` as
    CSV, floats to 10 significant digits; it prints the file's path."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.10g}" if isinstance(v, float) else str(v) for v in row])
    return _write_outputs(args, seed, Path(args.out_dir) / name, lambda out_dir:
                          [_write_text(out_dir / name, buf.getvalue())])


def _cmd_estimate(args) -> int:
    scn, seed = _scene_and_seed(args)
    if args.rank is not None and args.estimator != "rcml":
        raise ConfigError("--rank applies to --estimator rcml only")
    _check_rank(args.rank, scn.p)
    ratio = rmt.AspectRatio(scn.p, scn.n)  # n < p is a numeric failure, before any work
    sampler = SnapshotSampler(synthesize_clutter_covariance(scn))
    # trial 0 of the sweeps' estimating trial, which draws stream (seed, 0)
    (ests,) = validate._trial_estimates(sampler.draw, scn.n, seed, 1, lambda decomp:
                                        validate._estimate_both(decomp, ratio, args.rank))
    est = ests[args.estimator]
    # the draw is in R's eigenbasis; the written estimate is in the original frame
    est = dataclasses.replace(est, vectors=sampler.from_eigenbasis(est.vectors))
    base = f"estimate-{args.estimator}"
    return _write_outputs(args, seed, json.dumps(est.summary(ratio.gamma)),
                          lambda out_dir: matio.save_estimate(out_dir / base, est, ratio.gamma))


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


def _amplitude(snr_db: float, flag: str, scn: ScenarioConfig) -> float:
    """The target amplitude at ``snr_db`` in ``scn``; ConfigError naming ``flag`` if not finite."""
    try:
        return amplitude_for_snr(snr_db, scn.sigma2, scn.N, scn.K)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


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
    scn, seed = _scene_and_seed(args)
    if args.trials < 0:
        raise ConfigError(f"--trials must be nonnegative, got {args.trials}")
    if args.axis in ("doppler", "angle"):
        rows = getattr(args, f"{args.axis}_grid")
        if rows < 1:
            raise ConfigError(f"--{args.axis}-grid must be positive, got {rows}")
        _check_size(rows * 8, f"a --{args.axis}-grid of {rows} rows")
    pfa_list = values = None  # the n axis defaults to multiples of p up to the scene's n
    if args.axis == "snr":
        pfa_list = _parse_list(args.pfa)
        _check_pfa(pfa_list)
        _check_rank(args.rank, scn.p)
        for flag in ("--snr-lo", "--snr-hi", "--snr-step"):
            if not np.isfinite(getattr(args, flag[2:].replace("-", "_"))):
                raise ConfigError(f"{flag} must be finite")
        if not (args.snr_step > 0 and args.snr_lo <= args.snr_hi):
            raise ConfigError("the SNR grid needs --snr-step > 0 and --snr-lo <= --snr-hi")
        try:  # the flags are finite and ordered, so a ValueError can only mean size
            values = np.arange(args.snr_lo, args.snr_hi + 1e-9, args.snr_step)
        except ValueError:
            raise ConfigError(f"--snr-step {args.snr_step!r} makes an SNR grid larger than "
                              "numpy can size") from None
        # the amplitude grows with the SNR, so the largest SNR's bounds every row's
        _amplitude(float(np.max(values, initial=args.snr_hi)), "--snr-hi", scn)
    plan = validate.TrialPlan(
        scenario=scn,
        trials=args.trials,
        seed=seed,
        target=_target_from_args(args, scn),
    )
    if args.axis == "doppler":
        values = np.linspace(-0.5, 0.5, args.doppler_grid)
    elif args.axis == "angle":
        values = np.linspace(-np.pi / 3, np.pi / 3, args.angle_grid)
    header, rows = validate.sweep(plan, args.axis, values=values, pfa_list=pfa_list,
                                  rank=args.rank)
    return _write_csv(args, seed, f"sweep-{args.axis}.csv", header, rows)


def _cmd_detect(args) -> int:
    scn, seed = _scene_and_seed(args)
    _check_pfa([args.pfa])
    _check_rank(args.rank, scn.p)
    amp = _amplitude(args.snr_db, "--snr-db", scn)
    target = _target_from_args(args, scn)
    ratio = rmt.AspectRatio(scn.p, scn.n)  # n < p is a numeric failure, before any work
    sampler = SnapshotSampler(synthesize_clutter_covariance(scn))
    # the draw is in R's eigenbasis, so the steering vector is rotated into it
    steering = sampler.to_eigenbasis(steering_vector(target))
    sampler.release_basis()  # the trial reads root and the rotated steering vector only
    if args.rank == 0 and scn.clutter is not None:
        print("warning: rank 0 disables the clutter projection on a clutter-bearing scene",
              file=sys.stderr)
    # trial 0 of the snr sweep at this SNR and one false-alarm rate
    (report,) = validate._detection_trial(sampler.draw, ratio, seed, 0, steering, amp, args.rank,
                                          (args.pfa,))
    return _write_json(args, seed, "detection.json", report.to_dict())


def _cmd_verify_clt(args) -> int:
    if args.trials < 2:
        raise ConfigError(f"--trials must be at least 2, got {args.trials}")
    if args.p < 1 or not 0.0 < args.gamma <= 1.0:
        raise ConfigError("verify-clt needs --p >= 1 and --gamma in (0, 1]")
    if not 0.0 < args.sigma2 < np.inf:
        raise ConfigError(f"--sigma2 must be positive and finite, got {args.sigma2!r}")
    _check_size(args.p * (args.p / args.gamma + 1) * 16,
                f"a {args.p} x {args.p / args.gamma + 1:.6g} complex draw")
    # the exact ratio p / n that verify_clt runs at, and its detection edge
    edge = 1.0 + np.sqrt(args.p / round(args.p / args.gamma))
    spikes = np.asarray(sorted(_parse_list(args.spikes), reverse=True))
    if spikes.size == 0 or not np.all(spikes > edge):
        raise ConfigError(f"--spikes needs whitened spikes above the detection edge {edge:.6g}")
    _check_size(args.trials * spikes.size * 8, f"--trials {args.trials} of {spikes.size} spikes")
    with np.errstate(over="ignore"):
        powers = spikes * args.sigma2
    if np.all(np.isfinite(spikes)) and not np.all(np.isfinite(powers)):
        raise ConfigError(f"--spikes times --sigma2 overflows: {float(spikes[0])!r} times "
                          f"{args.sigma2!r}")
    try:
        model = SpikedCovariance.diagonal(args.p, args.sigma2, powers)
    except ValueError as exc:
        raise ConfigError(f"bad --spikes: {exc}") from exc
    seed = 0 if args.seed is None else args.seed
    results = validate.verify_clt(model, args.gamma, args.trials, seed)
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
    return _write_json(args, seed, "clt-verification.json", payload)


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
        description="KS test of the shrunk spike eigenvalues of circular complex Gaussian "
        "snapshots against their CLT law. The "
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
        _check_out_dir(Path(args.out_dir))  # before any work, and creating nothing
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
