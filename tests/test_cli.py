import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import cluttercov

from cluttercov import (
    AspectRatio,
    ModelOrderWarning,
    ScenarioConfig,
    Scatterer,
    ScattererClutter,
    SnapshotSampler,
    SteeringSpec,
    amplitude_for_snr,
    detect,
    eigh,
    inject_target,
    rcml_estimate,
    sample_covariance,
    shrink_spectrum,
    steering_vector,
    synthesize_clutter_covariance,
)
from cluttercov import matio, validate
from cluttercov.cli import main
from cluttercov.matio import load_estimate, load_matrix
from cluttercov.rng import complex_normal, substream
from oracles import decomposed, dense_estimate

SCENE = {
    "N": 4,
    "K": 8,
    "n": 128,
    "sigma2": 1.0,
    "seed": 3,
    "clutter": {
        "kind": "scatterers",
        "scatterers": [
            {"amplitude": 8.0, "theta": 0.3, "doppler": 0.1},
            {"amplitude": 5.0, "theta": -0.4, "doppler": -0.2},
        ],
    },
}


@pytest.fixture
def scene(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(SCENE))
    return path


class TestEstimate:
    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    def test_writes_reloadable_estimate(self, scene, tmp_path, capsys, estimator):
        out = tmp_path / "out"
        argv = ["estimate", "--config", str(scene), "--estimator", estimator, "--out-dir", str(out)]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spike_count"] == 2
        base = out / f"estimate-{estimator}"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "estimate"
        assert manifest["outputs"] == [
            str(base.with_suffix(".bin")),
            str(base.with_suffix(".json")),
            str(base.with_suffix(".summary.json")),
        ]
        assert load_matrix(base)[0].shape == (32, 2)  # the p x r vectors
        m = dense_estimate(load_estimate(base))
        assert np.abs(m - m.conj().T).max() < 1e-12 * np.abs(m).max()
        lam = np.linalg.eigvalsh(m)[::-1]
        np.testing.assert_allclose(lam[:2], summary["spiked_eigenvalues"], rtol=1e-10)
        np.testing.assert_allclose(lam[2:], summary["sigma2_hat"], rtol=1e-10)

    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    def test_estimate_is_written_in_the_original_frame(self, scene, tmp_path, estimator):
        # the sampler draws in R's eigenbasis; the written estimate must equal
        # the one estimated from the same snapshots coloured in R's own frame
        out = tmp_path / "out"
        argv = ["estimate", "--config", str(scene), "--estimator", estimator, "--out-dir", str(out)]
        assert main(argv) == 0
        m = dense_estimate(load_estimate(out / f"estimate-{estimator}"))
        cfg = _scene_config()
        sampler = SnapshotSampler(synthesize_clutter_covariance(cfg))
        factor = sampler.from_eigenbasis(np.diag(sampler.root))  # the colouring V diag(sqrt(lam))
        dec = eigh(sample_covariance(factor @ complex_normal(substream(cfg.seed, 0), cfg.p, cfg.n)))
        ratio = AspectRatio(cfg.p, cfg.n)
        est = shrink_spectrum(dec, ratio)
        if estimator == "rcml":
            est = rcml_estimate(dec, est.sigma2, est.r)
        ref = dense_estimate(est)
        assert np.abs(m - ref).max() <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    def test_written_vectors_are_the_dense_basis_product(self, scene, tmp_path, monkeypatch,
                                                         estimator):
        # the estimate is rotated back by the sampler's frame, not a p x p basis;
        # the result is LAPACK's dense basis V times the eigenbasis vectors
        written = []
        save = matio.save_estimate
        monkeypatch.setattr(matio, "save_estimate",
                            lambda base, est, gamma: written.append(est) or save(base, est, gamma))
        argv = ["estimate", "--config", str(scene), "--estimator", estimator,
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        cfg = _scene_config()
        truth = synthesize_clutter_covariance(cfg)
        dec = eigh(sample_covariance(SnapshotSampler(truth).draw(cfg.n, cfg.seed)))
        est = shrink_spectrum(dec, AspectRatio(cfg.p, cfg.n))
        if estimator == "rcml":
            est = rcml_estimate(dec, est.sigma2, est.r)
        basis = np.linalg.eigh((truth + truth.conj().T) / 2.0)[1][:, ::-1]
        (ours,) = written
        assert np.abs(ours.vectors - basis @ est.vectors).max() <= 1e-13

    @pytest.mark.parametrize("clutter", ["scatterers", "none"])
    @pytest.mark.parametrize("estimator", ["shrinkage", "rcml"])
    def test_written_files_rebuild_the_estimate(self, tmp_path, monkeypatch, capsys,
                                                estimator, clutter):
        written = []  # the estimate as the command held it
        save = matio.save_estimate

        def recorded(base, est, gamma):
            written.append(est)
            return save(base, est, gamma)

        monkeypatch.setattr(matio, "save_estimate", recorded)
        scene = SCENE if clutter == "scatterers" else {**SCENE, "clutter": {"kind": "none"}}
        path = _write(tmp_path, "scene.json", json.dumps(scene))
        out = tmp_path / "out"
        argv = ["estimate", "--config", str(path), "--estimator", estimator, "--out-dir", str(out)]
        assert main(argv) == 0
        (est,) = written
        base = out / f"estimate-{estimator}"
        back = load_estimate(base)
        assert back.r == est.r == (2 if clutter == "scatterers" else 0)
        assert base.with_suffix(".bin").stat().st_size == 32 * est.r * 16
        assert back.sigma2 == est.sigma2
        np.testing.assert_array_equal(back.spikes, est.spikes)
        np.testing.assert_array_equal(back.vectors, est.vectors)
        ref = dense_estimate(est)
        assert np.abs(dense_estimate(back) - ref).max() <= 1e-12 * np.abs(ref).max()
        summary = json.loads(capsys.readouterr().out)
        assert summary == json.loads(base.with_suffix(".summary.json").read_text())
        assert summary["gamma"] == 32 / 128

    @pytest.mark.parametrize("estimator,rank", [("shrinkage", None), ("rcml", None), ("rcml", 1),
                                                ("rcml", 5)])
    def test_written_estimate_is_trial_0_of_the_sweeps_trial(self, scene, tmp_path, estimator,
                                                              rank):
        out = tmp_path / "out"
        flags = [] if rank is None else ["--rank", str(rank)]
        argv = ["estimate", "--config", str(scene), "--estimator", estimator, *flags,
                "--out-dir", str(out)]
        assert main(argv) == 0
        back = load_estimate(out / f"estimate-{estimator}")
        cfg = _scene_config()
        sampler = SnapshotSampler(synthesize_clutter_covariance(cfg))
        ratio = AspectRatio(cfg.p, cfg.n)
        (ests,) = validate._trial_estimates(sampler.draw, cfg.n, cfg.seed, 1, lambda decomp:
                                            validate._estimate_both(decomp, ratio, rank))
        want = ests[estimator]
        assert back.r == want.r == (2 if rank is None else rank)
        assert back.sigma2 == want.sigma2
        assert back.spikes.tobytes() == want.spikes.tobytes()
        assert back.vectors.tobytes() == sampler.from_eigenbasis(want.vectors).tobytes()

    def test_a_bad_write_fails_validation(self, scene, tmp_path, monkeypatch, capsys):
        # a spike written below the floor breaks the estimate's own invariants
        def bad_summary(est, gamma):
            return {"sigma2_hat": 1.0, "spike_count": est.r,
                    "spiked_eigenvalues": [0.5] * est.r, "gamma": gamma}

        monkeypatch.setattr(cluttercov.SpikedCovariance, "summary", bad_summary)
        argv = ["estimate", "--config", str(scene), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 3
        assert "noise floor" in capsys.readouterr().err

    def test_unknown_preset_is_config_error(self, tmp_path):
        assert main(["estimate", "--scenario", "no-such-scene", "--out-dir", str(tmp_path)]) == 2

    def test_too_few_samples_is_numeric_failure(self, scene, tmp_path, capsys):
        # n = 8 < p = 32: the n-sweep's grid of multiples of p would be empty,
        # and no other command can train on fewer snapshots than p
        for argv in (["estimate"], ["sweep", "--axis", "n", "--trials", "1"], ["detect"],
                     ["sweep", "--axis", "snr", "--trials", "1"]):
            out = tmp_path / "-".join(argv[:3])
            assert main([*argv, "--config", str(scene), "--n", "8", "--out-dir", str(out)]) == 3
            assert "insufficient samples" in capsys.readouterr().err
            assert not out.exists()

    def test_rcml_spike_is_the_top_sample_eigenvalue(self, tmp_path, capsys):
        # a scatterer 3000 times the noise amplitude: its sample eigenvalue is
        # about 2.8e8 times the floor, and clipping keeps it as it is
        strong = {"amplitude": 3000.0, "theta": 0.3, "doppler": 0.1}
        scene = {**SCENE, "clutter": {"kind": "scatterers", "scatterers": [strong]}}
        path = _write(tmp_path, "strong.json", json.dumps(scene))
        argv = ["estimate", "--config", str(path), "--estimator", "rcml", "--out-dir",
                str(tmp_path / "out")]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        cfg = ScenarioConfig(N=scene["N"], K=scene["K"], n=scene["n"], sigma2=scene["sigma2"],
                             clutter=ScattererClutter((Scatterer(**strong),)), seed=scene["seed"])
        y = SnapshotSampler(synthesize_clutter_covariance(cfg)).draw(cfg.n, cfg.seed)
        top = np.linalg.eigvalsh(y @ y.conj().T / cfg.n)[-1]
        assert summary["spike_count"] == 1
        assert summary["spiked_eigenvalues"][0] == pytest.approx(top, rel=1e-12)
        assert top > 1e8 * summary["sigma2_hat"]


def _scene_config():
    """The ``SCENE`` JSON as a ``ScenarioConfig``."""
    clutter = ScattererClutter(tuple(Scatterer(**sc) for sc in SCENE["clutter"]["scatterers"]))
    return ScenarioConfig(N=SCENE["N"], K=SCENE["K"], n=SCENE["n"], sigma2=SCENE["sigma2"],
                          clutter=clutter, seed=SCENE["seed"])


def _run(argv, out):
    """Run ``main`` into ``out``; return the exit code and the parsed manifest."""
    code = main([*argv, "--out-dir", str(out)])
    manifest = json.loads((out / "manifest.json").read_text()) if code == 0 else None
    return code, manifest


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# finite scene numbers whose covariance overflows the float range at p = 16
OVERFLOWING_TAPS = {"clutter": {"kind": "toeplitz", "taps": [[1e200, 0.0]], "pulse_len": 1}}
OVERFLOWING_SCATTERERS = {"clutter": {"kind": "scatterers", "scatterers": [
    {"amplitude": 1.3e154, "theta": 0.1, "doppler": 0.1},
    {"amplitude": 1.3e154, "theta": -0.2, "doppler": 0.3},
]}}


# (argv, data file) for each command whose output is deterministic at a fixed seed
DETERMINISTIC = {
    "sweep-n": (["sweep", "--axis", "n", "--trials", "2", "--seed", "5"], "sweep-n.csv"),
    "sweep-snr": (
        ["sweep", "--axis", "snr", "--trials", "3", "--seed", "5", "--pfa", "1e-1,1e-2",
         "--snr-lo", "0", "--snr-hi", "10", "--snr-step", "5"],
        "sweep-snr.csv",
    ),
    "sweep-doppler": (
        ["sweep", "--axis", "doppler", "--trials", "2", "--seed", "5", "--doppler-grid", "3"],
        "sweep-doppler.csv",
    ),
    "sweep-angle": (
        ["sweep", "--axis", "angle", "--trials", "2", "--seed", "5", "--angle-grid", "3"],
        "sweep-angle.csv",
    ),
    "detect": (["detect", "--seed", "5", "--snr-db", "12", "--pfa", "0.01"], "detection.json"),
    "verify-clt": (
        ["verify-clt", "--p", "20", "--gamma", "0.25", "--trials", "8", "--spikes", "6,4",
         "--seed", "5"],
        "clt-verification.json",
    ),
}


class TestEndToEnd:
    @pytest.mark.parametrize("name", sorted(DETERMINISTIC))
    def test_exit_zero_manifest_and_byte_identical_rerun(self, scene, tmp_path, name):
        argv, output = DETERMINISTIC[name]
        if argv[0] != "verify-clt":
            argv = [*argv, "--config", str(scene)]
        runs = []
        for rerun in ("a", "b"):
            out = tmp_path / rerun
            code, manifest = _run(argv, out)
            assert code == 0
            assert manifest["command"] == argv[0]
            assert manifest["seed"] == 5
            assert manifest["argv"] == [*argv, "--out-dir", str(out)]
            assert manifest["outputs"] == [str(out / output)]
            runs.append((out / output).read_bytes())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", [*sorted(DETERMINISTIC), "estimate"])
    def test_manifest_records_the_libraries_and_thread_settings(self, scene, tmp_path,
                                                                 monkeypatch, name):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        argv = ["estimate"] if name == "estimate" else DETERMINISTIC[name][0]
        if argv[0] != "verify-clt":
            argv = [*argv, "--config", str(scene)]
        code, manifest = _run(argv, tmp_path / "out")
        assert code == 0
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == scipy.__version__
        threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
        assert manifest["thread_settings"] == threads and threads["OMP_NUM_THREADS"] == "1"

    @pytest.mark.parametrize("name", ["sweep-n", "detect", "verify-clt"])
    def test_manifest_records_the_default_seed(self, scene, tmp_path, name):
        # with --seed omitted a run uses the scene's seed (0 for verify-clt):
        # the manifest records that seed, and the output is the explicit flag's
        argv, output = DETERMINISTIC[name]
        i = argv.index("--seed")
        argv = argv[:i] + argv[i + 2:]
        default = 0 if argv[0] == "verify-clt" else SCENE["seed"]
        if argv[0] != "verify-clt":
            argv = [*argv, "--config", str(scene)]
        code, manifest = _run(argv, tmp_path / "implicit")
        assert code == 0 and manifest["seed"] == default
        assert _run([*argv, "--seed", str(default)], tmp_path / "explicit")[0] == 0
        implicit = (tmp_path / "implicit" / output).read_bytes()
        assert implicit == (tmp_path / "explicit" / output).read_bytes()

    def test_sweep_n_rows(self, scene, tmp_path):
        argv, output = DETERMINISTIC["sweep-n"]
        assert _run([*argv, "--config", str(scene)], tmp_path)[0] == 0
        lines = (tmp_path / output).read_text().splitlines()
        assert lines[0].startswith("scenario,axis,value,n,gamma,trials,rho_shrinkage")
        assert [row.split(",")[3] for row in lines[1:]] == ["32", "64", "96", "128"]

    @pytest.mark.parametrize("axis,grid", [("doppler", [-0.5, 0.0, 0.5]),
                                           ("angle", [-np.pi / 3, 0.0, np.pi / 3])])
    def test_sweep_marginal_rows(self, scene, tmp_path, axis, grid):
        argv, output = DETERMINISTIC[f"sweep-{axis}"]
        assert _run([*argv, "--config", str(scene)], tmp_path)[0] == 0
        lines = (tmp_path / output).read_text().splitlines()
        assert lines[0].startswith("scenario,axis,value,n,gamma,trials,rho_shrinkage")
        rows = [row.split(",") for row in lines[1:]]
        assert [row[1] for row in rows] == [axis] * 3
        np.testing.assert_allclose([float(row[2]) for row in rows], grid, atol=1e-9)
        assert all(0.0 < float(row[6]) <= 1.0 for row in rows)  # rho_shrinkage

    def test_sweep_snr_rows(self, scene, tmp_path):
        argv, output = DETERMINISTIC["sweep-snr"]
        assert _run([*argv, "--config", str(scene)], tmp_path)[0] == 0
        lines = (tmp_path / output).read_text().splitlines()
        assert lines[0] == "snr_db,p_fa,empirical_pd,theoretical_pd,trials"
        assert len(lines) == 1 + 3 * 2  # three SNR values, two false-alarm rates

    @pytest.mark.parametrize("name", ["sweep-n", "sweep-snr", "sweep-doppler", "sweep-angle"])
    def test_sweep_csv_is_the_table_sweep_returns(self, scene, tmp_path, monkeypatch, name):
        # the CLI writes validate.sweep's header and rows as CSV, floats to 10 significant digits
        tables = []
        sweep = validate.sweep
        monkeypatch.setattr(validate, "sweep", lambda *args, **kwargs:
                            tables.append(sweep(*args, **kwargs)) or tables[-1])
        argv, output = DETERMINISTIC[name]
        assert _run([*argv, "--config", str(scene)], tmp_path)[0] == 0
        ((header, rows),) = tables
        assert rows and all(isinstance(v, (str, int, float)) for row in rows for v in row)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([f"{v:.10g}" if isinstance(v, float) else v for v in row] for row in rows)
        assert (tmp_path / output).read_text() == want.getvalue()

    def test_detect_report_keys(self, scene, tmp_path):
        argv, output = DETERMINISTIC["detect"]
        assert _run([*argv, "--config", str(scene)], tmp_path)[0] == 0
        report = json.loads((tmp_path / output).read_text())
        assert list(report) == [
            "statistic", "threshold", "decision", "theoretical_pfa", "chi2_statistic",
            "raw_statistic",
        ]
        assert report["decision"] == (report["statistic"] > report["threshold"])
        assert report["chi2_statistic"] == 2 * report["statistic"]
        assert report["theoretical_pfa"] == 0.01  # --pfa as given, not exp(log(p_fa))

    def test_detect_decides_as_a_one_trial_snr_sweep_counts(self, scene, tmp_path):
        # detect is trial 0 of the snr sweep at its SNR and false-alarm rate
        decisions = set()
        for seed in (0, 1, 4):
            for snr in ("-3", "3", "9"):
                for rank in ([], ["--rank", "1"], ["--rank", "3"]):
                    common = ["--config", str(scene), "--seed", str(seed), "--pfa", "0.05", *rank]
                    out = tmp_path / f"{seed}{snr}{len(rank) and rank[1]}"
                    assert main(["detect", "--snr-db", snr, *common,
                                 "--out-dir", str(out / "detect")]) == 0
                    assert main(["sweep", "--axis", "snr", "--trials", "1", "--snr-lo", snr,
                                 "--snr-hi", snr, *common, "--out-dir", str(out / "sweep")]) == 0
                    report = json.loads((out / "detect" / "detection.json").read_text())
                    decision = report["decision"]
                    _, row = (out / "sweep" / "sweep-snr.csv").read_text().splitlines()
                    assert row.split(",")[:3] == [snr, "0.05", str(int(decision))]
                    decisions.add(decision)
        assert decisions == {True, False}

    def test_detect_drops_the_samplers_basis_before_its_trial(self, scene, tmp_path, monkeypatch):
        # R's p x p reduction is not held through the trial, as in the sweeps
        held = []
        trial = validate._detection_trial

        def spy(draw, *args):
            held.append(draw.__self__.decomposition)
            return trial(draw, *args)

        monkeypatch.setattr(validate, "_detection_trial", spy)
        assert _run(["detect", "--config", str(scene)], tmp_path)[0] == 0
        assert held == [None]

    def test_detect_statistic_is_the_original_frame_statistic(self, scene, tmp_path):
        argv = ["detect", "--config", str(scene), "--snr-db", "5", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        report = json.loads((tmp_path / "detection.json").read_text())
        cfg = _scene_config()
        sampler = SnapshotSampler(synthesize_clutter_covariance(cfg))
        s = steering_vector(SteeringSpec(np.deg2rad(30.0), 0.2, cfg.N, cfg.K))  # the CLI default
        white = complex_normal(substream(cfg.seed, 0), cfg.p, cfg.n + 1)
        snaps = sampler.from_eigenbasis(np.diag(sampler.root)) @ white
        y = inject_target(snaps[:, -1], s, amplitude_for_snr(5.0, cfg.sigma2, cfg.N, cfg.K))
        ref = detect(*decomposed(snaps[:, :-1]), y, s, None, 1e-3)
        assert report["statistic"] == pytest.approx(ref.statistic, rel=1e-9)
        assert report["raw_statistic"] == pytest.approx(ref.raw_statistic, rel=1e-9)


class TestExitCodes:
    def test_bad_json_is_config_error(self, tmp_path):
        path = _write(tmp_path, "bad.json", '{"N": 2, "K": 8,')
        assert main(["estimate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("kind", ["directory", "not-utf8", "missing"])
    def test_unreadable_config_is_config_error_naming_it(self, tmp_path, capsys, kind):
        path = tmp_path / "scene.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(json.dumps(SCENE).encode("utf-16"))
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(path), "--out-dir", str(out)]) == 2
        assert f"configuration error: cannot read config {path}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["file", "under-a-file"])
    @pytest.mark.parametrize("command", [["estimate"], ["detect"],
                                         ["sweep", "--axis", "snr", "--trials", "1"]],
                             ids=["estimate", "detect", "sweep-snr"])
    def test_out_dir_that_cannot_be_a_directory_is_config_error_before_any_draw(
            self, scene, tmp_path, monkeypatch, capsys, where, command):
        blocker = _write(tmp_path, "taken", "a file\n")
        out = blocker if where == "file" else blocker / "out"
        draws = []
        monkeypatch.setattr(SnapshotSampler, "draw", lambda *args: draws.append(args))
        assert main([*command, "--config", str(scene), "--out-dir", str(out)]) == 2
        assert f"--out-dir {out} cannot be made: {blocker} is not a directory" in (
            capsys.readouterr().err)
        assert draws == [] and blocker.read_text() == "a file\n"

    def test_out_dir_taken_during_the_run_is_config_error(self, scene, tmp_path, capsys,
                                                          monkeypatch):
        # the path is free when checked, and a file by the time it is made
        out = tmp_path / "out"
        draw = SnapshotSampler.draw

        def taking(sampler, *args):
            out.write_text("a file\n")
            return draw(sampler, *args)

        monkeypatch.setattr(SnapshotSampler, "draw", taking)
        assert main(["detect", "--config", str(scene), "--out-dir", str(out)]) == 2
        assert f"cannot make --out-dir {out}" in capsys.readouterr().err

    def test_spike_at_noise_floor_is_config_error(self, tmp_path):
        scene = {"N": 2, "K": 8, "n": 64, "sigma2": 1.0,
                 "clutter": {"kind": "spiked", "spikes": [3.0, 1.0]}}
        path = _write(tmp_path, "floor.json", json.dumps(scene))
        assert main(["estimate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2

    # an SNR flag whose value, or whose target amplitude, is not finite: each a
    # configuration error naming the flag, before the scene's sampler is built
    @pytest.mark.parametrize(
        "argv,flag",
        [(["detect", "--snr-db", "nan"], "--snr-db"),
         (["detect", "--snr-db", "inf"], "--snr-db"),
         (["detect", "--snr-db", "1e6"], "--snr-db"),
         (["detect", "--snr-db", "1e300"], "--snr-db"),
         (["sweep", "--axis", "snr", "--trials", "1", "--snr-hi", "inf"], "--snr-hi"),
         (["sweep", "--axis", "snr", "--trials", "1", "--snr-lo=-inf"], "--snr-lo"),
         (["sweep", "--axis", "snr", "--trials", "1", "--snr-step", "inf"], "--snr-step"),
         (["sweep", "--axis", "snr", "--trials", "1", "--snr-lo", "1e6", "--snr-hi", "1e6"],
          "--snr-hi"),
         (["sweep", "--axis", "snr", "--trials", "1", "--snr-lo", "3100", "--snr-hi", "3100"],
          "--snr-hi"),
         (["sweep", "--axis", "snr", "--trials", "1", "--snr-lo", "0", "--snr-hi", "4000",
           "--snr-step", "1000"], "--snr-hi")],
        ids=["detect-nan", "detect-inf", "detect-1e6", "detect-1e300", "sweep-hi-inf",
             "sweep-lo-inf", "sweep-step-inf", "sweep-1e6", "sweep-3100", "sweep-last-row"],
    )
    def test_nonfinite_snr_is_config_error_naming_the_flag(self, scene, tmp_path, capsys,
                                                           monkeypatch, argv, flag):
        built = []
        monkeypatch.setattr(SnapshotSampler, "__init__", lambda self, *args: built.append(args))
        out = tmp_path / "out"
        assert main([*argv, "--config", str(scene), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {flag}")
        assert built == [] and not out.exists()

    def test_infinite_sigma2_is_config_error_naming_it(self, tmp_path, capsys):
        argv = ["verify-clt", "--p", "16", "--gamma", "0.25", "--trials", "4", "--sigma2", "inf",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--sigma2 must be positive and finite" in err and "--spikes" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "grid", [["--snr-step", "0"], ["--snr-step", "-4"], ["--snr-lo", "10", "--snr-hi", "0"]]
    )
    def test_empty_snr_grid_is_config_error(self, scene, tmp_path, grid):
        argv = ["sweep", "--axis", "snr", "--config", str(scene), "--trials", "1", *grid,
                "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert not (tmp_path / "sweep-snr.csv").exists()

    def test_zero_n_flag_overrides_config(self, scene, tmp_path):
        argv = ["estimate", "--config", str(scene), "--n", "0", "--out-dir", str(tmp_path)]
        assert main(argv) == 2

    def test_zero_n_flag_on_preset_is_config_error(self, tmp_path):
        assert main(["estimate", "--n", "0", "--out-dir", str(tmp_path)]) == 2

    # flag values out of range on a 16-dim scene (p = 2 x 8): each is a
    # configuration error, caught before any work and before any output
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--axis", "n", "--trials", "-1"],
            ["detect", "--pfa", "2"],
            ["detect", "--pfa", "0"],
            ["sweep", "--axis", "snr", "--trials", "1", "--pfa", "2"],
            ["sweep", "--axis", "snr", "--trials", "1", "--pfa", ","],
            ["estimate", "--estimator", "rcml", "--rank", "16"],
            ["estimate", "--estimator", "rcml", "--rank", "-1"],
            ["estimate", "--estimator", "shrinkage", "--rank", "2"],
            ["estimate", "--rank", "2"],
            ["sweep", "--axis", "angle", "--trials", "1", "--angle-grid", "-3"],
            ["sweep", "--axis", "doppler", "--trials", "1", "--doppler-grid", "0"],
            ["detect", "--doppler", "0.7"],
            ["sweep", "--axis", "snr", "--trials", "1", "--doppler", "-0.6"],
            ["estimate", "--seed", "-1"],
            ["detect", "--seed", "-1"],
            ["sweep", "--axis", "n", "--trials", "1", "--seed", "-1"],
            # grids of PiB that numpy refuses at once, before touching memory
            ["sweep", "--axis", "snr", "--trials", "1", "--snr-step", "1e-15"],
            ["sweep", "--axis", "doppler", "--trials", "1", "--doppler-grid", "1000000000000000"],
            ["sweep", "--axis", "angle", "--trials", "1", "--angle-grid", "1000000000000000"],
            # draws of PiB, refused the same way (never on the n axis, whose
            # default grid of n / p rows is built in full before any draw)
            ["estimate", "--n", "1000000000000000"],
            ["detect", "--n", "1000000000000000"],
            ["sweep", "--axis", "doppler", "--trials", "1", "--doppler-grid", "1",
             "--n", "1000000000000000"],
        ],
        ids=["sweep-trials", "detect-pfa-2", "detect-pfa-0", "sweep-pfa", "sweep-pfa-empty",
             "rcml-rank-p", "rcml-rank-negative", "shrinkage-rank", "default-estimator-rank",
             "angle-grid", "doppler-grid", "detect-doppler",
             "sweep-doppler", "estimate-seed", "detect-seed", "sweep-seed",
             "snr-grid-too-large", "doppler-grid-too-large", "angle-grid-too-large",
             "estimate-draw-too-large", "detect-draw-too-large", "sweep-draw-too-large"],
    )
    def test_flag_out_of_range_is_config_error(self, tmp_path, argv):
        scene = {"N": 2, "K": 8, "n": 64, "sigma2": 1.0,
                 "clutter": {"kind": "spiked", "spikes": [6.0, 3.0]}}
        path = _write(tmp_path, "p16.json", json.dumps(scene))
        out = tmp_path / "out"
        assert main([*argv, "--config", str(path), "--out-dir", str(out)]) == 2
        assert not out.exists()

    # a sweep flag that the chosen axis does not read is refused, not ignored
    @pytest.mark.parametrize(
        "axis,flag,value",
        [("n", "--rank", "99"), ("n", "--pfa", "1e-2"), ("doppler", "--rank", "2"),
         ("angle", "--pfa", "1e-1,1e-2"), ("n", "--snr-lo", "0"), ("doppler", "--snr-hi", "10"),
         ("angle", "--snr-step", "2"), ("n", "--doppler-grid", "3"),
         ("angle", "--doppler-grid", "3"), ("doppler", "--angle-grid", "3"),
         ("snr", "--angle-grid", "3"), ("snr", "--doppler-grid", "3")],
    )
    def test_flag_of_another_axis_is_config_error(self, tmp_path, capsys, axis, flag, value):
        scene = {"N": 2, "K": 8, "n": 64, "sigma2": 1.0,
                 "clutter": {"kind": "spiked", "spikes": [6.0, 3.0]}}
        path = _write(tmp_path, "p16.json", json.dumps(scene))
        out = tmp_path / "out"
        argv = ["sweep", "--axis", axis, "--trials", "1", flag, value,
                "--config", str(path), "--out-dir", str(out)]
        assert main(argv) == 2
        assert f"{flag} applies to --axis" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_names_the_estimator_it_applies_to(self, tmp_path, capsys):
        argv = ["estimate", "--rank", "2", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "--rank applies to --estimator rcml" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--spikes", "0.5"], ["--trials", "1"], ["--gamma", "0"], ["--gamma", "2"], ["--p", "0"],
         ["--sigma2", "-1"], ["--spikes", "1.2"], ["--seed", "-1"],
         ["--p", "4", "--gamma", "0.5", "--spikes", "5,4,3,3.5"],
         ["--gamma", "1e-15", "--trials", "2"]],  # a 3.55 EiB draw, refused at once
        ids=["spike-below-floor", "one-trial", "gamma-zero", "gamma-above-one", "p-zero",
             "negative-sigma2", "spike-below-edge",  # the edge is 1 + sqrt(0.25) = 1.5
             "negative-seed", "as-many-spikes-as-p", "draw-too-large"],
    )
    def test_verify_clt_flag_out_of_range_is_config_error(self, tmp_path, flags):
        argv = ["verify-clt", "--p", "16", "--gamma", "0.25", "--trials", "4", *flags,
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert not (tmp_path / "out").exists()

    def test_refused_allocation_names_the_command_and_size(self, tmp_path, capsys):
        argv = ["verify-clt", "--p", "16", "--gamma", "1e-15", "--trials", "2",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: verify-clt ")
        assert "Unable to allocate 3.55 EiB" in err

    # p (n + 1) 16 bytes past the largest intp: numpy could not even size the
    # draw, so the check runs first and allocates nothing; at 1e-320 p / gamma
    # is infinite
    @pytest.mark.parametrize("gamma", ["1e-16", "1e-18", "1e-320"])
    def test_draw_numpy_cannot_size_is_config_error(self, tmp_path, capsys, gamma):
        argv = ["verify-clt", "--p", "16", "--gamma", gamma, "--trials", "2",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "larger than numpy can size" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command",
        [["estimate"], ["detect"], ["sweep", "--axis", "n", "--trials", "1"],
         ["sweep", "--axis", "snr", "--trials", "1"],
         ["sweep", "--axis", "doppler", "--trials", "1", "--doppler-grid", "2"]],
        ids=["estimate", "detect", "sweep-n", "sweep-snr", "sweep-doppler"],
    )
    def test_scene_draw_numpy_cannot_size_is_config_error(self, scene, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [*command, "--config", str(scene), "--n", str(10**17), "--out-dir", str(out)]
        assert main(argv) == 2
        assert "larger than numpy can size" in capsys.readouterr().err
        assert not out.exists()


    # malformed fields of a scenario JSON: each a configuration error, raised
    # while the scene is read and before any output
    @pytest.mark.parametrize(
        "fields",
        [
            {"clutter": [1]},
            {"clutter": {"kind": "scatterers",
                         "scatterers": [{"amplitude": "abc", "theta": 0.1, "doppler": 0.1}]}},
            {"clutter": {"kind": "scatterers",
                         "scatterers": [{"amplitude": 1.0, "theta": 0.1, "doppler": 0.9}]}},
            {"clutter": {"kind": "scatterers",
                         "scatterers": [{"amplitude": np.nan, "theta": 0.1, "doppler": 0.1}]}},
            {"seed": -1},
            {"clutter": {"kind": "scatterers",
                         "scatterers": [{"amplitude": 1e200, "theta": 0.1, "doppler": 0.1}]}},
            {"sigma2": np.inf},
            {"clutter": {"kind": "spiked", "spikes": [np.inf]}},
            {"clutter": {"kind": "toeplitz", "taps": [[np.inf, 0.0]], "pulse_len": 1}},
            {"clutter": {"kind": "toeplitz", "taps": [[np.nan, 0.0]], "pulse_len": 1}},
            OVERFLOWING_TAPS,
            OVERFLOWING_SCATTERERS,
            {"N": np.inf},
            {"n": np.inf},
            {"seed": np.inf},
            {"clutter": {"kind": "toeplitz", "taps": [[1.0, 0.0]], "pulse_len": np.inf}},
            {"N": 2.7},
            {"K": 8.5},
            {"n": 64.5},
            {"seed": 1.5},
            {"clutter": {"kind": "toeplitz", "taps": [[1.0, 0.0]], "pulse_len": 2.5}},
            {"N": True},
            {"seed": False},
            {"clutter": {"kind": "toeplitz", "taps": [[1.0, 0.0]], "pulse_len": True}},
            {"n": "64"},
        ],
        ids=["clutter-not-object", "amplitude-string", "doppler-out-of-range", "amplitude-nan",
             "negative-seed", "power-overflow", "sigma2-inf", "spike-inf", "tap-inf", "tap-nan",
             "covariance-overflow-taps", "covariance-overflow-scatterers", "N-inf", "n-inf",
             "seed-inf", "pulse-len-inf", "N-fractional", "K-fractional", "n-fractional",
             "seed-fractional", "pulse-len-fractional", "N-boolean", "seed-boolean",
             "pulse-len-boolean", "n-string"],
    )
    def test_malformed_scene_is_config_error(self, tmp_path, fields):
        scene = {"N": 2, "K": 8, "n": 64, "sigma2": 1.0, **fields}
        path = _write(tmp_path, "bad.json", json.dumps(scene))
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(path), "--out-dir", str(out)]) == 2
        assert not out.exists()

    # a real field given as anything but a JSON number: each a configuration
    # error naming the field, where float() or complex() would have taken it
    @pytest.mark.parametrize(
        "fields,name",
        [({"sigma2": True}, "sigma2"),
         ({"sigma2": "1.0"}, "sigma2"),
         ({"clutter": {"kind": "scatterers",
                       "scatterers": [{"amplitude": "3", "theta": 0.1, "doppler": 0.1}]}},
          "scatterers[0].amplitude"),
         ({"clutter": {"kind": "scatterers",
                       "scatterers": [{"amplitude": 3.0, "theta": 0.1, "doppler": 0.1},
                                      {"amplitude": 3.0, "theta": True, "doppler": 0.1}]}},
          "scatterers[1].theta"),
         ({"clutter": {"kind": "scatterers",
                       "scatterers": [{"amplitude": 3.0, "theta": 0.1, "doppler": "0.1"}]}},
          "scatterers[0].doppler"),
         ({"sigma2": 0.5, "clutter": {"kind": "spiked", "spikes": ["5", True]}}, "spikes[0]"),
         ({"sigma2": 0.5, "clutter": {"kind": "spiked", "spikes": [5.0, True]}}, "spikes[1]"),
         ({"clutter": {"kind": "toeplitz", "taps": [[True, 0.0]], "pulse_len": 1}}, "taps[0]"),
         ({"clutter": {"kind": "toeplitz", "taps": [[1.0, 0.0], [0.5, False]],
                       "pulse_len": 1}}, "taps[1]")],
        ids=["sigma2-boolean", "sigma2-string", "amplitude-string", "theta-boolean",
             "doppler-string", "spike-string", "spike-boolean", "tap-real-boolean",
             "tap-imaginary-boolean"],
    )
    def test_real_field_that_is_not_a_number_is_config_error(self, tmp_path, capsys, fields,
                                                             name):
        scene = {"N": 2, "K": 8, "n": 64, "sigma2": 1.0, **fields}
        path = _write(tmp_path, "bad.json", json.dumps(scene))
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {name} must be a number")
        assert not out.exists()

    def test_integral_floats_are_integers(self, tmp_path, capsys):
        scene = {"N": 2.0, "K": 8.0, "n": 64.0, "sigma2": 1.0, "seed": 3.0,
                 "clutter": {"kind": "toeplitz", "taps": [[1.0, 0.0]], "pulse_len": 1.0}}
        path = _write(tmp_path, "floats.json", json.dumps(scene))
        out = tmp_path / "out"
        assert main(["estimate", "--config", str(path), "--out-dir", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["gamma"] == 16 / 64
        assert json.loads((out / "manifest.json").read_text())["seed"] == 3

    @pytest.mark.parametrize("fields", [OVERFLOWING_TAPS, OVERFLOWING_SCATTERERS],
                             ids=["taps", "scatterers"])
    @pytest.mark.parametrize(
        "command", [["detect"], ["sweep", "--axis", "n", "--trials", "1"]], ids=["detect", "sweep"]
    )
    def test_overflowing_covariance_is_config_error_in_every_command(self, tmp_path, capsys,
                                                                     fields, command):
        scene = {"N": 2, "K": 8, "n": 64, "sigma2": 1.0, **fields}
        path = _write(tmp_path, "bad.json", json.dumps(scene))
        out = tmp_path / "out"
        assert main([*command, "--config", str(path), "--out-dir", str(out)]) == 2
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("angle", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command", [["detect"], ["sweep", "--axis", "n", "--trials", "1"],
                    ["sweep", "--axis", "snr", "--trials", "1"]],
        ids=["detect", "sweep-n", "sweep-snr"],
    )
    def test_nonfinite_angle_is_config_error(self, scene, tmp_path, capsys, command, angle):
        out = tmp_path / "out"
        argv = [*command, "--config", str(scene), "--angle-deg", angle, "--out-dir", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way to the verdict
            assert main(argv) == 2
        assert "bad target" in capsys.readouterr().err
        assert not out.exists()

    def test_clutter_filling_every_dimension_is_config_error_in_sweeps(self, tmp_path, capsys):
        # Toeplitz clutter of pulse length 40 > p = 32 lifts every eigenvalue:
        # the sweeps' spiked truth has no noise floor, while estimate and
        # detect need none
        scene = {"N": 4, "K": 8, "n": 64, "sigma2": 1,
                 "clutter": {"kind": "toeplitz", "taps": [[3, 1]], "pulse_len": 40}}
        path = _write(tmp_path, "full-rank.json", json.dumps(scene))
        for axis, grid in (("n", []), ("snr", []), ("doppler", ["--doppler-grid", "2"]),
                           ("angle", ["--angle-grid", "2"])):
            out = tmp_path / f"sweep-{axis}"
            argv = ["sweep", "--axis", axis, "--trials", "1", *grid,
                    "--config", str(path), "--out-dir", str(out)]
            assert main(argv) == 2, axis
            err = capsys.readouterr().err
            assert "configuration error" in err and "clutter rank 32" in err and "p = 32" in err
            assert not out.exists()
        for command in (["estimate"], ["detect"]):
            assert main([*command, "--config", str(path), "--out-dir", str(tmp_path / "ok")]) == 0


# over the 0.1 * p = 3 spiked-model budget at p = 32, one scene of each clutter kind
OVER_BUDGET = {
    "scatterers": {"kind": "scatterers", "scatterers": [
        {"amplitude": a, "theta": th, "doppler": fd}
        for a, th, fd in [(9.0, -0.6, -0.3), (8.0, -0.3, -0.15), (7.0, 0.0, 0.05),
                          (6.0, 0.3, 0.15), (5.0, 0.6, 0.3)]
    ]},
    "toeplitz": {"kind": "toeplitz", "taps": [[3, 1], [1, 0]], "pulse_len": 5},
    "spiked": {"kind": "spiked", "spikes": [40.0, 30.0, 20.0, 15.0, 10.0]},
}


class TestSceneRankWarning:
    @pytest.mark.parametrize("kind", sorted(OVER_BUDGET))
    @pytest.mark.parametrize(
        "command",
        [["estimate"], ["detect"], ["sweep", "--axis", "n", "--trials", "1"],
         ["sweep", "--axis", "snr", "--trials", "1", "--snr-lo", "0", "--snr-hi", "0"],
         ["sweep", "--axis", "doppler", "--trials", "1", "--doppler-grid", "2"]],
        ids=["estimate", "detect", "sweep-n", "sweep-snr", "sweep-doppler"],
    )
    def test_each_command_warns_once(self, tmp_path, kind, command):
        scene = {**SCENE, "clutter": OVER_BUDGET[kind]}
        path = _write(tmp_path, "scene.json", json.dumps(scene))
        with warnings.catch_warnings(record=True) as record:
            assert main([*command, "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        scene_rank = [w for w in record if issubclass(w.category, ModelOrderWarning)
                      and not str(w.message).startswith("detected")]  # the estimator's own check
        assert [str(w.message) for w in scene_rank] == [
            "clutter rank 5 exceeds the 0.1*p = 3 spiked-model budget"
        ]


# imports a command never uses: scipy's Python layers (scipy.linalg's
# array-API layer loads numpy.f2py, numpy.testing and numpy.ma) and the
# subpackages of the closed forms the package computes itself. The probe
# asks only that the package's import add none of them: numpy < 2 loads
# numpy.ma itself
UNUSED_MODULES = [
    "scipy.linalg", "scipy._lib._array_api", "numpy.f2py", "numpy.testing", "numpy.ma",
    "scipy.integrate", "scipy.optimize", "scipy.special", "scipy.stats",
]

# imports the package, then runs every command on the small scene; its last
# line is the unused modules the package's import added, the modules the
# commands add, and whether scipy's package was imported by then. argparse's
# messages import ``locale`` through ``gettext`` at their first use, which
# is not the package's
IMPORT_PROBE = """
import json, locale, sys, tempfile
from pathlib import Path
import numpy
before = set(sys.modules)
import cluttercov.cli
loaded = set(sys.modules)
at_import = "scipy" in sys.modules
with tempfile.TemporaryDirectory() as tmp:
    scene = Path(tmp) / "scene.json"
    scene.write_text(json.dumps(SCENE))
    for i, argv in enumerate(COMMANDS):
        config = [] if argv[0] == "verify-clt" else ["--config", str(scene)]
        assert cluttercov.cli.main([*argv, *config, "--out-dir", str(Path(tmp) / str(i))]) == 0
print(json.dumps([[m for m in UNUSED if m in loaded - before], sorted(set(sys.modules) - loaded),
                  [at_import, "scipy" in sys.modules]]))
"""


def _run_python(code: str) -> str:
    """The last line ``code`` prints, run in a fresh interpreter that imports the package under test."""
    src = str(Path(cluttercov.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=300
    )
    return out.stdout.strip().splitlines()[-1]


class TestImport:
    def test_cli_loads_no_unused_module_and_commands_load_none(self):
        commands = [["estimate"], ["estimate", "--estimator", "rcml"],
                    *(argv for argv, _ in DETERMINISTIC.values())]
        code = (f"UNUSED, SCENE, COMMANDS = {UNUSED_MODULES!r}, {SCENE!r}, {commands!r}"
                + IMPORT_PROBE)
        at_import, by_commands, scipy_imported = json.loads(_run_python(code))
        assert at_import == []
        assert by_commands == []
        if sys.platform != "win32":
            # scipy's package init runs only where its compiled modules do not
            # load from their files alone: on Windows, it puts their DLLs on
            # the search path
            assert scipy_imported == [False, False]

    def test_package_import_loads_no_csv(self):
        # a sweep returns numbers, and only the CLI's output path writes CSV
        assert _run_python("import sys, cluttercov\nprint('csv' in sys.modules)") == "False"

    def test_a_failed_direct_load_falls_back_to_importing_scipy(self):
        # as where scipy's folder is not found or its DLLs are not yet on the search path
        code = ("import importlib.util, sys\n"
                "find_spec = importlib.util.find_spec\n"
                "importlib.util.find_spec = lambda name, *a: None if name == 'scipy' else find_spec(name, *a)\n"
                "import cluttercov.rmt as rmt\n"
                "print('scipy' in sys.modules, rmt.eigh([[2.0, 0.0], [0.0, 1.0]]).eigenvalues.tolist())")
        assert _run_python(code) == "True [2.0, 1.0]"

    def test_a_later_scipy_linalg_shares_the_bound_modules(self):
        code = ("import cluttercov.rmt as rmt, scipy.linalg\n"
                "print(scipy.linalg.lapack._flapack is rmt.lapack and scipy.linalg.blas._fblas is rmt.blas)")
        assert _run_python(code) == "True"
