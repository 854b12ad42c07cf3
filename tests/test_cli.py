import json

import numpy as np
import pytest

from cluttercov import (
    ScenarioConfig,
    Scatterer,
    ScattererClutter,
    SnapshotSampler,
    synthesize_clutter_covariance,
)
from cluttercov.cli import main
from cluttercov.matio import load_matrix

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
        m, _ = load_matrix(base)
        assert m.shape == (32, 32)
        assert np.abs(m - m.conj().T).max() < 1e-12 * np.abs(m).max()
        lam = np.linalg.eigvalsh(m)[::-1]
        np.testing.assert_allclose(lam[:2], summary["spiked_eigenvalues"], rtol=1e-10)
        np.testing.assert_allclose(lam[2:], summary["sigma2_hat"], rtol=1e-10)

    def test_unknown_preset_is_config_error(self, tmp_path):
        assert main(["estimate", "--scenario", "no-such-scene", "--out-dir", str(tmp_path)]) == 2

    def test_too_few_samples_is_numeric_failure(self, scene, tmp_path, capsys):
        # n = 8 < p = 32: the n-sweep's grid of multiples of p would be empty
        for argv in (["estimate"], ["sweep", "--axis", "n", "--trials", "1"]):
            out = tmp_path / argv[0]
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


def _run(argv, out):
    """Run ``main`` into ``out``; return the exit code and the parsed manifest."""
    code = main([*argv, "--out-dir", str(out)])
    manifest = json.loads((out / "manifest.json").read_text()) if code == 0 else None
    return code, manifest


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


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


class TestExitCodes:
    def test_bad_json_is_config_error(self, tmp_path):
        path = _write(tmp_path, "bad.json", '{"N": 2, "K": 8,')
        assert main(["estimate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2

    def test_spike_at_noise_floor_is_config_error(self, tmp_path):
        scene = {"N": 2, "K": 8, "n": 64, "sigma2": 1.0,
                 "clutter": {"kind": "spiked", "spikes": [3.0, 1.0]}}
        path = _write(tmp_path, "floor.json", json.dumps(scene))
        assert main(["estimate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2

    def test_nan_taps_are_numeric_failure(self, tmp_path):
        text = ('{"N": 2, "K": 8, "n": 64, "sigma2": 1.0, "clutter": '
                '{"kind": "toeplitz", "taps": [[NaN, 0.0]], "pulse_len": 1}}')
        path = _write(tmp_path, "nan.json", text)
        assert main(["estimate", "--config", str(path), "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("snr_db", ["1e300", "nan"])
    def test_nonfinite_target_amplitude_is_numeric_failure(self, scene, tmp_path, snr_db):
        argv = ["detect", "--config", str(scene), "--snr-db", snr_db, "--out-dir", str(tmp_path)]
        assert main(argv) == 3

    def test_overflowing_snr_grid_is_numeric_failure(self, scene, tmp_path):
        argv = ["sweep", "--axis", "snr", "--config", str(scene), "--trials", "1",
                "--snr-lo", "3100", "--snr-hi", "3100", "--out-dir", str(tmp_path)]
        assert main(argv) == 3

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
            ["estimate", "--estimator", "rcml", "--rank", "16"],
            ["estimate", "--estimator", "rcml", "--rank", "-1"],
            ["sweep", "--axis", "angle", "--trials", "1", "--angle-grid", "-3"],
            ["sweep", "--axis", "doppler", "--trials", "1", "--doppler-grid", "0"],
            ["detect", "--doppler", "0.7"],
            ["sweep", "--axis", "snr", "--trials", "1", "--doppler", "-0.6"],
        ],
        ids=["sweep-trials", "detect-pfa-2", "detect-pfa-0", "sweep-pfa", "rcml-rank-p",
             "rcml-rank-negative", "angle-grid", "doppler-grid", "detect-doppler",
             "sweep-doppler"],
    )
    def test_flag_out_of_range_is_config_error(self, tmp_path, argv):
        scene = {"N": 2, "K": 8, "n": 64, "sigma2": 1.0,
                 "clutter": {"kind": "spiked", "spikes": [6.0, 3.0]}}
        path = _write(tmp_path, "p16.json", json.dumps(scene))
        out = tmp_path / "out"
        assert main([*argv, "--config", str(path), "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--spikes", "0.5"], ["--trials", "1"], ["--gamma", "0"], ["--gamma", "2"], ["--p", "0"],
         ["--sigma2", "-1"], ["--spikes", "1.2"]],
        ids=["spike-below-floor", "one-trial", "gamma-zero", "gamma-above-one", "p-zero",
             "negative-sigma2", "spike-below-edge"],  # the edge is 1 + sqrt(0.25) = 1.5
    )
    def test_verify_clt_flag_out_of_range_is_config_error(self, tmp_path, flags):
        argv = ["verify-clt", "--p", "16", "--gamma", "0.25", "--trials", "4", *flags,
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert not (tmp_path / "out").exists()
