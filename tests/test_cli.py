import json

import numpy as np
import pytest

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

    def test_too_few_samples_is_numeric_failure(self, scene, tmp_path):
        argv = ["estimate", "--config", str(scene), "--n", "8", "--out-dir", str(tmp_path)]
        assert main(argv) == 3


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

    def test_bench(self, tmp_path):
        code, manifest = _run(["bench", "--p-list", "8,16", "--reps", "1"], tmp_path)
        assert code == 0
        assert manifest["outputs"] == [str(tmp_path / "bench.csv")]
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0] == "p,reps,eig_seconds,shrink_seconds,eig_ratio,shrink_ratio"
        assert [row.split(",")[0] for row in lines[1:]] == ["8", "16"]


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

    def test_bad_p_list_is_config_error(self, tmp_path):
        assert main(["bench", "--p-list", "abc", "--out-dir", str(tmp_path)]) == 2
