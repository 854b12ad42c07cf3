import json

import numpy as np
import pytest

from cluttercov import AspectRatio, eigh, sample_covariance, shrink_spectrum
from cluttercov.matio import load_matrix, save_estimate
from cluttercov.rng import substream


def small_estimate():
    p, n = 12, 48
    rng = substream(300, 0)
    data = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    data[0] *= 5.0
    return shrink_spectrum(eigh(sample_covariance(data)), AspectRatio(p, n))


class TestSaveEstimate:
    def test_round_trip(self, tmp_path):
        est = small_estimate()
        assert est.spike_count >= 1
        paths = save_estimate(tmp_path / "est", est)
        assert [p.name for p in paths] == ["est.bin", "est.json", "est.summary.json"]
        m, header = load_matrix(tmp_path / "est")
        np.testing.assert_array_equal(m, est.matrix())
        assert header == {"rows": 12, "cols": 12, "dtype": "c128", "layout": "col-major"}
        summary = json.loads((tmp_path / "est.summary.json").read_text())
        assert summary == est.summary()
        assert summary["spike_count"] == est.spike_count
        assert summary["spiked_eigenvalues"] == est.spikes.tolist()

    def test_wrong_blob_size_rejected(self, tmp_path):
        save_estimate(tmp_path / "est", small_estimate())
        blob = tmp_path / "est.bin"
        blob.write_bytes(blob.read_bytes()[:-16])
        with pytest.raises(ValueError, match="blob size"):
            load_matrix(tmp_path / "est")

    def test_missing_sidecar_field_rejected(self, tmp_path):
        save_estimate(tmp_path / "est", small_estimate())
        sidecar = tmp_path / "est.json"
        header = json.loads(sidecar.read_text())
        del header["layout"]
        sidecar.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="sidecar missing field 'layout'"):
            load_matrix(tmp_path / "est")
