import json

import numpy as np
import pytest

from cluttercov import AspectRatio, eigh, sample_covariance, shrink_spectrum
from cluttercov.matio import load_estimate, load_matrix, save_estimate, save_matrix
from cluttercov.rng import substream
from oracles import dense_estimate


def small_estimate():
    p, n = 12, 48
    rng = substream(300, 0)
    data = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
    data[0] *= 5.0
    return shrink_spectrum(eigh(sample_covariance(data)), AspectRatio(p, n))


class TestMatrixBlob:
    # every special part a float64 can hold: signed zeros, infinities and a NaN
    SPECIAL = np.array([[complex(-0.0, 0.0), complex(2.0, np.inf)],
                        [complex(-np.inf, -0.0), complex(np.nan, -np.inf)],
                        [complex(0.0, np.nan), 1.5 - 2.5j]])

    def test_special_values_round_trip_bit_for_bit(self, tmp_path, recwarn):
        save_matrix(tmp_path / "m", self.SPECIAL)
        m, _ = load_matrix(tmp_path / "m")
        assert m.dtype == np.complex128 and m.shape == (3, 2)
        assert m.tobytes() == self.SPECIAL.tobytes()
        assert np.signbit(m[0, 0].real)
        assert not recwarn.list

    def test_blob_is_interleaved_float64_in_column_order(self, tmp_path):
        bin_path, _ = save_matrix(tmp_path / "m", self.SPECIAL)
        blob = np.frombuffer(bin_path.read_bytes(), dtype="<f8")
        flat = self.SPECIAL.ravel(order="F")
        assert blob[0::2].tobytes() == flat.real.tobytes()
        assert blob[1::2].tobytes() == flat.imag.tobytes()

    def test_loaded_matrix_is_writable_and_column_major(self, tmp_path):
        save_matrix(tmp_path / "m", self.SPECIAL)
        m, _ = load_matrix(tmp_path / "m")
        assert m.flags.writeable and m.flags.f_contiguous
        m[0, 0] = 1.0


class TestSaveEstimate:
    def test_round_trip(self, tmp_path):
        est = small_estimate()
        assert est.r >= 1
        paths = save_estimate(tmp_path / "est", est, 0.25)
        assert [p.name for p in paths] == ["est.bin", "est.json", "est.summary.json"]
        # the model, not the dense matrix: p x r vectors and the summary
        m, header = load_matrix(tmp_path / "est")
        np.testing.assert_array_equal(m, est.vectors)
        assert header == {"rows": 12, "cols": est.r, "dtype": "c128",
                          "layout": "col-major"}
        assert paths[0].stat().st_size == 12 * est.r * 16
        summary = json.loads((tmp_path / "est.summary.json").read_text())
        assert summary == est.summary(0.25)
        assert summary["spike_count"] == est.r
        assert summary["spiked_eigenvalues"] == est.spikes.tolist()
        back = load_estimate(tmp_path / "est")
        assert back.sigma2 == est.sigma2
        np.testing.assert_array_equal(back.spikes, est.spikes)
        np.testing.assert_array_equal(back.vectors, est.vectors)
        np.testing.assert_array_equal(dense_estimate(back), dense_estimate(est))

    @pytest.mark.parametrize(
        "field,value,match",
        [("spike_count", 7, "spike count"), ("sigma2_hat", -1.0, "positive"),
         ("spiked_eigenvalues", [1e-9], "noise floor"), ("spiked_eigenvalues", [np.nan], "finite"),
         ("sigma2_hat", np.inf, "finite")],
        ids=["count", "floor", "spike-below-floor", "nan-spike", "infinite-floor"],
    )
    def test_summary_breaking_the_invariants_rejected(self, tmp_path, field, value, match):
        est = small_estimate()
        assert est.r == 1
        save_estimate(tmp_path / "est", est, 0.25)
        path = tmp_path / "est.summary.json"
        summary = json.loads(path.read_text())
        summary[field] = value
        path.write_text(json.dumps(summary))
        with pytest.raises(ValueError, match=match):
            load_estimate(tmp_path / "est")

    @pytest.mark.parametrize("cut", [16, 8], ids=["one-entry", "half-entry"])
    def test_wrong_blob_size_rejected(self, tmp_path, cut):
        save_estimate(tmp_path / "est", small_estimate(), 0.25)
        blob = tmp_path / "est.bin"
        blob.write_bytes(blob.read_bytes()[:-cut])
        with pytest.raises(ValueError, match="blob size"):
            load_matrix(tmp_path / "est")

    def test_missing_sidecar_field_rejected(self, tmp_path):
        save_estimate(tmp_path / "est", small_estimate(), 0.25)
        sidecar = tmp_path / "est.json"
        header = json.loads(sidecar.read_text())
        del header["layout"]
        sidecar.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="sidecar missing field 'layout'"):
            load_matrix(tmp_path / "est")
