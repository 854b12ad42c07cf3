"""Shared on-disk format: complex matrices as raw float64 blobs with JSON sidecars.

A matrix named ``base`` is stored as ``base.bin`` (little-endian IEEE float64,
interleaved re/im, column-major: numpy's ``<c16`` in Fortran order) plus
``base.json`` holding {"rows", "cols", "dtype": "c128", "layout": "col-major"}.
The blob is read back bit for bit, signed zeros, infinities and NaNs included.

An estimate, a ``SpikedCovariance``, is written as its spiked form: its
p x r vectors V as the matrix ``base``, and {"sigma2_hat", "spike_count",
"spiked_eigenvalues", "gamma"} in ``base.summary.json``. It is
s2 I + V diag(spikes - s2) V^H with s2 = sigma2_hat.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .shrinkage import SpikedCovariance

SIDECAR_REQUIRED = ("rows", "cols", "dtype", "layout")


def save_matrix(base, matrix: np.ndarray) -> tuple[Path, Path]:
    """Write a complex matrix blob and its sidecar; returns (bin_path, json_path)."""
    base = Path(base)
    m = np.asarray(matrix, dtype="<c16")
    if m.ndim != 2:
        raise ValueError("only 2-d matrices are serializable")
    rows, cols = m.shape
    bin_path = base.with_suffix(".bin")
    json_path = base.with_suffix(".json")
    bin_path.write_bytes(m.ravel(order="F").tobytes())
    header = {"rows": rows, "cols": cols, "dtype": "c128", "layout": "col-major"}
    json_path.write_text(json.dumps(header, indent=2) + "\n")
    return bin_path, json_path


def load_matrix(base) -> tuple[np.ndarray, dict]:
    """Read a matrix blob and its sidecar; returns (matrix, header)."""
    base = Path(base)
    header = json.loads(base.with_suffix(".json").read_text())
    for key in SIDECAR_REQUIRED:
        if key not in header:
            raise ValueError(f"sidecar missing field {key!r}")
    if header["dtype"] != "c128" or header["layout"] != "col-major":
        raise ValueError("unsupported matrix encoding")
    rows, cols = int(header["rows"]), int(header["cols"])
    raw = base.with_suffix(".bin").read_bytes()
    if len(raw) != 16 * rows * cols:
        raise ValueError("blob size does not match sidecar dimensions")
    m = np.frombuffer(raw, dtype="<c16").reshape((rows, cols), order="F").astype(np.complex128)
    return m, header


def save_estimate(base, estimate: SpikedCovariance, gamma: float) -> list[Path]:
    """Serialize an estimate: its p x r vectors as blob + sidecar, then the summary JSON."""
    base = Path(base)
    paths = list(save_matrix(base, estimate.vectors))
    summary_path = base.with_suffix(".summary.json")
    summary_path.write_text(json.dumps(estimate.summary(gamma), indent=2) + "\n")
    paths.append(summary_path)
    return paths


def load_estimate(base) -> SpikedCovariance:
    """Rebuild a saved estimate; files that break its invariants raise ValueError."""
    base = Path(base)
    vectors, _ = load_matrix(base)
    summary = json.loads(base.with_suffix(".summary.json").read_text())
    spikes = np.asarray(summary["spiked_eigenvalues"], dtype=float)
    if summary["spike_count"] != spikes.size:
        raise ValueError("summary spike count does not match its spikes")
    return SpikedCovariance(summary["sigma2_hat"], spikes, vectors)
