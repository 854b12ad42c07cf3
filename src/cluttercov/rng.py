"""Deterministic substream derivation for Monte Carlo runs."""

from __future__ import annotations

import numpy as np

_FILL_CHUNK = 1 << 17  # standard normals per step of the complex fill (1 MiB)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for a named substream of a root seed.

    Streams are keyed by ``(seed, path)`` through ``SeedSequence`` spawn
    keys, so trial i always sees the same stream regardless of execution
    order or how many other streams were drawn first.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def complex_normal(rng: np.random.Generator, p: int, n: int) -> np.ndarray:
    """p x n circular complex Gaussian draws of unit variance, column-major, built in place.

    The real parts take the first p x n standard normals of ``rng`` and the
    imaginary parts the next, both in row-major order, the order of
    (a + 1j * b) / sqrt(2), to which the result is bitwise equal. Only the
    layout differs: the array is Fortran-ordered, so each column (one
    snapshot) and every leading block of columns is contiguous, and a
    training block ``w[:, :n]`` or a test cell ``w[:, n]`` is a view that
    BLAS reads without a copy. Both parts are filled a block of rows at a
    time from one reused scratch block of about 128 Ki floats (one row when
    n is larger), and the division runs in place. So the working set is the
    p x n complex output plus that block, not the output plus a p x n float
    draw.
    """
    w = np.empty((p, n), dtype=complex, order="F")
    rows = max(1, min(_FILL_CHUNK // max(n, 1), p))
    block = np.empty((rows, n))
    for part in (w.real, w.imag):
        for i in range(0, p, rows):
            j = min(i + rows, p)
            part[i:j] = rng.standard_normal(out=block[: j - i])
    return np.divide(w, np.sqrt(2.0), out=w)
