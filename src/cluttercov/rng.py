"""Deterministic substream derivation for Monte Carlo runs."""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng

_FILL_CHUNK = 1 << 17  # standard normals per step of the complex fill (1 MiB)


def substream(seed: int, *path: int) -> Generator:
    """Generator for a named substream of a root seed.

    Streams are keyed by ``(seed, path)`` through ``SeedSequence`` spawn
    keys, so trial i always sees the same stream regardless of execution
    order or how many other streams were drawn first.
    """
    return default_rng(SeedSequence(seed, spawn_key=path))


def complex_normal(
    rng: Generator, p: int, n: int, row_scale: np.ndarray | None = None
) -> np.ndarray:
    """p x n circular complex Gaussian draws of unit variance, column-major, built in place.

    The real parts take the first p x n standard normals of ``rng`` and the
    imaginary parts the next, both in row-major order, the order of
    (a + 1j * b) / sqrt(2), to which the result is bitwise equal. Only the
    layout differs: the array is Fortran-ordered, so each column (one
    snapshot) and every leading block of columns is contiguous, and a
    training block ``w[:, :n]`` or a test cell ``w[:, n]`` is a view that
    BLAS reads without a copy. Both parts are filled a block of rows at a
    time from one reused scratch block of about 128 Ki floats (one row when
    n is larger). So the working set is the p x n complex output plus that
    block, not the output plus a p x n float draw.

    Given the p-vector ``row_scale``, row i is multiplied by
    ``row_scale[i]``, bitwise as ``complex_normal(rng, p, n) *
    row_scale[:, None]``. Both scalings run on each scratch block while it
    is in cache, not as passes over the output, and reproduce numpy's
    complex arithmetic: the complex / real division by sqrt(2) multiplies
    each part by the rounded 1 / sqrt(2), and the complex * real product by
    s scales each part by s unless s = 0, where it gives a * 0 - b * 0 and
    a * 0 + b * 0, to which the rows of zero scale are rebuilt. The
    division alone would turn an exact -0.0 normal, which the generator
    draws with probability about 2^-53, into +0.0 beside some signs of the
    other part; that sign of zero is not reproduced.
    """
    w = np.empty((p, n), dtype=complex, order="F")
    rows = max(1, min(_FILL_CHUNK // max(n, 1), p))
    block = np.empty((rows, n))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for part in (w.real, w.imag):
        for i in range(0, p, rows):
            j = min(i + rows, p)
            draw = rng.standard_normal(out=block[: j - i])
            draw *= inv_sqrt2
            if row_scale is not None:
                draw *= row_scale[i:j, None]
            part[i:j] = draw
    if row_scale is not None:
        zero = np.flatnonzero(row_scale == 0)
        re, im = w.real[zero], w.imag[zero]
        w.real[zero], w.imag[zero] = re - im, re + im
    return w
