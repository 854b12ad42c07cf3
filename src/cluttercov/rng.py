"""Deterministic substream derivation for Monte Carlo runs."""

from __future__ import annotations

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for a named substream of a root seed.

    Streams are keyed by ``(seed, path)`` through ``SeedSequence`` spawn
    keys, so trial i always sees the same stream regardless of execution
    order or how many other streams were drawn first.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def complex_normal(rng: np.random.Generator, p: int, n: int) -> np.ndarray:
    """p x n circular complex Gaussian draws of unit variance, built in place.

    The real parts take the first p x n standard normals of ``rng`` and the
    imaginary parts the next, the order of (a + 1j * b) / sqrt(2), to which
    the result is bitwise equal; filling one complex array and dividing it in
    place saves that expression's two complex temporaries.
    """
    w = np.empty((p, n), dtype=complex)
    w.real = rng.standard_normal((p, n))
    w.imag = rng.standard_normal((p, n))
    return np.divide(w, np.sqrt(2.0), out=w)
