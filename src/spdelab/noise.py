"""Brownian driver increments shared by the solver, the signal simulator and
the particle oracle.

Increments come from the counter-based Philox generator keyed by the manifest
seed, so driver l / step n is a pure function of (seed, L, n_steps, dt) with
no streaming state.  Every increment is quantized to a multiple of 2^-26
(about 1.5e-8, statistically invisible at desk-scale dt): block sums of
quantized values are exact integer arithmetic in float64, which is what makes
refinement studies bit-stable (coarsening commutes exactly and endpoint
values survive coarsening unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SizeError

_QUANTUM = 2.0 ** -26
_MAX_ELEMENTS = 200_000_000


@dataclass(frozen=True, eq=False)
class BrownianPath:
    """L independent driver increment columns with seed provenance; the
    (n_steps, L) shape of ``increments`` is the one record of both counts.
    Paths compare and hash by identity; a field-wise ``==`` over the array
    would have no single truth value."""

    dt: float
    increments: np.ndarray  # (n_steps, L)
    seed: int

    def __post_init__(self):
        if np.ndim(self.increments) != 2:
            raise ConfigurationError(f"increments must be an (n_steps, L) array, got "
                                     f"shape {np.shape(self.increments)}")

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def L(self) -> int:
        return self.increments.shape[1]

    def endpoint(self) -> np.ndarray:
        """B_T per driver (exact under the quantized representation)."""
        return block_sums(self.increments, self.n_steps)[0]


def generate(seed: int, L: int, n_steps: int, dt: float) -> BrownianPath:
    """Draw i.i.d. centered Gaussian increments with variance dt."""
    if L <= 0 or n_steps <= 0 or dt <= 0:
        raise ConfigurationError("generate needs positive seed-independent parameters")
    if n_steps * L > _MAX_ELEMENTS:
        raise SizeError(f"path of {n_steps}x{L} increments exceeds the safety limit")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    inc = rng.standard_normal((n_steps, L)) * np.sqrt(dt)
    inc = np.rint(inc / _QUANTUM) * _QUANTUM
    return BrownianPath(dt=float(dt), increments=inc, seed=int(seed))


def block_sums(increments: np.ndarray, k: int) -> np.ndarray:
    """Sum consecutive blocks of k rows, accumulating left to right."""
    n, L = increments.shape
    blocks = increments.reshape(n // k, k, L)
    acc = np.zeros((n // k, L))
    for j in range(k):
        acc += blocks[:, j, :]
    return acc


def coarsen(path: BrownianPath, k: int) -> BrownianPath:
    """Merge every k consecutive increments; endpoints are preserved exactly."""
    if k <= 0 or path.n_steps % k != 0:
        raise ConfigurationError(f"coarsening factor {k} does not divide {path.n_steps}")
    if k == 1:
        return path
    inc = block_sums(path.increments, k)
    return BrownianPath(dt=path.dt * k, increments=inc, seed=path.seed)
