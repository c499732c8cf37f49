"""Synthetic dataset families used by the benchmark scripts and tests.

Each generator returns an unnormalized Dataset; the benchmark pipeline
normalizes before searching, same as for file-loaded data.

The families target the regimes where the advanced bounds differ most:
smooth walks keep adjacent-point distances small (where triangle-inequality
propagation stays tight), and clustered series put window points into
separated value clumps (where per-cluster boxes beat the single envelope
box).
"""

from __future__ import annotations

import numpy as np

from .ingest import Dataset, _observed_ranges


def _dataset(name: str, values: np.ndarray) -> Dataset:
    return Dataset(name, values, _observed_ranges(values))


def random_walk_dataset(
    num_series: int, length: int, dims: int, seed: int, name: str = "random_walk",
) -> Dataset:
    """Gaussian random walks."""
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.normal(0.0, 1.0, (num_series, length, dims)), axis=1)
    return _dataset(name, vals)


def smooth_walk_dataset(
    num_series: int, length: int, dims: int, seed: int, name: str = "smooth_walk",
) -> Dataset:
    """Densely sampled smooth trajectories: random walks whose increments are
    AR(1)-filtered, so consecutive points stay close relative to the series'
    overall excursion."""
    rng = np.random.default_rng(seed)
    innov = rng.normal(0.0, 0.1, (num_series, length, dims))
    inc = np.empty_like(innov)
    inc[:, 0] = innov[:, 0]
    for t in range(1, length):
        inc[:, t] = 0.92 * inc[:, t - 1] + innov[:, t]
    return _dataset(name, np.cumsum(inc, axis=1))


def clustered_dataset(
    num_series: int, length: int, dims: int, seed: int, name: str = "clustered",
) -> Dataset:
    """Regime-switching series: each point sits near one of two widely
    separated level vectors per series (scale 8), with jitter 0.25, and
    switches level with probability 0.35.  Window contents then form tight
    clumps far apart, the worst case for a single envelope box."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 8.0, (num_series, 2, dims))
    state = np.zeros(num_series, dtype=np.int64)
    vals = np.empty((num_series, length, dims))
    for t in range(length):
        state = np.where(rng.random(num_series) < 0.35, 1 - state, state)
        vals[:, t] = centers[np.arange(num_series), state] + rng.normal(0.0, 0.25, (num_series, dims))
    return _dataset(name, vals)


def iid_noise_dataset(
    num_series: int, length: int, dims: int, seed: int, name: str = "iid_noise",
) -> Dataset:
    """Independent standard normal points."""
    rng = np.random.default_rng(seed)
    return _dataset(name, rng.normal(0.0, 1.0, (num_series, length, dims)))
