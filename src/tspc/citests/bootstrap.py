"""Stationary-bootstrap resampling for dependent rows.

Blocks have geometric length (restart probability 1 / expected length) and
wrap around the end of the sample, which preserves stationarity of the
resampled series.  The threshold helper returns an empirical quantile of the
statistic over resampled data sets, all handed to the statistic at once;
with the quantile set to 1 - alpha it acts as a critical value calibrated
under the observed dependence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data import DataMatrix
from ..rng import make_generator

__all__ = ["BootstrapConfig", "stationary_bootstrap_indices", "stationary_bootstrap_threshold"]


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count, expected block length, quantile, and stream seed.

    quantile=0 degenerates to the minimum over replicates and quantile=1 to
    the maximum; both ends are legal.
    """

    num_replicates: int = 100
    expected_block_length: float = 20.0
    quantile: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_replicates < 1:
            raise ValueError(f"need at least 1 replicate, got {self.num_replicates}")
        if not self.expected_block_length > 1.0:
            raise ValueError(
                f"expected block length must exceed 1, got {self.expected_block_length}"
            )
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {self.quantile}")


def stationary_bootstrap_indices(
    n: int, expected_block_length: float, rng: np.random.Generator
) -> np.ndarray:
    """One resample of row indices 0..n-1 with geometric wrap-around blocks."""
    if n < 1:
        raise ValueError("need at least one row")
    restart = rng.random(n) < 1.0 / expected_block_length
    restart[0] = True
    starts = rng.integers(0, n, size=n)
    # Index t continues the block opened at the latest restart at or before t.
    restart_pos = np.flatnonzero(restart)
    block = np.searchsorted(restart_pos, np.arange(n), side="right") - 1
    offset = np.arange(n) - restart_pos[block]
    return (starts[restart_pos[block]] + offset) % n


def stationary_bootstrap_threshold(
    values: DataMatrix | np.ndarray,
    statistic: Callable[[np.ndarray], np.ndarray],
    config: BootstrapConfig = BootstrapConfig(),
) -> float:
    """Empirical quantile of the statistic over stationary-bootstrap resamples.

    statistic is called once, with the (num_replicates, n, p) stack of all
    resamples in the order they are drawn, and returns one value per
    resample, so it can batch work across them.  Requires at least ten
    expected block lengths of data so a resample mixes more than a couple of
    blocks.  Each call builds its own generator from config.seed, so equal
    inputs give equal thresholds.
    """
    if isinstance(values, DataMatrix):
        values = values.values
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"data must be two-dimensional, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 10 * config.expected_block_length:
        raise ValueError(
            f"need n >= 10 * expected block length, got n={n} "
            f"with block length {config.expected_block_length}"
        )
    rng = make_generator(config.seed)
    idx = np.stack([stationary_bootstrap_indices(n, config.expected_block_length, rng)
                    for _ in range(config.num_replicates)])
    stats = np.asarray(statistic(arr[idx]), dtype=np.float64)
    if stats.shape != (config.num_replicates,):
        raise ValueError(
            f"the statistic must return one value per resample, got shape {stats.shape} "
            f"for {config.num_replicates} resamples"
        )
    return float(np.quantile(stats, config.quantile, method="higher"))
