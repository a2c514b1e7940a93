"""Stationary-bootstrap resampling and threshold calibration."""

from __future__ import annotations

import numpy as np
import pytest

from tspc.citests import BootstrapConfig, stationary_bootstrap_threshold
from tspc.citests.bootstrap import stationary_bootstrap_indices
from tspc.data import DataMatrix
from tspc.rng import derive_seed, make_generator


def abs_corr(values: np.ndarray) -> float:
    return float(abs(np.corrcoef(values[:, 0], values[:, 1])[0, 1]))


def abs_corrs(resamples: np.ndarray) -> np.ndarray:
    """abs_corr of each resample in the stack the threshold passes."""
    return np.array([abs_corr(values) for values in resamples])


class TestConfig:
    def test_zero_replicates_rejected(self):
        with pytest.raises(ValueError):
            BootstrapConfig(num_replicates=0)

    def test_block_length_must_exceed_one(self):
        with pytest.raises(ValueError):
            BootstrapConfig(expected_block_length=1.0)

    def test_quantile_range(self):
        with pytest.raises(ValueError):
            BootstrapConfig(quantile=1.5)
        BootstrapConfig(quantile=0.0)
        BootstrapConfig(quantile=1.0)


class TestIndices:
    def test_permutation_of_valid_rows(self):
        rng = make_generator(1)
        idx = stationary_bootstrap_indices(50, 5.0, rng)
        assert idx.shape == (50,)
        assert idx.min() >= 0 and idx.max() < 50

    def test_blocks_are_consecutive_modulo_n(self):
        n = 40
        idx = stationary_bootstrap_indices(n, 8.0, make_generator(2))
        # within a block the index advances by one, wrapping at n
        steps = [(idx[t] - idx[t - 1]) % n for t in range(1, n)]
        assert steps.count(1) >= n // 2  # mean block length 8 keeps most steps consecutive

    def test_deterministic_given_generator_state(self):
        a = stationary_bootstrap_indices(30, 4.0, make_generator(7))
        b = stationary_bootstrap_indices(30, 4.0, make_generator(7))
        assert np.array_equal(a, b)


class TestThreshold:
    def test_single_replicate_is_its_own_quantile(self):
        rng = make_generator(3)
        values = rng.normal(size=(100, 2))
        cfg = BootstrapConfig(num_replicates=1, expected_block_length=5.0, quantile=0.95, seed=11)
        thr = stationary_bootstrap_threshold(values, abs_corrs, cfg)
        idx = stationary_bootstrap_indices(100, 5.0, make_generator(11))
        assert thr == pytest.approx(abs_corr(values[idx]))

    @pytest.mark.parametrize("n,block", [(40, 4.0), (200, 12.5)])
    def test_statistic_gets_the_drawn_resamples_in_order(self, n, block):
        # one call with the (replicates, n, p) stack of exactly the resamples
        # stationary_bootstrap_indices draws from the seed's stream, in order
        values = make_generator(derive_seed(7, n)).normal(size=(n, 3))
        cfg = BootstrapConfig(num_replicates=30, expected_block_length=block, seed=14)
        seen = []

        def record(resamples: np.ndarray) -> np.ndarray:
            seen.append(resamples.copy())
            return resamples[:, 0, 0]

        stationary_bootstrap_threshold(values, record, cfg)
        rng = make_generator(14)
        drawn = [values[stationary_bootstrap_indices(n, block, rng)] for _ in range(30)]
        assert len(seen) == 1
        assert np.array_equal(seen[0], np.stack(drawn))

    def test_statistic_must_give_one_value_per_resample(self):
        values = make_generator(8).normal(size=(60, 2))
        cfg = BootstrapConfig(num_replicates=10, expected_block_length=5.0)
        with pytest.raises(ValueError, match=r"one value per resample, got shape \(\) for 10"):
            stationary_bootstrap_threshold(values, lambda resamples: 0.5, cfg)

    def test_quantile_zero_is_minimum(self):
        rng = make_generator(4)
        values = rng.normal(size=(80, 2))
        base = dict(num_replicates=25, expected_block_length=4.0, seed=12)

        def threshold(quantile: float) -> float:
            return stationary_bootstrap_threshold(values, abs_corrs,
                                                  BootstrapConfig(quantile=quantile, **base))

        assert threshold(0.0) <= threshold(0.5) <= threshold(1.0)

    def test_short_sample_rejected(self):
        values = np.zeros((50, 2))
        cfg = BootstrapConfig(expected_block_length=20.0)
        with pytest.raises(ValueError, match="10"):
            stationary_bootstrap_threshold(values, abs_corrs, cfg)

    def test_accepts_data_matrix(self):
        rng = make_generator(5)
        d = DataMatrix(rng.normal(size=(60, 2)))
        cfg = BootstrapConfig(num_replicates=10, expected_block_length=5.0, seed=13)
        thr_matrix = stationary_bootstrap_threshold(d, abs_corrs, cfg)
        thr_array = stationary_bootstrap_threshold(d.values, abs_corrs, cfg)
        assert thr_matrix == thr_array

    def test_deterministic_given_seed(self):
        rng = make_generator(6)
        values = rng.normal(size=(120, 2))
        cfg = BootstrapConfig(num_replicates=40, expected_block_length=6.0, quantile=0.9, seed=21)
        a = stationary_bootstrap_threshold(values, abs_corrs, cfg)
        b = stationary_bootstrap_threshold(values, abs_corrs, cfg)
        assert a == b

    def test_null_rejection_rate_near_nominal(self):
        # calibrate on one dataset, reject on fresh null data: near 5%.
        # aggregated over 40 calibration datasets x 10 fresh draws because
        # the threshold itself fluctuates between calibration samples.
        cfg_base = dict(num_replicates=500, expected_block_length=20.0, quantile=0.95)
        rejections = 0
        for b in range(40):
            rng = make_generator(derive_seed(60, b))
            base = rng.normal(size=(500, 2))
            thr = stationary_bootstrap_threshold(
                base, abs_corrs, BootstrapConfig(seed=derive_seed(61, b), **cfg_base)
            )
            for s in range(10):
                fresh = make_generator(derive_seed(62, b, s)).normal(size=(500, 2))
                rejections += abs_corr(fresh) > thr
        rate = 100.0 * rejections / 400.0
        assert 2.0 <= rate <= 8.0
