"""Benchmark data generators: noise-free limits, moments, reproducibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspc.graphs import RolledGraph
from tspc.rng import derive_seed
from tspc.simulate import (
    PARADIGMS,
    SimConfig,
    gen_contemporaneous_varma,
    gen_ctrnn,
    gen_linear_var,
    gen_nonlinear_var,
    generate,
    ground_truth,
)

from .oracles import gen_linear_var_loop, gen_nonlinear_var_loop

MOTIF = frozenset({(0, 2), (1, 2), (2, 3)})


def cfg(paradigm: str, **kw) -> SimConfig:
    return SimConfig(paradigm=paradigm, **kw)


class TestConfig:
    def test_rejects_unknown_paradigm(self):
        with pytest.raises(ValueError, match="paradigm"):
            SimConfig(paradigm="VAR")

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="eta"):
            cfg("LinearGaussianVAR", eta=-0.1)

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError, match="n"):
            cfg("LinearGaussianVAR", n=0)

    @pytest.mark.parametrize("paradigm,n", [
        ("LinearGaussianVAR", 1),
        ("NonlinearNonGaussianVAR", 1),
        ("ContemporaneousVARMA", 1),
        ("CTRNN", 2),
        ("CTRNN", 3),
        ("CTRNN", 5),
    ])
    def test_rejects_lengths_below_two_rows(self, paradigm, n):
        with pytest.raises(ValueError, match=f"n={n}.* need at least 2"):
            cfg(paradigm, n=n)

    @pytest.mark.parametrize("paradigm,n", [
        ("LinearGaussianVAR", 2),
        ("NonlinearNonGaussianVAR", 2),
        ("ContemporaneousVARMA", 2),
        ("CTRNN", 6),
    ])
    def test_shortest_accepted_length_gives_two_rows(self, paradigm, n):
        assert generate(cfg(paradigm, n=n)).n == 2

    def test_rejects_negative_burn_in(self):
        with pytest.raises(ValueError, match="burn_in"):
            cfg("LinearGaussianVAR", burn_in=-1)


class TestLinearVar:
    def test_noise_free_limit(self):
        d = gen_linear_var(cfg("LinearGaussianVAR", eta=0.0, n=20))
        v = d.values
        np.testing.assert_array_equal(v[:, 0], 1.0)
        np.testing.assert_array_equal(v[:, 1], -1.0)
        # one step after the drives settle, 2*1 + (-1) = 1 feeds variable 3
        np.testing.assert_array_equal(v[1:, 2], 1.0)
        np.testing.assert_array_equal(v[2:, 3], 2.0)

    def test_column_means_match_drives(self):
        d = gen_linear_var(cfg("LinearGaussianVAR", eta=1.0, n=10_000, seed=derive_seed(300, 0)))
        assert abs(d.values[:, 0].mean() - 1.0) < 0.05
        assert abs(d.values[:, 1].mean() + 1.0) < 0.05

    def test_halves_agree_in_mean(self):
        # crude stationarity check: split a long run and compare column
        # means on the two-sample z scale (measured max 0.95 at this seed)
        d = gen_linear_var(cfg("LinearGaussianVAR", eta=1.0, n=10_000, seed=derive_seed(300, 0)))
        a, b = d.values[:5000], d.values[5000:]
        se = np.sqrt(a.var(0, ddof=1) / 5000 + b.var(0, ddof=1) / 5000)
        assert np.all(np.abs(a.mean(0) - b.mean(0)) <= 3 * se)


class TestNonlinearVar:
    def test_driver_columns_stay_on_uniform_support(self):
        eta = 1.5
        d = gen_nonlinear_var(cfg("NonlinearNonGaussianVAR", eta=eta, n=2000, seed=1))
        assert d.values[:, 0].min() >= 0.0 and d.values[:, 0].max() <= eta
        assert d.values[:, 1].min() >= 0.0 and d.values[:, 1].max() <= eta

    def test_driven_columns_respect_amplitude_bounds(self):
        eta = 1.0
        d = gen_nonlinear_var(cfg("NonlinearNonGaussianVAR", eta=eta, n=2000, seed=2))
        # 4 sin + 3 cos lies in [-7, 7]; 2 sin lies in [-2, 2]; noise adds eta
        assert np.all(d.values[:, 2] >= -7.0) and np.all(d.values[:, 2] <= 7.0 + eta)
        assert np.all(d.values[:, 3] >= -2.0) and np.all(d.values[:, 3] <= 2.0 + eta)


class TestContemporaneousVarma:
    def test_noise_free_recursion(self):
        d = gen_contemporaneous_varma(cfg("ContemporaneousVARMA", eta=0.0, n=20))
        v = d.values
        np.testing.assert_array_equal(v[0], [1.0, -1.0, 1.0, 2.0])
        np.testing.assert_allclose(v[1:, 2], 1.0 + 2.0 * v[:-1, 0] + v[:-1, 1])
        np.testing.assert_allclose(v[1:, 3], 2.0 + 2.0 * v[:-1, 2])

    def test_contemporaneous_coupling_covariance(self):
        # the same-time mixing gives cov(X1, X3) = 2 eta^2 at fixed t
        # (measured 1.985 at this seed, n = 20000)
        d = gen_contemporaneous_varma(
            cfg("ContemporaneousVARMA", eta=1.0, n=20_000, seed=derive_seed(301, 0))
        )
        c = np.cov(d.values[:, 0], d.values[:, 2])[0, 1]
        assert abs(c - 2.0) < 0.15


class TestCtrnn:
    def test_sample_count_for_one_second(self):
        d = gen_ctrnn(cfg("CTRNN", eta=1.0, n=1000, seed=4))
        assert d.n == math.floor(1000 / math.e) == 367
        assert d.p == 4

    def test_unit_drive_washout(self):
        # units 1 and 2 have no incoming weights, so under a constant unit
        # drive u follows 1 - exp(-t / tau) and every sample past 50 ms sits
        # within 1% of the fixed point
        d = gen_ctrnn(cfg("CTRNN", eta=0.0, n=1000, seed=0))
        times = (np.arange(1, d.n + 1)) * math.e
        late = d.values[times > 50.0][:, :2]
        assert np.all(np.abs(late - 1.0) <= 0.01)
        assert np.all(np.abs(d.values[0, :2] - (1.0 - math.exp(-times[0] / 10.0))) < 0.01)

    def test_rejects_duration_shorter_than_gap(self):
        with pytest.raises(ValueError, match="too short"):
            gen_ctrnn(cfg("CTRNN", n=2))


class TestGroundTruth:
    def test_discrete_paradigms_share_the_motif(self):
        for paradigm in PARADIGMS[:3]:
            assert ground_truth(paradigm) == RolledGraph(4, MOTIF)

    def test_recurrent_network_adds_self_loops(self):
        loops = frozenset({(v, v) for v in range(4)})
        assert ground_truth("CTRNN") == RolledGraph(4, MOTIF | loops)

    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="paradigm"):
            ground_truth("GRU")


class TestReproducibility:
    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_same_config_same_bits(self, paradigm):
        a = generate(cfg(paradigm, eta=1.0, n=300, seed=123))
        b = generate(cfg(paradigm, eta=1.0, n=300, seed=123))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_seed_changes_output(self, paradigm):
        a = generate(cfg(paradigm, eta=1.0, n=300, seed=123))
        b = generate(cfg(paradigm, eta=1.0, n=300, seed=124))
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("paradigm", PARADIGMS)
    def test_shapes_and_finiteness(self, paradigm):
        d = generate(cfg(paradigm, eta=0.5, n=500, seed=9))
        rows = math.floor(500 / math.e) if paradigm == "CTRNN" else 500
        assert (d.n, d.p) == (rows, 4)
        assert np.all(np.isfinite(d.values))

    def test_burn_in_drops_leading_rows(self):
        long = gen_linear_var(cfg("LinearGaussianVAR", eta=1.0, n=130, seed=7))
        trimmed = gen_linear_var(cfg("LinearGaussianVAR", eta=1.0, n=100, seed=7, burn_in=30))
        assert np.array_equal(trimmed.values, long.values[30:])

    def test_dispatch_matches_direct_generators(self):
        pairs = [
            ("LinearGaussianVAR", gen_linear_var),
            ("NonlinearNonGaussianVAR", gen_nonlinear_var),
            ("ContemporaneousVARMA", gen_contemporaneous_varma),
            ("CTRNN", gen_ctrnn),
        ]
        for paradigm, fn in pairs:
            c = cfg(paradigm, eta=1.0, n=200, seed=31)
            assert np.array_equal(generate(c).values, fn(c).values)


class TestColumnwiseRecursions:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 3000),
           burn_in=st.integers(0, 100), eta=st.floats(0.0, 2.0))
    def test_match_the_row_by_row_recursions(self, seed, n, burn_in, eta):
        # each column over the whole series gives the bytes the recursion gives
        for paradigm, fast, loop in [
            ("LinearGaussianVAR", gen_linear_var, gen_linear_var_loop),
            ("NonlinearNonGaussianVAR", gen_nonlinear_var, gen_nonlinear_var_loop),
        ]:
            c = cfg(paradigm, eta=eta, n=n, seed=seed, burn_in=burn_in)
            assert fast(c).values.tobytes() == loop(c).values.tobytes()
