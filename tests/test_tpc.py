"""Windowed search on time series: unroll, tpc, forward_time, tpcns."""

import importlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tspc.citests import GaussianCiConfig, HsicConfig
from tspc.data import DataMatrix
from tspc.evaluate import confusion, metrics
from tspc.graphs import Pdag, RolledGraph, cpdag_of, roll, unrolled_time
from tspc.pc import CiQueryError, PcConfig, pc
from tspc.rng import derive_seed, make_generator
from tspc.simulate import SimConfig, generate, ground_truth
from tspc.tpc import (
    TpcnsConfig,
    WindowConfig,
    calibration_rows,
    forward_time,
    frequencies_to_csv,
    tpc,
    tpcns,
    unroll,
)

from .oracles import random_dag

GAUSSIAN = PcConfig(GaussianCiConfig(alpha=0.05))


def linvar(seed: int, n: int = 1000) -> DataMatrix:
    return generate(SimConfig(paradigm="LinearGaussianVAR", eta=1.0, n=n, seed=seed))


class TestWindowConfig:
    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError, match="tau"):
            WindowConfig(tau=0)

    def test_rejects_nonpositive_stride(self):
        with pytest.raises(ValueError, match="stride"):
            WindowConfig(tau=2, r=0)


class TestUnroll:
    def test_ten_rows_depth_two_stride_two(self):
        data = DataMatrix(np.arange(30, dtype=float).reshape(10, 3))
        out = unroll(data, WindowConfig(tau=2, r=2))
        assert out.n == 5
        assert out.p == 6
        # row t is original rows 2t and 2t+1 side by side
        np.testing.assert_array_equal(
            out.values[1], np.concatenate([data.values[2], data.values[3]])
        )
        np.testing.assert_array_equal(
            out.values[4], np.concatenate([data.values[8], data.values[9]])
        )

    def test_depth_one_stride_one_is_identity(self):
        data = DataMatrix(np.arange(12, dtype=float).reshape(4, 3))
        out = unroll(data, WindowConfig(tau=1, r=1))
        np.testing.assert_array_equal(out.values, data.values)
        assert out.names() == data.names()
        assert out is data

    def test_single_series_sliding_pairs(self):
        a, b, c, d, e = 3.0, 1.0, 4.0, 1.0, 5.0
        data = DataMatrix(np.array([[a], [b], [c], [d], [e]]))
        out = unroll(data, WindowConfig(tau=2, r=1))
        np.testing.assert_array_equal(
            out.values, [[a, b], [b, c], [c, d], [d, e]]
        )

    def test_column_layout_matches_offset_blocks(self):
        data = DataMatrix(np.arange(20, dtype=float).reshape(5, 4))
        out = unroll(data, WindowConfig(tau=2, r=2))
        # offset block k holds variables 0..p-1 at window row k
        np.testing.assert_array_equal(out.values[0, :4], data.values[0])
        np.testing.assert_array_equal(out.values[0, 4:], data.values[1])

    def test_too_few_rows_for_depth(self):
        data = DataMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="tau=3"):
            unroll(data, WindowConfig(tau=3, r=1))

    def test_single_window_rejected(self):
        data = DataMatrix(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="at least 2"):
            unroll(data, WindowConfig(tau=3, r=1))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_row_count_formula(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        tau = int(rng.integers(1, min(n, 5) + 1))
        r = int(rng.integers(1, 4))
        count = (n - tau) // r + 1
        data = DataMatrix(rng.normal(size=(n, 2)))
        if count < 2:
            with pytest.raises(ValueError):
                unroll(data, WindowConfig(tau=tau, r=r))
        else:
            assert unroll(data, WindowConfig(tau=tau, r=r)).n == count


class TestCalibrationRows:
    @pytest.mark.parametrize("method", ["pc", "tpcs", "tpcns"])
    def test_rows_each_family_searches(self, method):
        data = linvar(derive_seed(101, 0), n=200)
        window = WindowConfig(tau=2, r=2)
        unrolled = unroll(data, window).values
        args = {"pc": (WindowConfig(tau=1, r=1),), "tpcs": (window,), "tpcns": (window, 30)}
        expected = {"pc": data.values, "tpcs": unrolled, "tpcns": unrolled[:30]}[method]
        assert np.array_equal(calibration_rows(data, *args[method]), expected)


class TestTpc:
    def test_linear_var_recovers_lagged_edges(self):
        # Monte Carlo: depth-2 windows at stride 2 expose the lag-one
        # mechanism, and the gaussian search keeps 1->3 and 3->4 in the
        # rolled graph on every one of 25 independent series (measured
        # 25/25 for both edges at these keys).
        hits_13 = hits_34 = 0
        for rep in range(25):
            res = tpc(linvar(derive_seed(100, rep)), WindowConfig(tau=2, r=2), GAUSSIAN)
            hits_13 += (0, 2) in res.rolled.edges
            hits_34 += (2, 3) in res.rolled.edges
        assert hits_13 == 25
        assert hits_34 == 25

    def test_rolled_is_roll_of_unrolled(self):
        res = tpc(linvar(derive_seed(100, 0)), WindowConfig(tau=2, r=2), GAUSSIAN)
        assert res.rolled == roll(res.pc.pdag, 4, 2)

    @pytest.mark.parametrize("config", [GAUSSIAN, PcConfig(HsicConfig(gamma=0.05, max_rows=100))],
                             ids=["gaussian", "hsic"])
    def test_depth_one_stride_one_is_plain_pc(self, config):
        data = linvar(derive_seed(100, 1), n=300)
        plain = pc(data, config)
        res = tpc(data, WindowConfig(tau=1, r=1), config)
        assert res.pc.decisions == plain.decisions
        assert res.pc.pdag == plain.pdag
        assert res.rolled == roll(plain.pdag, data.p, 1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_oracle_backend_composes_with_roll(self, seed):
        rng = make_generator(derive_seed(9600, seed))
        p = int(rng.integers(2, 4))
        tau = 2
        truth = random_dag(rng, p * tau, 0.4)
        data = DataMatrix(rng.normal(size=(3 + 2 * tau, p)))
        res = tpc(
            data,
            WindowConfig(tau=tau, r=2),
            PcConfig(truth),
        )
        assert res.rolled == roll(cpdag_of(truth), p, tau)

    def test_constant_column_surfaces_ci_error(self):
        vals = np.column_stack([np.full(40, 2.0), np.linspace(0.0, 1.0, 40)])
        with pytest.raises(CiQueryError, match="degenerate"):
            tpc(DataMatrix(vals), WindowConfig(tau=2, r=1), GAUSSIAN)


class TestForwardTime:
    def test_backward_arrow_flipped(self):
        g = Pdag(4, directed=frozenset({(2, 1)}), undirected=frozenset())
        out = forward_time(g, 2)
        assert out.directed == frozenset({(1, 2)})

    def test_forward_and_contemporaneous_kept(self):
        g = Pdag(
            4,
            directed=frozenset({(0, 3), (0, 1)}),
            undirected=frozenset({(2, 3)}),
        )
        out = forward_time(g, 2)
        assert out.directed == g.directed
        assert out.undirected == g.undirected

    def test_idempotent(self):
        g = Pdag(6, directed=frozenset({(4, 0), (5, 1), (0, 1)}), undirected=frozenset())
        once = forward_time(g, 2)
        assert forward_time(once, 2) == once

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 3),
        tau=st.integers(1, 3),
        marks=st.lists(st.integers(0, 3), min_size=36, max_size=36),
    )
    def test_forward_backward_free_skeleton_kept_idempotent(self, p, tau, marks):
        # one mark per node pair: 0 absent, 1 u->v, 2 v->u, 3 undirected
        nodes = p * tau
        pairs = [(u, v) for u in range(nodes) for v in range(u + 1, nodes)]
        directed = set()
        undirected = set()
        for (u, v), mark in zip(pairs, marks):
            if mark == 1:
                directed.add((u, v))
            elif mark == 2:
                directed.add((v, u))
            elif mark == 3:
                undirected.add((u, v))
        g = Pdag(nodes, frozenset(directed), frozenset(undirected))
        out = forward_time(g, p)
        assert all(unrolled_time(u, p) <= unrolled_time(v, p) for u, v in out.directed)
        assert out.skeleton() == g.skeleton()
        assert forward_time(out, p) == out


class TestTpcns:
    def config(self, cutoff: float, seed: int) -> TpcnsConfig:
        return TpcnsConfig(
            window_length=50,
            num_subsamples=50,
            freq_cutoff=cutoff,
            pc=GAUSSIAN,
            window=WindowConfig(tau=2, r=2),
            seed=seed,
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="window length"):
            TpcnsConfig(window_length=1)
        with pytest.raises(ValueError, match="subsample"):
            TpcnsConfig(num_subsamples=0)
        with pytest.raises(ValueError, match="cutoff"):
            TpcnsConfig(freq_cutoff=1.5)

    def test_zero_cutoff_keeps_every_observed_edge(self):
        res = tpcns(linvar(derive_seed(100, 1)), self.config(0.0, seed=7))
        assert set(res.graph.edges) == set(res.frequencies)

    def test_unit_cutoff_keeps_only_unanimous_edges(self):
        res = tpcns(linvar(derive_seed(100, 1)), self.config(1.0, seed=7))
        assert set(res.graph.edges) == {
            e for e, f in res.frequencies.items() if f == 1.0
        }

    def test_linear_var_exact_recovery(self):
        # 50 subsamples of 50 windows at cutoff 0.4: the three true lagged
        # edges are unanimous while spurious edges stay under the cutoff,
        # so the vote recovers the generating graph exactly.
        res = tpcns(
            linvar(derive_seed(100, 0)),
            self.config(0.4, seed=derive_seed(200, 0)),
        )
        truth = ground_truth("LinearGaussianVAR")
        assert res.graph == truth
        report = metrics(confusion(res.graph, truth))
        assert report.tpr == 100.0
        assert report.ifpr == 100.0
        assert report.cs == 100.0

    def test_frequencies_lie_in_unit_interval(self):
        res = tpcns(linvar(derive_seed(100, 2)), self.config(0.4, seed=11))
        assert all(0.0 < f <= 1.0 for f in res.frequencies.values())
        assert set(res.graph.edges) <= set(res.frequencies)

    def test_edge_set_shrinks_as_cutoff_rises(self):
        data = linvar(derive_seed(100, 3))
        low = tpcns(data, self.config(0.2, seed=13))
        high = tpcns(data, self.config(0.6, seed=13))
        assert set(high.graph.edges) <= set(low.graph.edges)
        assert low.frequencies == high.frequencies

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10**6),
        cutoffs=st.lists(
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([k / 8 for k in range(9)])),
            min_size=2, max_size=2,
        ),
    )
    def test_cutoff_only_filters_the_vote(self, seed, cutoffs):
        # the cutoff is applied after voting, so it never moves a frequency
        # and raising it can only drop edges; fractions are multiples of 1/8,
        # so cutoffs on those values exercise ties
        low, high = sorted(cutoffs)
        data = linvar(derive_seed(9800, seed), n=200)
        cfg = TpcnsConfig(window_length=30, num_subsamples=8, freq_cutoff=low, pc=GAUSSIAN,
                          window=WindowConfig(tau=2, r=2), seed=seed)
        a = tpcns(data, cfg)
        b = tpcns(data, replace(cfg, freq_cutoff=high))
        assert a.frequencies == b.frequencies
        assert set(b.graph.edges) <= set(a.graph.edges)
        assert set(a.graph.edges) == {e for e, f in a.frequencies.items() if f >= low}

    def test_normal_quantile_computed_once_per_alpha(self, monkeypatch):
        # Every query's threshold shares Phi^{-1}(1 - alpha); one search
        # over many subsamples asks scipy for it once.
        gaussian = importlib.import_module("tspc.citests.gaussian")
        gaussian._upper_quantile.cache_clear()
        calls = {"ppf": 0, "gamma": 0}
        ppf, gamma = gaussian.stats.norm.ppf, gaussian.gaussian_gamma

        def counting_ppf(*args, **kwargs):
            calls["ppf"] += 1
            return ppf(*args, **kwargs)

        def counting_gamma(*args, **kwargs):
            calls["gamma"] += 1
            return gamma(*args, **kwargs)

        monkeypatch.setattr(gaussian.stats.norm, "ppf", counting_ppf)
        monkeypatch.setattr(gaussian, "gaussian_gamma", counting_gamma)
        cfg = TpcnsConfig(window_length=30, num_subsamples=8, pc=GAUSSIAN,
                          window=WindowConfig(tau=2, r=2), seed=5)
        tpcns(linvar(derive_seed(100, 7), n=200), cfg)
        assert calls["gamma"] > 100
        assert calls["ppf"] == 1

    def test_deterministic_given_seed(self):
        data = linvar(derive_seed(100, 4))
        a = tpcns(data, self.config(0.4, seed=17))
        b = tpcns(data, self.config(0.4, seed=17))
        assert a.graph == b.graph
        assert a.frequencies == b.frequencies
        assert a.starts == b.starts

    def test_short_window_on_wide_data_caps_conditioning(self):
        # 8 unrolled columns on 6-row subsamples: Fisher-z at level alpha can
        # test sets of at most 6 - 4 = 2, and alpha 0.6 never removes an edge
        data = linvar(derive_seed(100, 6), n=100)
        cfg = TpcnsConfig(
            window_length=6, num_subsamples=3, freq_cutoff=0.5,
            pc=PcConfig(GaussianCiConfig(alpha=0.6)),
            window=WindowConfig(tau=2, r=2), seed=23,
        )
        res = tpcns(data, cfg)
        assert res.frequencies and all(f == 1.0 for f in res.frequencies.values())
        assert res.diagnostics == (
            "3 of 3 subsamples: conditioning sets capped at size 2: the Fisher-z "
            "threshold at level alpha needs n - |k| - 3 > 0 and the sample has 6 rows",
        )

    def test_subsample_diagnostics_counted_in_first_seen_order(self, monkeypatch):
        tpc_module = importlib.import_module("tspc.tpc")
        scripted = iter([("a", "b", "a"), ("b",), ("c", "a")])
        real_pc = tpc_module.pc

        def scripted_pc(values, config):
            return replace(real_pc(values, config), diagnostics=next(scripted))

        monkeypatch.setattr(tpc_module, "pc", scripted_pc)
        cfg = TpcnsConfig(num_subsamples=3, pc=GAUSSIAN, window=WindowConfig(tau=2, r=2))
        res = tpcns(linvar(derive_seed(100, 1)), cfg)
        assert res.diagnostics == (
            "2 of 3 subsamples: a", "2 of 3 subsamples: b", "1 of 3 subsamples: c",
        )

    def test_window_longer_than_series_rejected(self):
        data = linvar(derive_seed(100, 5), n=60)
        with pytest.raises(ValueError, match="exceeds"):
            tpcns(data, self.config(0.4, seed=19))


class TestFrequenciesCsv:
    def test_frozen_rendering(self):
        out = frequencies_to_csv({(2, 3): 0.5, (0, 2): 1.0})
        assert out == "from,to,fraction\n1,3,1.0\n3,4,0.5\n"

    def test_empty_map(self):
        assert frequencies_to_csv({}) == "from,to,fraction\n"
