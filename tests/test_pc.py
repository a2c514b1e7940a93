"""Skeleton search, orientation, and the assembled discovery routine."""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspc.citests import CiOutcome, CiQuery, CiTestError, GaussianCiConfig, HsicConfig
from tspc.citests.gaussian import gaussian_ci_tests
from tspc.graphs import Dag, Pdag, d_separated, roll
from tspc.pc import (
    CiQueryError,
    PcConfig,
    decisions_to_csv,
    find_skeleton,
    oracle_ci,
    orient,
    pc,
    pc_segments,
    sepset_key,
)
from tspc.rng import derive_seed, make_generator
from tspc.simulate import SimConfig, generate
from tspc.tpc import TpcnsConfig, tpcns

from .oracles import consensus_cpdag_oracle, population_pc, random_dag, sem_covariance

MOTIF = Dag(4, frozenset({(0, 2), (1, 2), (2, 3)}))


class TestConfig:
    def test_unknown_backend(self):
        with pytest.raises(TypeError, match="GaussianCiConfig, HsicConfig or Dag"):
            PcConfig("tarot")

    def test_default_is_fisher_z_at_alpha_005(self):
        assert PcConfig().test == GaussianCiConfig(alpha=0.05)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            PcConfig(max_cond_size=-1)


class TestFindSkeleton:
    def test_motif_oracle(self):
        skeleton, seps = find_skeleton(oracle_ci(MOTIF), 4)
        assert skeleton.undirected == frozenset({(0, 2), (1, 2), (2, 3)})
        assert seps[sepset_key(0, 1)] == ()
        assert 2 in seps[sepset_key(0, 3)]
        assert 2 in seps[sepset_key(1, 3)]

    def test_empty_graph_all_removed_at_level_zero(self):
        skeleton, seps = find_skeleton(oracle_ci(Dag(4)), 4)
        assert skeleton.undirected == frozenset()
        assert all(s == () for s in seps.values())
        assert len(seps) == 6

    def test_complete_graph_keeps_everything(self):
        complete = Dag(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        skeleton, seps = find_skeleton(oracle_ci(complete), 3)
        assert skeleton.undirected == frozenset({(0, 1), (0, 2), (1, 2)})
        assert seps == {}

    def test_max_cond_size_zero_stops_after_marginals(self):
        skeleton, _ = find_skeleton(oracle_ci(MOTIF), 4, PcConfig(max_cond_size=0))
        # 0-3 and 1-3 need a size-1 separating set, so they survive the cap
        assert (0, 3) in skeleton.undirected
        assert (1, 3) in skeleton.undirected

    def test_ci_failure_carries_query(self):
        def broken(query: CiQuery) -> CiOutcome:
            if query.k:
                raise CiTestError("synthetic failure")
            return CiOutcome(1.0, 0.5)

        with pytest.raises(CiQueryError) as err:
            find_skeleton(broken, 3)
        assert err.value.query.k != ()
        assert "synthetic failure" in str(err.value)

    def test_decision_log_levels_are_monotone(self):
        log: list[tuple[CiQuery, CiOutcome]] = []
        find_skeleton(oracle_ci(MOTIF), 4, PcConfig(), log)
        sizes = [len(q.k) for q, _ in log]
        assert sizes == sorted(sizes)
        assert max(sizes) <= 2  # p - 2

    def test_replay_reproduces_the_exact_query_sequence(self):
        # the query stream is a pure function of the answers, so feeding the
        # recorded answers back must reproduce the run decision for decision
        log: list[tuple[CiQuery, CiOutcome]] = []
        skeleton, seps = find_skeleton(oracle_ci(MOTIF), 4, PcConfig(), log)

        answers = dict(log)
        replay_log: list[tuple[CiQuery, CiOutcome]] = []

        def replayed(query: CiQuery) -> CiOutcome:
            return answers[query]

        skeleton2, seps2 = find_skeleton(replayed, 4, PcConfig(), replay_log)
        assert skeleton2 == skeleton
        assert seps2 == seps
        assert replay_log == log

    @pytest.mark.parametrize("stable", [False, True])
    def test_log_holds_the_very_query_and_outcome(self, stable):
        # one record per test: the log entry is the query object ci received
        # and the outcome object it returned, not a copy of either
        seen: list[tuple[CiQuery, CiOutcome]] = []
        answer = oracle_ci(MOTIF)

        def ci(query: CiQuery) -> CiOutcome:
            seen.append((query, answer(query)))
            return seen[-1][1]

        log: list[tuple[CiQuery, CiOutcome]] = []
        find_skeleton(ci, 4, PcConfig(stable=stable), log)
        assert len(log) == len(seen) > 0
        for (query, outcome), (asked, answered) in zip(log, seen):
            assert query is asked
            assert outcome is answered

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), stable=st.booleans())
    def test_oracle_result_ignores_node_labels(self, seed, stable):
        # with exact separation facts the search finds the same graph under
        # any relabelling of the nodes, whatever order it visits them in
        rng = make_generator(derive_seed(9310, seed))
        g = random_dag(rng, int(rng.integers(3, 7)), edge_prob=0.4)
        perm = [int(v) for v in rng.permutation(g.p)]  # old label -> new label
        back = {new: old for old, new in enumerate(perm)}
        relabelled = Dag(g.p, frozenset((perm[u], perm[v]) for u, v in g.edges))
        found = population_pc(relabelled, stable=stable)
        mapped = Pdag(
            g.p,
            frozenset((back[u], back[v]) for u, v in found.directed),
            frozenset((back[u], back[v]) for u, v in found.undirected),
        )
        assert mapped == population_pc(g, stable=stable)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_recorded_sepsets_actually_separate(self, seed):
        rng = make_generator(derive_seed(9300, seed))
        g = random_dag(rng, int(rng.integers(3, 7)), edge_prob=0.4)
        _, seps = find_skeleton(oracle_ci(g), g.p)
        for (i, j), s in seps.items():
            assert d_separated(g, {i}, {j}, set(s))


class TestOrient:
    def test_collider_from_empty_sepset(self):
        skel = Pdag(3, undirected=frozenset({(0, 2), (1, 2)}))
        out = orient(skel, {(0, 1): ()})
        assert out.directed == frozenset({(0, 2), (1, 2)})
        assert out.undirected == frozenset()

    def test_chain_stays_undirected(self):
        skel = Pdag(3, undirected=frozenset({(0, 1), (1, 2)}))
        out = orient(skel, {(0, 2): (1,)})
        assert out.directed == frozenset()
        assert out.undirected == frozenset({(0, 1), (1, 2)})

    def test_collider_then_meek_rule_one(self):
        skel = Pdag(4, undirected=frozenset({(0, 2), (1, 2), (2, 3)}))
        seps = {(0, 1): (), (0, 3): (2,), (1, 3): (2,)}
        out = orient(skel, seps)
        assert out.directed == frozenset({(0, 2), (1, 2), (2, 3)})

    def test_conflicting_demands_cancel_with_diagnostic(self):
        # a 4-cycle with both diagonals separated by the empty set demands
        # every edge in both directions; all demands cancel and no
        # propagation rule can fire on an arrowless graph
        skel = Pdag(4, undirected=frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
        seps = {(0, 2): (), (1, 3): ()}
        diagnostics: list[str] = []
        out = orient(skel, seps, diagnostics)
        assert out.directed == frozenset()
        assert out.undirected == skel.undirected
        assert len(diagnostics) == 4
        assert all("left undirected" in d for d in diagnostics)

    def test_conflicted_edge_may_be_reoriented_by_propagation(self):
        # cancellation applies to the collider phase; the closure afterwards
        # may still direct the edge, and the diagnostic records the fight
        skel = Pdag(4, undirected=frozenset({(0, 1), (1, 2), (2, 3)}))
        seps = {(0, 2): (), (1, 3): (), (0, 3): ()}
        diagnostics: list[str] = []
        out = orient(skel, seps, diagnostics)
        assert any("1-2" in d or "2-3" in d for d in diagnostics)
        # no pair is directed both ways
        assert not any((b, a) in out.directed for a, b in out.directed)

    def test_missing_sepset_entry_rejected(self):
        skel = Pdag(3, undirected=frozenset({(0, 2), (1, 2)}))
        with pytest.raises(ValueError, match="missing"):
            orient(skel, {})

    def test_entry_for_adjacent_pair_rejected(self):
        skel = Pdag(2, undirected=frozenset({(0, 1)}))
        with pytest.raises(ValueError, match="adjacent"):
            orient(skel, {(0, 1): ()})

    @pytest.mark.parametrize("seps", [
        {(0, 1): (), (1, 0): (2,)},
        {(1, 0): (2,), (0, 1): ()},
    ])
    def test_pair_given_two_different_sets_rejected(self, seps):
        # either set alone decides the collider 1->3<-2, so neither may win by its place
        skel = Pdag(3, undirected=frozenset({(0, 2), (1, 2)}))
        with pytest.raises(ValueError, match=r"two different separating sets for \(1, 2\)"):
            orient(skel, seps)

    def test_pair_given_one_set_twice_accepted(self):
        skel = Pdag(3, undirected=frozenset({(0, 2), (1, 2)}))
        out = orient(skel, {(0, 1): (), (1, 0): []})
        assert out.directed == frozenset({(0, 2), (1, 2)})

    def test_skeleton_with_arrows_rejected(self):
        with pytest.raises(ValueError, match="no arrows"):
            orient(Pdag(3, directed=frozenset({(0, 2)}), undirected=frozenset({(1, 2)})),
                   {(0, 1): ()})

    def test_first_missing_pair_named(self):
        # (0, 3), (1, 2) and (1, 3) are missing; the error names the first, 1-based
        skel = Pdag(4, undirected=frozenset({(0, 1)}))
        with pytest.raises(ValueError, match=r"missing non-adjacent pair \(1, 4\)"):
            orient(skel, {(3, 2): (), (2, 0): ()})

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_table_read_whatever_its_key_order_and_set_type(self, seed):
        rng = make_generator(derive_seed(9450, seed))
        g = random_dag(rng, int(rng.integers(3, 8)), edge_prob=0.4)
        skeleton, seps = find_skeleton(oracle_ci(g), g.p, PcConfig(g))
        reversed_table = {(j, i): list(reversed(s)) for (i, j), s in seps.items()}
        assert orient(skeleton, reversed_table) == orient(skeleton, seps)


class TestPopulationPc:
    def test_motif_fully_oriented(self):
        out = population_pc(MOTIF)
        assert out.directed == frozenset({(0, 2), (1, 2), (2, 3)})

    def test_empty_graph(self):
        out = population_pc(Dag(3))
        assert out == Pdag(3)

    def test_single_edge_undirected(self):
        out = population_pc(Dag(2, frozenset({(0, 1)})))
        assert out.undirected == frozenset({(0, 1)})

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_equals_equivalence_summary(self, seed):
        rng = make_generator(derive_seed(9400, seed))
        g = random_dag(rng, int(rng.integers(2, 7)), edge_prob=0.4)
        assert population_pc(g) == Pdag(g.p, *consensus_cpdag_oracle(g))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_stable_mode_matches_default_on_oracle(self, seed):
        rng = make_generator(derive_seed(9500, seed))
        g = random_dag(rng, int(rng.integers(2, 7)), edge_prob=0.4)
        assert population_pc(g, stable=True) == population_pc(g)


class TestSamplePc:
    def test_contemporaneous_edges_found_every_seed(self):
        # collider pair lands in the output of all 25 runs once undirected
        # survivors are read as either orientation
        hits_02 = hits_12 = 0
        for rep in range(25):
            data = generate(
                SimConfig(paradigm="ContemporaneousVARMA", eta=1.0, n=1000, seed=derive_seed(0, rep))
            )
            result = pc(data, PcConfig(GaussianCiConfig(alpha=0.05)))
            rolled = roll(result.pdag, 4, 1).edges
            hits_02 += (0, 2) in rolled
            hits_12 += (1, 2) in rolled
        assert hits_02 == 25
        assert hits_12 == 25

    def test_lagged_only_data_yields_nearly_empty_graphs(self):
        # all effects are across time, so row-wise search sees independence
        sparse = 0
        for rep in range(25):
            data = generate(
                SimConfig(paradigm="LinearGaussianVAR", eta=1.0, n=1000, seed=derive_seed(0, rep))
            )
            g = pc(data, PcConfig(GaussianCiConfig(alpha=0.01))).pdag
            sparse += (len(g.directed) + len(g.undirected)) <= 1
        assert sparse >= 23  # >= 90% of 25

    def test_chain_error_rate_decays_with_n(self):
        # fixed threshold below the smallest population statistic: the
        # probability of any wrong decision falls as the sample grows
        chain_target = Pdag(3, *consensus_cpdag_oracle(Dag(3, frozenset({(0, 1), (1, 2)}))))
        gamma = 0.8 * 0.5 * math.log(3.0)  # 0.8 * atanh(0.5)
        rates = []
        for n in (100, 400, 1600):
            errors = 0
            for seed in range(100):
                rng = make_generator(derive_seed(44, n, seed))
                x = rng.normal(size=n)
                y = x + rng.normal(size=n)
                z = y + rng.normal(size=n)
                g = pc(
                    np.column_stack([x, y, z]),
                    PcConfig(GaussianCiConfig(gamma=gamma)),
                ).pdag
                errors += g != chain_target
            rates.append(errors / 100.0)
        assert rates[0] >= rates[1] >= rates[2]
        assert rates[2] == 0.0

    def test_decisions_logged_with_pc(self):
        rng = make_generator(90)
        result = pc(rng.normal(size=(200, 3)), PcConfig(GaussianCiConfig(alpha=0.05)))
        assert len(result.decisions) >= 3
        for query, outcome in result.decisions:
            assert isinstance(query, CiQuery)
            assert isinstance(outcome, CiOutcome)

    @pytest.mark.parametrize("n,p,test,cap", [
        pytest.param(8, 7, GaussianCiConfig(alpha=0.6), 4, id="8-7"),
        pytest.param(6, 8, GaussianCiConfig(alpha=0.6), 2, id="6-8"),
        pytest.param(4, 6, GaussianCiConfig(gamma=1e-9), 2, id="4-6-gamma"),
    ])
    def test_short_sample_caps_conditioning_size(self, n, p, test, cap):
        # alpha 0.6 puts the threshold below zero and gamma 1e-9 near it, so
        # no edge is removed and the search would reach sets of size p - 2:
        # past n - 4 at level alpha, past n - 2 (no residual variance left)
        # at a fixed gamma
        result = pc(make_generator(derive_seed(92, n)).normal(size=(n, p)), PcConfig(test))
        assert max(len(q.k) for q, _ in result.decisions) == cap
        assert any("capped at size" in line for line in result.diagnostics)

    def test_fewer_than_four_rows_named(self):
        with pytest.raises(ValueError, match="at least 4 rows, got 3"):
            pc(make_generator(93).normal(size=(3, 4)), PcConfig(GaussianCiConfig(alpha=0.05)))

    def test_hsic_backend_requires_threshold_policy(self):
        # rejected when the config is built, before any query runs
        with pytest.raises(ValueError, match="HsicConfig.gamma"):
            PcConfig(HsicConfig())
        PcConfig(HsicConfig(gamma=0.1))

    @pytest.mark.parametrize("test", [GaussianCiConfig(alpha=0.05), HsicConfig(gamma=0.1),
                                      MOTIF])
    def test_empty_batch_yields_nothing(self, test):
        assert list(pc_segments([], PcConfig(test))) == []

    @pytest.mark.parametrize("truth,p", [(Dag(3), 4), (Dag(3, {(0, 2), (2, 1)}), 2)])
    def test_oracle_graph_must_match_data_width(self, truth, p):
        # a wider graph used to fail deep in d_separated, a narrower one to
        # search the first columns of the graph silently
        with pytest.raises(ValueError, match=f"3 nodes but the data has {p} columns"):
            pc(np.zeros((10, p)), PcConfig(truth))

    @pytest.mark.parametrize("shape", [(10, 4), (9, 3)])
    def test_segments_must_share_one_shape(self, shape):
        # the search reads n and p off the first segment
        segments = [np.zeros((10, 3)), np.ones(shape)]
        with pytest.raises(ValueError, match=r"the shape \(10, 3\) of the first"):
            next(pc_segments(segments, PcConfig(HsicConfig(gamma=0.1))))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_stable_skeleton_ignores_column_order(self, seed):
        # PC-stable fixes every pool at the start of a level, so the sample
        # skeleton cannot depend on the visit order, and so not on the order
        # of the columns either; without stable it can
        rng = make_generator(derive_seed(9700, seed))
        p = int(rng.integers(4, 8))
        cov = sem_covariance(random_dag(rng, p, 0.4), rng)
        values = rng.normal(size=(100, p)) @ np.linalg.cholesky(cov).T
        order = [int(v) for v in rng.permutation(p)]  # new column c is old column order[c]
        base = pc(values, PcConfig(stable=True)).pdag.neighbours()
        permuted = pc(values[:, order], PcConfig(stable=True)).pdag.neighbours()
        assert {order[a]: {order[b] for b in nbrs} for a, nbrs in permuted.items()} == base


class TestDecisionCsv:
    def test_format(self):
        rows = [
            (CiQuery(0, 2, (1,)), CiOutcome(0.25, 0.5)),
            (CiQuery(1, 3), CiOutcome(1.0, 0.5)),
        ]
        text = decisions_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "i,j,k,statistic,threshold,independent"
        assert lines[1] == "1,3,2,0.25,0.5,true"
        assert lines[2] == "2,4,,1.0,0.5,false"


class TestDecisionLog:
    def test_reads_as_the_pairs_find_skeleton_logs_into_a_list(self):
        # pc() keeps level 0 as its table; find_skeleton on the same
        # answerer without the table asks every query and logs each pair
        values = make_generator(9310).normal(size=(40, 5))
        values[:, 4] += values[:, 0] + values[:, 1]
        config = PcConfig(GaussianCiConfig(alpha=0.05))
        decisions = pc(values, config).decisions
        pairs: list = []
        ci, _ = next(gaussian_ci_tests([values], config.test))
        find_skeleton(ci, 5, config, pairs)
        assert max(len(q.k) for q, _ in pairs) >= 1
        assert decisions == tuple(pairs) and tuple(pairs) == decisions
        assert len(decisions) == len(pairs)
        assert (decisions[0], decisions[-1], decisions[2:5]) == (pairs[0], pairs[-1],
                                                                 tuple(pairs[2:5]))
        assert list(decisions) == pairs
        assert decisions_to_csv(decisions) == decisions_to_csv(pairs)
        assert type(decisions) is tuple
        assert hash(decisions) == hash(tuple(pairs))
        assert decisions + () == tuple(pairs)

    def test_an_unread_log_builds_no_level_0_queries(self, monkeypatch):
        # a gamma no statistic reaches removes every edge at level 0, so the
        # only queries are level-0 ones, built when a log is read
        pc_module = importlib.import_module("tspc.pc")
        built = []
        real = pc_module.CiQuery
        monkeypatch.setattr(pc_module, "CiQuery", lambda *args: built.append(args) or real(*args))
        config = PcConfig(GaussianCiConfig(gamma=10.0))
        data = generate(SimConfig(paradigm="LinearGaussianVAR", eta=1.0, n=200, seed=3))
        tpcns(data, TpcnsConfig(window_length=30, num_subsamples=5, pc=config))
        result = pc(data, config)
        assert built == [] and result.pdag.undirected == frozenset()
        assert len(result.decisions) == len(built) == 6
