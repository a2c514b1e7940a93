"""Edge-level confusion counting and the percentage metrics built on it."""

import pytest
from hypothesis import given, settings, strategies as st

from tspc.evaluate import (
    EdgeConfusion,
    MetricsReport,
    aggregate,
    confusion,
    edge_frequency,
    metrics,
)
from tspc.graphs import RolledGraph
from tspc.rng import derive_seed, make_generator

from .oracles import confusion_loop, edge_frequency_loop

MOTIF = RolledGraph(4, frozenset({(0, 2), (1, 2), (2, 3)}))


def random_rolled(rng, p: int) -> RolledGraph:
    edges = {
        (u, v) for u in range(p) for v in range(p) if rng.random() < 0.3
    }
    return RolledGraph(p, frozenset(edges))


class TestEdgeConfusion:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="tp"):
            EdgeConfusion(-1, 0, 0, 0)

    def test_rejects_fractional_counts(self):
        with pytest.raises(ValueError, match="fp"):
            EdgeConfusion(0, 0.5, 0, 0)


class TestConfusion:
    def test_perfect_recovery_on_sixteen_edge_universe(self):
        assert confusion(MOTIF, MOTIF) == EdgeConfusion(3, 0, 13, 0)

    def test_empty_estimate(self):
        empty = RolledGraph(4, frozenset())
        assert confusion(empty, MOTIF) == EdgeConfusion(0, 0, 13, 3)

    def test_reversed_edges_cost_twice(self):
        reverse = RolledGraph(4, frozenset((v, u) for u, v in MOTIF.edges))
        assert confusion(reverse, MOTIF) == EdgeConfusion(0, 3, 10, 3)

    def test_self_loops_excluded_shrinks_universe(self):
        c = confusion(MOTIF, MOTIF, include_self_loops=False)
        assert c == EdgeConfusion(3, 0, 9, 0)
        assert c.tp + c.fp + c.tn + c.fn == 12

    def test_rejects_p_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            confusion(MOTIF, RolledGraph(5, frozenset()))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_universe_partition(self, seed):
        rng = make_generator(derive_seed(9700, seed))
        p = int(rng.integers(2, 6))
        est, truth = random_rolled(rng, p), random_rolled(rng, p)
        loops = bool(rng.integers(2))
        c = confusion(est, truth, include_self_loops=loops)
        assert c.tp + c.fp + c.tn + c.fn == (p * p if loops else p * p - p)
        assert c.tp + c.fn == sum(
            1 for (u, v) in truth.edges if loops or u != v
        )
        assert (c.tp, c.fp, c.tn, c.fn) == confusion_loop(est, truth, loops)


class TestMetrics:
    def test_perfect_counts(self):
        for mode in ("condition-positives", "paper-formula"):
            r = metrics(EdgeConfusion(3, 0, 13, 0), tpr_mode=mode)
            assert (r.tpr, r.ifpr, r.fpr, r.cs) == (100.0, 100.0, 0.0, 100.0)

    def test_pooled_sweep_scores(self):
        # 25 pooled motif runs, 400 candidate edges, 14 false alarms
        r = metrics(EdgeConfusion(75, 14, 311, 0))
        assert r.tpr == 100.0
        assert round(r.ifpr, 1) == 95.7
        assert round(r.cs, 1) == 95.7

    def test_pairwise_test_pattern(self):
        r = metrics(EdgeConfusion(0, 1, 12, 3))
        assert r.tpr == 0.0
        assert round(r.ifpr, 1) == 92.3
        assert round(r.cs, 1) == -7.7

    def test_modes_differ_on_false_positives(self):
        c = EdgeConfusion(3, 1, 12, 0)
        assert metrics(c).tpr == 100.0
        assert metrics(c, tpr_mode="paper-formula").tpr == 75.0

    def test_undefined_tpr_reported_as_none(self):
        r = metrics(EdgeConfusion(0, 1, 12, 0))
        assert r.tpr is None
        assert r.cs is None
        assert r.fpr is not None

    def test_undefined_fpr_reported_as_none(self):
        r = metrics(EdgeConfusion(1, 0, 0, 0))
        assert r.fpr is None and r.ifpr is None and r.cs is None
        assert r.tpr == 100.0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="tpr_mode"):
            metrics(EdgeConfusion(1, 0, 1, 0), tpr_mode="recall")

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError, match="100 - fpr"):
            MetricsReport(100.0, 90.0, 5.0, 95.0, "condition-positives")
        with pytest.raises(ValueError, match="cs"):
            MetricsReport(100.0, 95.0, 5.0, None, "condition-positives")

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_identities_hold(self, seed):
        rng = make_generator(derive_seed(9800, seed))
        tp, fp, tn, fn = (int(x) for x in rng.integers(0, 20, size=4))
        r = metrics(EdgeConfusion(tp, fp, tn, fn))
        if r.ifpr is not None:
            assert abs(r.ifpr + r.fpr - 100.0) < 1e-9
        if r.cs is not None:
            assert abs(r.cs - (r.tpr - r.fpr)) < 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_relabeling_invariance(self, seed):
        rng = make_generator(derive_seed(9900, seed))
        p = int(rng.integers(2, 6))
        est, truth = random_rolled(rng, p), random_rolled(rng, p)
        perm = rng.permutation(p)
        relabel = lambda g: RolledGraph(
            p, frozenset((int(perm[u]), int(perm[v])) for u, v in g.edges)
        )
        assert metrics(confusion(est, truth)) == metrics(
            confusion(relabel(est), relabel(truth))
        )

    def test_complement_estimate_has_no_true_positives(self):
        universe = {(u, v) for u in range(4) for v in range(4)}
        complement = RolledGraph(4, frozenset(universe - MOTIF.edges))
        c = confusion(complement, MOTIF)
        assert c.tp == 0
        assert c.fn == 3
        assert c.fp == 13


class TestAggregate:
    def test_doubles_every_field(self):
        c = EdgeConfusion(3, 1, 11, 1)
        assert aggregate([c, c]) == EdgeConfusion(6, 2, 22, 2)

    def test_twenty_five_perfect_runs(self):
        pooled = aggregate([confusion(MOTIF, MOTIF)] * 25)
        assert pooled == EdgeConfusion(75, 0, 325, 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate([])


class TestEdgeFrequency:
    def test_percentages_over_runs(self):
        always = MOTIF
        mostly = RolledGraph(4, frozenset({(0, 2), (1, 2)}))
        runs = [always] * 23 + [mostly] * 2
        freq = edge_frequency(runs, 4)
        assert freq[(0, 2)] == 100.0
        assert freq[(2, 3)] == 92.0
        assert freq[(3, 3)] == 0.0
        # the whole 16-pair universe is present, zeros included
        assert len(freq) == 16

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_equals_pair_by_pair_loop(self, seed):
        rng = make_generator(derive_seed(9710, seed))
        p = int(rng.integers(1, 6))
        runs = [random_rolled(rng, p) for _ in range(int(rng.integers(1, 8)))]
        assert edge_frequency(runs, p) == edge_frequency_loop(runs, p)

    def test_rejects_p_mismatch(self):
        with pytest.raises(ValueError, match="p="):
            edge_frequency([MOTIF, RolledGraph(3, frozenset())], 4)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            edge_frequency([], 4)
