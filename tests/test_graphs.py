"""Graph values, d-separation, equivalence classes, and window rolling."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspc.graphs import (
    Dag,
    Pdag,
    RolledGraph,
    ancestors,
    d_separated,
    graph_from_json,
    is_acyclic,
    meek_closure,
    roll,
    to_dot,
    to_json,
    unrolled_time,
    unrolled_var,
)

from .oracles import (
    ancestors_oracle,
    consensus_cpdag_oracle,
    d_separated_paths,
    equivalence_class_oracle,
    random_dag,
    rolled_edges_of_member,
    v_structures_oracle,
)

MOTIF = Dag(4, frozenset({(0, 2), (1, 2), (2, 3)}))
CHAIN3 = Dag(3, frozenset({(0, 1), (1, 2)}))
COLLIDER = Dag(3, frozenset({(0, 2), (1, 2)}))


def small_dags(seed: int, p_max: int = 6) -> Dag:
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, p_max + 1))
    return random_dag(rng, p, edge_prob=0.4)


class TestDagBasics:
    def test_motif_is_acyclic(self):
        assert is_acyclic(4, MOTIF.edges)

    def test_two_cycle_rejected(self):
        with pytest.raises(ValueError):
            Dag(2, frozenset({(0, 1), (1, 0)}))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Dag(2, frozenset({(1, 1)}))

    def test_longer_cycle_rejected(self):
        assert not is_acyclic(3, {(0, 1), (1, 2), (2, 0)})

    def test_node_out_of_range(self):
        with pytest.raises(ValueError):
            Dag(2, frozenset({(0, 2)}))


class TestAncestors:
    def test_sink_collects_everything(self):
        assert ancestors(MOTIF, {3}) == {0, 1, 2, 3}

    def test_source_is_own_ancestor(self):
        assert ancestors(MOTIF, {0}) == {0}

    def test_two_sources(self):
        assert ancestors(MOTIF, {0, 1}) == {0, 1}

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_matches_fixpoint_oracle(self, seed):
        g = small_dags(seed)
        rng = np.random.default_rng(seed + 1)
        nodes = {int(v) for v in rng.choice(g.p, size=rng.integers(1, g.p + 1), replace=False)}
        assert ancestors(g, nodes) == ancestors_oracle(g, nodes)


class TestDSeparation:
    def test_collider_blocks_marginally(self):
        assert d_separated(COLLIDER, {0}, {1}, set())

    def test_conditioning_on_collider_connects(self):
        assert not d_separated(COLLIDER, {0}, {1}, {2})

    def test_chain_blocked_by_middle(self):
        assert d_separated(CHAIN3, {0}, {2}, {1})

    def test_descendant_of_collider_connects(self):
        # conditioning on 3 opens the collider at 2
        assert not d_separated(MOTIF, {0}, {1}, {3})

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError):
            d_separated(CHAIN3, {0}, {0}, set())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_matches_path_enumeration(self, seed):
        g = small_dags(seed)
        rng = np.random.default_rng(seed + 2)
        nodes = list(rng.permutation(g.p))
        a = {int(nodes[0])}
        b = {int(nodes[1])}
        cond = {int(v) for v in nodes[2 : 2 + int(rng.integers(0, g.p - 1))]}
        assert d_separated(g, a, b, cond) == d_separated_paths(g, a, b, cond)


class TestVStructures:
    # Fixed cases of the oracle that defines the equivalence class.
    def test_motif(self):
        assert v_structures_oracle(MOTIF) == frozenset({(0, 2, 1)})

    def test_chain_has_none(self):
        assert v_structures_oracle(CHAIN3) == frozenset()

    def test_shielded_collider_excluded(self):
        g = Dag(3, frozenset({(0, 2), (1, 2), (0, 1)}))
        assert v_structures_oracle(g) == frozenset()


class TestEquivalenceClass:
    # Fixed cases of the brute-force oracle that the CPDAG tests lean on.
    def test_chain_has_three_members(self):
        members = equivalence_class_oracle(CHAIN3)
        assert len(members) == 3
        assert frozenset({(2, 1), (1, 0)}) in members

    def test_collider_is_pinned(self):
        assert equivalence_class_oracle(COLLIDER) == [COLLIDER.edges]

    def test_empty_graph_single_member(self):
        assert len(equivalence_class_oracle(Dag(3))) == 1


class TestCpdag:
    # The class vote is the expected CPDAG of every test; these pin it.
    def test_motif_fully_oriented(self):
        directed, undirected = consensus_cpdag_oracle(MOTIF)
        assert directed == frozenset({(0, 2), (1, 2), (2, 3)})
        assert undirected == frozenset()

    def test_single_edge_reversible(self):
        directed, undirected = consensus_cpdag_oracle(Dag(2, frozenset({(0, 1)})))
        assert directed == frozenset()
        assert undirected == frozenset({(0, 1)})

    def test_chain_undirected(self):
        directed, undirected = consensus_cpdag_oracle(CHAIN3)
        assert directed == frozenset()
        assert undirected == frozenset({(0, 1), (1, 2)})

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_matches_class_consensus(self, seed):
        # closing the v-structure arrows under the propagation rules gives
        # the CPDAG (Meek 1995), with no separating sets involved
        rng = np.random.default_rng(seed)
        g = random_dag(rng, int(rng.integers(2, 6)), edge_prob=0.4, max_edges=8)
        arrows = set()
        for i, c, j in v_structures_oracle(g):
            arrows |= {(i, c), (j, c)}
        pattern = Pdag(g.p, frozenset(arrows), g.edges - arrows)
        assert meek_closure(pattern) == Pdag(g.p, *consensus_cpdag_oracle(g))

    def test_meek_closure_ignores_node_labels(self):
        # an inconsistent sample pattern: a rule 4 without its adjacency
        # condition closed this with 0->1, and the 0/1 swap with 1->0
        g = Pdag(4, directed=frozenset({(2, 3), (3, 1)}), undirected=frozenset({(0, 1), (0, 2)}))
        swap = {0: 1, 1: 0, 2: 2, 3: 3}

        def relabel(h):
            return Pdag(4, frozenset((swap[u], swap[v]) for u, v in h.directed),
                        frozenset((swap[u], swap[v]) for u, v in h.undirected))

        assert meek_closure(relabel(g)) == relabel(meek_closure(g))

    def test_meek_closure_idempotent(self):
        g = Pdag(4, directed=frozenset({(0, 2), (1, 2)}), undirected=frozenset({(2, 3)}))
        once = meek_closure(g)
        assert meek_closure(once) == once


class TestUnrolledLayout:
    def test_index_round_trip(self):
        for p in (1, 2, 4):
            for t in (0, 1, 2):
                for v in range(p):
                    idx = p * t + v
                    assert unrolled_var(idx, p) == v
                    assert unrolled_time(idx, p) == t

    def test_column_layout(self):
        # time-major blocks: node p*t + v, so variable 2 at offset 1 of p=4
        assert (unrolled_var(6, 4), unrolled_time(6, 4)) == (2, 1)


class TestRoll:
    def test_lagged_directed_edges(self):
        g = Pdag(8, directed=frozenset({(0, 6), (2, 7)}))
        assert roll(g, 4, 2).edges == frozenset({(0, 2), (2, 3)})

    def test_self_loop(self):
        g = Pdag(4, directed=frozenset({(0, 2)}))
        assert roll(g, 2, 2).edges == frozenset({(0, 0)})

    def test_contemporaneous_undirected_rolls_both_ways(self):
        g = Pdag(4, undirected=frozenset({(0, 1)}))
        assert roll(g, 2, 2).edges == frozenset({(0, 1), (1, 0)})

    def test_cross_time_undirected_rolls_forward_only(self):
        g = Pdag(4, undirected=frozenset({(0, 3)}))
        assert roll(g, 2, 2).edges == frozenset({(0, 1)})

    def test_backward_directed_edge_dropped(self):
        g = Pdag(4, directed=frozenset({(2, 1)}))
        assert roll(g, 2, 2).edges == frozenset()

    def test_node_count_mismatch(self):
        with pytest.raises(ValueError):
            roll(Pdag(5), 2, 2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_parent_union_lemma(self, seed):
        # rolling the CPDAG equals the union of rolling each class member
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 5))
        g = random_dag(rng, 2 * p, edge_prob=0.3, max_edges=8)
        rolled = roll(Pdag(g.p, *consensus_cpdag_oracle(g)), p, 2).edges
        union = frozenset()
        for member in equivalence_class_oracle(g):
            union |= rolled_edges_of_member(member, p)
        assert rolled == union

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_monotone_under_edge_addition(self, seed):
        # adding an input edge can only add rolled edges
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 5))
        truth = random_dag(rng, 2 * p, edge_prob=0.25, max_edges=8)
        g = Pdag(truth.p, *consensus_cpdag_oracle(truth))
        before = roll(g, p, 2).edges
        taken = {frozenset(e) for e in g.directed} | {frozenset(e) for e in g.undirected}
        candidates = [
            (u, v)
            for u in range(g.p)
            for v in range(g.p)
            if u != v and frozenset((u, v)) not in taken
        ]
        if not candidates:
            return
        u, v = candidates[int(rng.integers(len(candidates)))]
        if rng.random() < 0.5:
            grown = Pdag(g.p, directed=g.directed | {(u, v)}, undirected=g.undirected)
        else:
            grown = Pdag(g.p, directed=g.directed, undirected=g.undirected | {(u, v)})
        assert before <= roll(grown, p, 2).edges


class TestEmitters:
    def test_dot_marks_undirected(self):
        g = Pdag(3, directed=frozenset({(0, 2)}), undirected=frozenset({(1, 2)}))
        dot = to_dot(g)
        assert "1 -> 3;" in dot
        assert "2 -> 3 [dir=none];" in dot

    def test_dot_self_loop(self):
        dot = to_dot(RolledGraph(2, frozenset({(0, 0)})))
        assert "1 -> 1;" in dot

    def test_dot_name_is_quoted(self):
        # "graph" is a DOT keyword; only a quoted id keeps the file parseable
        dot = to_dot(MOTIF, name="graph")
        assert dot.startswith('digraph "graph" {')

    def test_json_labels_are_one_based(self):
        payload = json.loads(to_json(MOTIF))
        assert payload["p"] == 4
        assert sorted(map(tuple, payload["directed"])) == [(1, 3), (2, 3), (3, 4)]
        assert payload["undirected"] == []

    def test_json_round_trip_pdag(self):
        g = Pdag(4, directed=frozenset({(0, 2)}), undirected=frozenset({(2, 3)}))
        back = graph_from_json(to_json(g))
        assert isinstance(back, Pdag)
        assert back.directed == g.directed
        assert back.undirected == g.undirected

    def test_json_round_trip_rolled(self):
        g = RolledGraph(3, frozenset({(0, 0), (1, 2)}))
        back = graph_from_json(to_json(g))
        assert isinstance(back, RolledGraph)
        assert back.edges == g.edges

    def test_json_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            graph_from_json('{"p": 2, "directed": [[1, 3]], "undirected": []}')

    def test_skeleton_emits_undirected_only(self):
        dot = to_dot(Pdag(2, undirected=frozenset({(0, 1)})))
        assert "[dir=none]" in dot
