"""Graph values and operations for constraint-based structure discovery.

Nodes are integers ``0..p-1``. Three graph flavours cover the pipeline:
directed acyclic graphs (data-generating models and population oracles),
partially directed graphs (the search's arrowless skeleton and its
oriented estimates), and rolled graphs over time-series variables, where
self-loops are legal. ``meek_closure`` (Meek's rules 1-3) is the one
orientation-propagation step; the CPDAG of a separating-set table is
built by ``pc.orient`` on top of it.

All values are immutable; every operation is a pure function.
I/O emitters and error messages print 1-based labels, in-memory indices
stay 0-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

__all__ = [
    "Dag",
    "Pdag",
    "RolledGraph",
    "is_acyclic",
    "ancestors",
    "d_separated",
    "meek_closure",
    "unrolled_var",
    "unrolled_time",
    "roll",
    "to_dot",
    "to_json",
    "graph_from_json",
]

Edge = tuple[int, int]


def _check_node(p: int, v: int) -> None:
    if not (0 <= v < p):
        raise ValueError(f"node {v} outside range [0, {p})")


def _normalize_pair(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph on ``p`` nodes.

    Parameters
    ----------
    p : int
        Number of nodes, at least 1.
    edges : frozenset of (int, int)
        Directed edges ``(u, v)`` meaning ``u -> v``. Self-loops,
        antiparallel pairs, and cycles are rejected.
    """

    p: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("p must be >= 1")
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        for u, v in self.edges:
            _check_node(self.p, u)
            _check_node(self.p, v)
            if u == v:
                raise ValueError(f"self-loop {u + 1} -> {v + 1} not allowed in a DAG")
            if (v, u) in self.edges:
                raise ValueError(f"antiparallel pair between {u + 1} and {v + 1}")
        if not is_acyclic(self.p, self.edges):
            raise ValueError("edge set contains a directed cycle")


@dataclass(frozen=True)
class Pdag:
    """Partially directed graph: disjoint directed and undirected edge sets.

    At most one edge per node pair; undirected edges are stored with
    ``u < v``; self-loops are not allowed.  An arrowless one is a skeleton.
    """

    p: int
    directed: frozenset = field(default_factory=frozenset)
    undirected: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("p must be >= 1")
        directed = frozenset(tuple(e) for e in self.directed)
        undirected = frozenset(_normalize_pair(u, v) for u, v in self.undirected)
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "undirected", undirected)
        seen: set[Edge] = set()
        for u, v in directed:
            _check_node(self.p, u)
            _check_node(self.p, v)
            if u == v:
                raise ValueError(f"self-loop {u + 1} -> {v + 1} not allowed")
            if (v, u) in directed:
                raise ValueError(f"both orientations present between {u + 1} and {v + 1}")
            seen.add(_normalize_pair(u, v))
        for u, v in undirected:
            _check_node(self.p, u)
            _check_node(self.p, v)
            if u == v:
                raise ValueError(f"self-loop at {u + 1} not allowed")
            if (u, v) in seen:
                raise ValueError(f"pair ({u + 1}, {v + 1}) is both directed and undirected")

    def neighbours(self) -> dict[int, set[int]]:
        """Every node's adjacent nodes, over directed and undirected edges alike."""
        out: dict[int, set[int]] = {v: set() for v in range(self.p)}
        for u, v in self.directed | self.undirected:
            out[u].add(v)
            out[v].add(u)
        return out


@dataclass(frozen=True)
class RolledGraph:
    """Directed graph over time-series variables; self-loops are allowed."""

    p: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("p must be >= 1")
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        for u, v in self.edges:
            _check_node(self.p, u)
            _check_node(self.p, v)


def is_acyclic(p: int, edges: Iterable[Edge]) -> bool:
    """Return True when the directed edge set over ``p`` nodes has no cycle."""
    children: dict[int, list[int]] = {v: [] for v in range(p)}
    indeg = [0] * p
    for u, v in edges:
        children[u].append(v)
        indeg[v] += 1
    queue = [v for v in range(p) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in children[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == p


def ancestors(g: Dag, nodes: Iterable[int] | int) -> set[int]:
    """Ancestors of a node set, including the set itself (``v`` is its own ancestor)."""
    targets = {nodes} if isinstance(nodes, int) else set(nodes)
    for v in targets:
        _check_node(g.p, v)
    parents: dict[int, set[int]] = {v: set() for v in range(g.p)}
    for u, v in g.edges:
        parents[v].add(u)
    out = set(targets)
    frontier = list(targets)
    while frontier:
        v = frontier.pop()
        for u in parents[v]:
            if u not in out:
                out.add(u)
                frontier.append(u)
    return out


def _as_set(nodes: Iterable[int] | int) -> set[int]:
    return {nodes} if isinstance(nodes, int) else set(nodes)


def d_separated(
    g: Dag,
    a: Iterable[int] | int,
    b: Iterable[int] | int,
    cond: Iterable[int] = (),
) -> bool:
    """Decide whether node sets ``a`` and ``b`` are d-separated given ``cond``.

    A path is active given the conditioning set when every collider on it
    is an ancestor of (or in) the conditioning set and no non-collider on
    it is in the conditioning set; the sets are d-separated when no active
    path connects them.

    Implemented as reachability over (node, approach-direction) states,
    so it runs in linear time; the test suite checks it against literal
    path enumeration.
    """
    set_a, set_b, set_c = _as_set(a), _as_set(b), set(cond)
    for v in set_a | set_b | set_c:
        _check_node(g.p, v)
    if set_a & set_b or set_a & set_c or set_b & set_c:
        raise ValueError("a, b, and the conditioning set must be pairwise disjoint")
    if not set_a or not set_b:
        raise ValueError("a and b must be non-empty")

    parents: dict[int, set[int]] = {v: set() for v in range(g.p)}
    children: dict[int, set[int]] = {v: set() for v in range(g.p)}
    for u, v in g.edges:
        parents[v].add(u)
        children[u].add(v)

    anc_c = ancestors(g, set_c) if set_c else set()

    # States: (node, True) means the trail arrives from a child (moving
    # upstream), (node, False) means it arrives from a parent (moving
    # downstream). Sources start as if approached from below.
    frontier: list[tuple[int, bool]] = [(x, True) for x in set_a]
    visited: set[tuple[int, bool]] = set()
    while frontier:
        y, from_child = frontier.pop()
        if (y, from_child) in visited:
            continue
        visited.add((y, from_child))
        if y in set_b and y not in set_c:
            return False
        if from_child:
            if y not in set_c:
                frontier.extend((z, True) for z in parents[y])
                frontier.extend((z, False) for z in children[y])
        else:
            if y not in set_c:
                frontier.extend((z, False) for z in children[y])
            if y in anc_c:
                frontier.extend((z, True) for z in parents[y])
    return True


def meek_closure(g: Pdag) -> Pdag:
    """Apply Meek's first three orientation-propagation rules until none fires.

    Rules only orient still-undirected edges, so the arrows of ``g`` stay.
    Closing the v-structure arrows of a DAG yields its CPDAG (Meek, UAI 1995);
    rule 4 matters only for arrows from background knowledge, which PC never adds.
    """
    p = g.p
    directed: set[Edge] = set(g.directed)
    undirected: set[Edge] = set(g.undirected)
    adjacent = g.neighbours()
    parents: dict[int, set[int]] = {v: set() for v in range(p)}
    children: dict[int, set[int]] = {v: set() for v in range(p)}
    for u, v in directed:
        parents[v].add(u)
        children[u].add(v)

    def orient(a: int, b: int) -> None:
        undirected.discard(_normalize_pair(a, b))
        directed.add((a, b))
        parents[b].add(a)
        children[a].add(b)

    def fires(a: int, b: int) -> bool:
        # Rule: x -> a, a - b, x and b non-adjacent  =>  a -> b.
        for x in parents[a]:
            if x != b and x not in adjacent[b]:
                return True
        # Rule: a -> c -> b and a - b  =>  a -> b.
        if children[a] & parents[b]:
            return True
        # Rule: a - c -> b, a - d -> b, c and d non-adjacent  =>  a -> b.
        spokes = [c for c in parents[b] if _normalize_pair(a, c) in undirected]
        for c, d in combinations(sorted(spokes), 2):
            if c not in adjacent[d]:
                return True
        return False

    changed = True
    while changed:
        changed = False
        for u, v in sorted(undirected):
            if fires(u, v):
                orient(u, v)
                changed = True
            elif fires(v, u):
                orient(v, u)
                changed = True
    return Pdag(p, frozenset(directed), frozenset(undirected))


# Window node p*t + v is variable v at window offset t.
def unrolled_var(index: int, p: int) -> int:
    return index % p


def unrolled_time(index: int, p: int) -> int:
    return index // p


def roll(g: Pdag | Dag, p: int, tau: int) -> RolledGraph:
    """Collapse a graph over ``p * tau`` window nodes onto the ``p`` variables.

    A directed unrolled edge ``(u, t1) -> (v, t2)`` contributes ``u -> v``
    when ``t1 <= t2`` (backward-in-time arrows contribute nothing). An
    undirected unrolled edge contributes each direction consistent with
    its time stamps, so a contemporaneous undirected edge rolls to both
    directions and a cross-time one rolls forward only.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if g.p != p * tau:
        raise ValueError(f"graph has {g.p} nodes, expected p*tau = {p * tau}")
    if isinstance(g, Dag):
        g = Pdag(g.p, directed=g.edges)
    edges: set[Edge] = set()
    for a, b in g.directed:
        if unrolled_time(a, p) <= unrolled_time(b, p):
            edges.add((unrolled_var(a, p), unrolled_var(b, p)))
    for a, b in g.undirected:
        ta, tb = unrolled_time(a, p), unrolled_time(b, p)
        if ta <= tb:
            edges.add((unrolled_var(a, p), unrolled_var(b, p)))
        if tb <= ta:
            edges.add((unrolled_var(b, p), unrolled_var(a, p)))
    return RolledGraph(p, frozenset(edges))


def _edge_lists(g: Dag | Pdag | RolledGraph) -> tuple[list[Edge], list[Edge]]:
    """(directed, undirected) edge lists, sorted, 0-based."""
    if isinstance(g, Dag):
        return sorted(g.edges), []
    if isinstance(g, RolledGraph):
        return sorted(g.edges), []
    if isinstance(g, Pdag):
        return sorted(g.directed), sorted(g.undirected)
    raise TypeError(f"unsupported graph type {type(g).__name__}")


def to_dot(g: Dag | Pdag | RolledGraph, name: str = "G") -> str:
    """DOT text with 1-based labels; undirected edges carry ``dir=none``."""
    directed, undirected = _edge_lists(g)
    # quoted: bare keywords (graph, node, edge, ...) are not legal DOT ids
    lines = [f'digraph "{name}" {{']
    for v in range(g.p):
        lines.append(f"  {v + 1};")
    for u, v in directed:
        lines.append(f"  {u + 1} -> {v + 1};")
    for u, v in undirected:
        lines.append(f"  {u + 1} -> {v + 1} [dir=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: Dag | Pdag | RolledGraph) -> str:
    """JSON text: ``{"p": int, "directed": [[u, v], ...], "undirected": [[u, v], ...]}`` (1-based)."""
    directed, undirected = _edge_lists(g)
    payload = {
        "p": g.p,
        "directed": [[u + 1, v + 1] for u, v in directed],
        "undirected": [[u + 1, v + 1] for u, v in undirected],
    }
    return json.dumps(payload, indent=2) + "\n"


def graph_from_json(text: str) -> Pdag | RolledGraph:
    """Parse emitter JSON back to a graph value.

    Returns a RolledGraph when the payload has no undirected edges (the
    directed list may then contain self-loops), otherwise a Pdag.  ``p`` must
    be a positive integer and each edge list a list of integer pairs in
    ``[1, p]``; anything else is a ValueError naming the list and the entry.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict) or "p" not in payload:
        raise ValueError("graph JSON must be an object with a 'p' field")
    p = payload["p"]
    if type(p) is not int or p < 1:  # JSON true loads as a bool, an int subclass
        raise ValueError("'p' must be a positive integer")
    edges: dict[str, list[Edge]] = {}
    for name in ("directed", "undirected"):
        entries = payload.get(name, [])
        if not isinstance(entries, list):
            raise ValueError(f"'{name}' must be a list of [u, v] pairs, got {json.dumps(entries)}")
        for e in entries:
            if not (isinstance(e, list) and len(e) == 2
                    and all(type(v) is int and 1 <= v <= p for v in e)):
                raise ValueError(
                    f"'{name}' entry {json.dumps(e)} is not a pair of integers in [1, {p}]"
                )
        edges[name] = [(u - 1, v - 1) for u, v in entries]
    if not edges["undirected"]:
        return RolledGraph(p, frozenset(edges["directed"]))
    return Pdag(p, frozenset(edges["directed"]), frozenset(edges["undirected"]))
