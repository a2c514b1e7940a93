"""Constraint-based structure discovery on i.i.d.-style samples.

The skeleton search walks conditioning-set sizes upward from zero.  At size
l it visits, in index order, the ordered adjacent pairs (i, j) whose
candidate pool adj(i) minus j holds at least l nodes, and tests i against j
given every size-l subset of that pool in lexicographic order, deleting the
edge and recording the first separating set found; the decision log holds
each test as its (query, outcome) pair.  The search stops once no pair has a
pool larger than the current size (or a configured cap is hit).
Orientation then marks colliders: for every non-adjacent pair, each common
neighbour outside the recorded separating set becomes the tip of two
arrowheads, and the remaining undirected edges are closed under the
standard propagation rules.

Arrowhead demands that contradict each other (both directions requested for
one edge) cancel: the edge stays undirected and the conflict is reported as
a diagnostic instead of silently picking a side.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Iterable, Mapping

import numpy as np

from .citests import (
    CiOutcome,
    CiQuery,
    CiTestError,
    ColumnFactors,
    GaussianCiConfig,
    HsicConfig,
    gaussian_ci_test,
    sample_covariance,
)
from .data import DataMatrix
from .graphs import Dag, Pdag, Skeleton, d_separated, meek_closure

__all__ = [
    "CiQueryError",
    "PcConfig",
    "PcResult",
    "SepSets",
    "decisions_to_csv",
    "find_skeleton",
    "oracle_ci",
    "orient",
    "pc",
    "population_pc",
    "sepset_key",
]

# Separating sets are keyed by the unordered pair, stored as (min, max).
SepSets = dict[tuple[int, int], tuple[int, ...]]


def sepset_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


class CiQueryError(RuntimeError):
    """A CI backend failed; carries the query that triggered the failure."""

    def __init__(self, query: CiQuery, cause: Exception):
        k = ", ".join(str(c + 1) for c in query.k)
        super().__init__(
            f"CI test failed for query ({query.i + 1}, {query.j + 1} | {{{k}}}): {cause}"
        )
        self.query = query


@dataclass(frozen=True)
class PcConfig:
    """The conditional-independence test and the search policy.

    test is the one CI test of the search, picked by its type: a
    GaussianCiConfig runs Fisher-z on the sample covariance, an HsicConfig
    runs the kernel test against its fixed gamma, and a Dag answers from
    the d-separation facts of that known graph (the population oracle).

    max_cond_size None means the default cap p - 2 (every size a pool can
    reach).  Fisher-z at level alpha further caps it at n - 4, the largest
    size its threshold is defined for.  stable snapshots each node's
    neighbourhood at the start of a level so deletions within the level
    cannot influence later conditioning pools; the skeleton then does not
    depend on the order of the columns.
    """

    test: GaussianCiConfig | HsicConfig | Dag = GaussianCiConfig(alpha=0.05)
    max_cond_size: int | None = None
    stable: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.test, (GaussianCiConfig, HsicConfig, Dag)):
            raise TypeError(
                "test must be a GaussianCiConfig, HsicConfig or Dag, "
                f"got {type(self.test).__name__}"
            )
        if isinstance(self.test, HsicConfig) and self.test.gamma is None:
            raise ValueError("the kernel test needs a fixed threshold: set HsicConfig.gamma")
        if self.max_cond_size is not None and self.max_cond_size < 0:
            raise ValueError(f"max_cond_size must be nonnegative, got {self.max_cond_size}")


@dataclass(frozen=True)
class PcResult:
    pdag: Pdag
    skeleton: Skeleton
    sepsets: SepSets
    decisions: tuple[tuple[CiQuery, CiOutcome], ...]
    diagnostics: tuple[str, ...]


def find_skeleton(
    ci: Callable[[CiQuery], CiOutcome],
    p: int,
    config: PcConfig = PcConfig(),
    log: list[tuple[CiQuery, CiOutcome]] | None = None,
) -> tuple[Skeleton, SepSets]:
    """Level-wise edge removal starting from the complete graph.

    Returns the surviving skeleton and the separating set recorded for every
    removed edge (so the table covers exactly the non-adjacent pairs).  The
    exact query sequence is a pure function of p, the configuration, and the
    CI answers, which makes decision logs replayable.  log, when given, gets
    each query passed to ci and the outcome ci returned, as a pair.
    """
    if p < 1:
        raise ValueError(f"need at least one node, got p={p}")
    max_cond = config.max_cond_size if config.max_cond_size is not None else max(p - 2, 0)

    adj: dict[int, set[int]] = {v: set(range(p)) - {v} for v in range(p)}
    seps: SepSets = {}

    level = 0
    while True:
        pools = {v: frozenset(adj[v]) for v in range(p)} if config.stable else None
        for i in range(p):
            for j in range(p):
                if i == j or j not in adj[i]:
                    continue
                base = (pools[i] if pools is not None else adj[i]) - {j}
                if len(base) < level:
                    continue
                for k in combinations(sorted(base), level):
                    query = CiQuery(i, j, k)
                    try:
                        outcome = ci(query)
                    except CiTestError as exc:
                        raise CiQueryError(query, exc) from exc
                    if log is not None:
                        log.append((query, outcome))
                    if outcome.independent:
                        adj[i].discard(j)
                        adj[j].discard(i)
                        seps[sepset_key(i, j)] = k
                        break
        done = all(len(adj[i] - {j}) <= level for i in range(p) for j in adj[i])
        if done or level >= max_cond:
            break
        level += 1

    edges = frozenset((i, j) for i in range(p) for j in adj[i] if i < j)
    return Skeleton(p, edges), seps


def orient(
    skeleton: Skeleton,
    sepsets: Mapping[tuple[int, int], Iterable[int]],
    diagnostics: list[str] | None = None,
) -> Pdag:
    """Collider orientation from separating sets, then rule propagation.

    The separating-set table must cover every non-adjacent pair.  All
    arrowhead demands are collected before any is applied; a pair demanded
    in both directions stays undirected and adds a diagnostic message.
    """
    p = skeleton.p
    norm: SepSets = {}
    for key, s in sepsets.items():
        a, b = key
        if a == b:
            raise ValueError(f"separating-set key ({a}, {b}) repeats a node")
        pair = sepset_key(int(a), int(b))
        if not (0 <= pair[0] and pair[1] < p):
            raise ValueError(f"separating-set key {key} out of range for p={p}")
        if skeleton.has_edge(*pair):
            raise ValueError(
                f"separating-set entry for adjacent pair ({pair[0] + 1}, {pair[1] + 1})"
            )
        members = tuple(sorted(int(c) for c in s))
        if any(not 0 <= c < p for c in members):
            raise ValueError(f"separating set {members} out of range for p={p}")
        if pair[0] in members or pair[1] in members:
            raise ValueError(
                f"separating set for ({pair[0] + 1}, {pair[1] + 1}) contains an endpoint"
            )
        norm[pair] = members

    adjacent = skeleton.neighbours()
    demands: set[tuple[int, int]] = set()
    for i in range(p):
        for j in range(i + 1, p):
            if skeleton.has_edge(i, j):
                continue
            if (i, j) not in norm:
                raise ValueError(
                    f"separating-set table missing non-adjacent pair ({i + 1}, {j + 1})"
                )
            sep = norm[(i, j)]
            for c in sorted(adjacent[i] & adjacent[j]):
                if c not in sep:
                    demands.add((i, c))
                    demands.add((j, c))

    conflicted: set[tuple[int, int]] = set()
    for a, b in demands:
        if (b, a) in demands:
            conflicted.add(sepset_key(a, b))
    if diagnostics is not None:
        for a, b in sorted(conflicted):
            diagnostics.append(
                f"conflicting collider orientations for edge {a + 1}-{b + 1}; "
                "left undirected"
            )

    directed = frozenset(
        (a, b) for a, b in demands if sepset_key(a, b) not in conflicted
    )
    oriented_pairs = {sepset_key(a, b) for a, b in directed}
    undirected = frozenset(e for e in skeleton.edges if e not in oriented_pairs)
    return meek_closure(Pdag(p, directed, undirected))


def oracle_ci(truth: Dag) -> Callable[[CiQuery], CiOutcome]:
    """A CI answerer that reads separation facts straight off a known graph."""

    def ci(query: CiQuery) -> CiOutcome:
        independent = d_separated(truth, {query.i}, {query.j}, query.k)
        return CiOutcome(0.0 if independent else 1.0, 0.5)

    return ci


def _make_ci(
    values: np.ndarray, test: GaussianCiConfig | HsicConfig | Dag
) -> Callable[[CiQuery], CiOutcome]:
    if isinstance(test, GaussianCiConfig):
        cov = sample_covariance(values)

        def ci(query: CiQuery) -> CiOutcome:
            return gaussian_ci_test(cov, query, test)

        return ci
    if isinstance(test, HsicConfig):
        # Rows capped and checked once, single-column factors kept, per search.
        factors = ColumnFactors(values, test)

        def ci(query: CiQuery) -> CiOutcome:
            return CiOutcome(factors.statistic(query.i, query.j, query.k), test.gamma)

        return ci
    return oracle_ci(test)


def pc(data: DataMatrix | np.ndarray, config: PcConfig = PcConfig()) -> PcResult:
    """Skeleton search plus orientation on one sample matrix."""
    values = data.values if isinstance(data, DataMatrix) else np.asarray(data, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"data must be two-dimensional, got shape {values.shape}")
    n, p = values.shape
    if isinstance(config.test, Dag) and config.test.p != p:
        raise ValueError(
            f"the oracle graph has {config.test.p} nodes but the data has {p} columns"
        )
    search = config
    if isinstance(config.test, GaussianCiConfig) and config.test.alpha is not None:
        # The alpha-mode threshold needs n - |k| - 3 > 0, so larger
        # conditioning sets cannot be tested on this sample.
        if n < 4:
            raise ValueError(f"the Fisher-z test at level alpha needs at least 4 rows, got {n}")
        reachable = config.max_cond_size if config.max_cond_size is not None else max(p - 2, 0)
        if reachable > n - 4:
            search = replace(config, max_cond_size=n - 4)
    ci = _make_ci(values, config.test)
    log: list[tuple[CiQuery, CiOutcome]] = []
    skeleton, seps = find_skeleton(ci, p, search, log)
    diagnostics: list[str] = []
    if search is not config:
        # The cap bound if some adjacent pair still had a larger pool.
        degrees = Counter(v for edge in skeleton.edges for v in edge)
        if max(degrees.values(), default=0) - 1 > search.max_cond_size:
            diagnostics.append(
                f"conditioning sets capped at size {n - 4}: the Fisher-z threshold "
                f"at level alpha needs n - |k| - 3 > 0 and the sample has {n} rows"
            )
    pdag = orient(skeleton, seps, diagnostics)
    return PcResult(pdag, skeleton, seps, tuple(log), tuple(diagnostics))


def population_pc(
    truth: Dag,
    *,
    max_cond_size: int | None = None,
    stable: bool = False,
) -> Pdag:
    """Run the search against exact separation facts of a known graph.

    With a perfect oracle the output equals the orientation-equivalence
    summary of the truth, which is what the sample version converges to.
    """
    config = PcConfig(truth, max_cond_size=max_cond_size, stable=stable)
    skeleton, seps = find_skeleton(oracle_ci(truth), truth.p, config)
    return orient(skeleton, seps)


def decisions_to_csv(decisions: Iterable[tuple[CiQuery, CiOutcome]]) -> str:
    """Render a decision log with 1-based indices, conditioning set space-joined."""
    lines = ["i,j,k,statistic,threshold,independent"]
    for query, outcome in decisions:
        k = " ".join(str(c + 1) for c in query.k)
        lines.append(
            f"{query.i + 1},{query.j + 1},{k},{outcome.statistic!r},{outcome.threshold!r},"
            f"{str(outcome.independent).lower()}"
        )
    return "\n".join(lines) + "\n"
