"""Constraint-based structure discovery on i.i.d.-style samples.

The skeleton search walks conditioning-set sizes upward from zero.  At size
l it visits, in index order, the ordered adjacent pairs (i, j) whose
candidate pool adj(i) minus j holds at least l nodes, and tests i against j
given every size-l subset of that pool in lexicographic order, deleting the
edge and recording the first separating set found; the decision log holds
each test as its (query, outcome) pair.  Level 0 needs no order: an edge
goes exactly when its one empty-set test says independent, so a search
handed the table of those statistics (Fisher-z has one per sample) decides
the level in one step and asks its answerer nothing there.  The search stops
once no pair has a pool larger than the current size (or a configured cap
is hit); the surviving edges form an arrowless ``Pdag``.  Orientation reads the
separating-set table (one entry per non-adjacent pair): each common
neighbour outside an entry's set becomes the tip of two arrowheads, and
``graphs.meek_closure`` closes the rest with Meek's rules 1-3.  On exact CI
answers (a ``Dag`` as the test) the result is the CPDAG of that graph.

Arrowhead demands that contradict each other (both directions requested for
one edge) cancel: the edge stays undirected and the conflict is reported as
a diagnostic instead of silently picking a side.

pc_segments searches a list of segments, matrices of one shape such as the
subsamples TPC-NS slices from one series, and pc() is its batch of one.
The CI answerers of all segments are built as one batch: for Fisher-z one
stacked covariance pass and a table of level-0 statistics per segment, for
the kernel test one stream of single-column factors.  Each segment is then
searched and oriented alone, bit for bit as if it were searched alone.
Its result keeps the level-0 table and the pairs the answerer was asked;
its decisions, the tuple the query-by-query loop logs, are built from them
only when read, so a caller that never reads them, as TPC-NS does not,
never builds the table's pairs.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .citests import (
    CiOutcome,
    CiQuery,
    CiTestError,
    ColumnFactors,
    GaussianCiConfig,
    HsicConfig,
)
from .citests.gaussian import FISHER_Z_MIN_ROWS, Level0, gaussian_ci_tests
from .citests.hsic import column_factors
from .data import DataMatrix
from .graphs import Dag, Pdag, d_separated, meek_closure

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
    "pc_segments",
    "sepset_key",
]

# Separating sets are keyed by the unordered pair, stored as (min, max).
SepSets = dict[tuple[int, int], tuple[int, ...]]

CiTest = GaussianCiConfig | HsicConfig | Dag


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
    size its threshold is defined for, and at a fixed gamma at n - 2, the
    largest that leaves a residual variance.  stable snapshots each node's
    neighbourhood at the start of a level so deletions within the level
    cannot influence later conditioning pools; the skeleton then does not
    depend on the order of the columns.
    """

    test: CiTest = GaussianCiConfig(alpha=0.05)
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


Decision = tuple[CiQuery, CiOutcome]


@dataclass(frozen=True)
class PcResult:
    """A search's graph, separating sets and diagnostics, and its CI decisions.

    asked holds the (query, outcome) pairs the answerer was asked, in order;
    level0 is the Fisher-z table the search decided level 0 from, if any.
    decisions is the tuple of the table's pairs, then the asked ones, built
    when first read, so a result whose log is never read never builds the
    table's pairs.
    """

    pdag: Pdag
    sepsets: SepSets
    asked: tuple[Decision, ...]
    diagnostics: tuple[str, ...]
    level0: Level0 | None = field(default=None, repr=False)

    @cached_property
    def decisions(self) -> tuple[Decision, ...]:
        table = _table_log(*self.level0) if self.level0 is not None else ()
        return (*table, *self.asked)


def find_skeleton(
    ci: Callable[[CiQuery], CiOutcome],
    p: int,
    config: PcConfig = PcConfig(),
    log: list[Decision] | None = None,
    level0: Level0 | None = None,
) -> tuple[Pdag, SepSets]:
    """Level-wise edge removal starting from the complete graph.

    Returns the surviving skeleton, an arrowless Pdag, and the separating set
    recorded for every removed edge (so the table covers exactly the
    non-adjacent pairs).  The exact query sequence is a pure function of p,
    the configuration, and the CI answers, which makes decision logs
    replayable.  log, when given, gets each query asked of ci and the
    outcome ci returned, as a pair.

    level0, when given, is a table of the statistics ci would give every
    (i, j | {}), with their threshold, as gaussian_ci_tests yields beside
    each answerer.  Level 0 is then decided from the table in one step and
    asks ci nothing, and the table's pairs (PcResult.decisions) followed by
    log are the log of the query-by-query level.
    """
    if p < 1:
        raise ValueError(f"need at least one node, got p={p}")
    max_cond = config.max_cond_size if config.max_cond_size is not None else max(p - 2, 0)

    adj: dict[int, set[int]] = {v: set(range(p)) - {v} for v in range(p)}
    seps: SepSets = {}

    for level in range(max_cond + 1):
        if level == 0 and level0 is not None:
            table, threshold = level0
            for i in range(p):
                for j in range(i + 1, p):
                    if abs(table[i][j]) <= threshold:
                        adj[i].discard(j)
                        adj[j].discard(i)
                        seps[(i, j)] = ()
        else:
            pools = {v: frozenset(adj[v]) for v in range(p)} if config.stable else None
            for i in range(p):
                # Only the edge (i, j) itself leaves adj[i] during j's turn.
                for j in sorted(adj[i]):
                    base = (pools[i] if pools is not None else adj[i]) - {j}
                    if len(base) < level:
                        continue
                    for k in combinations(sorted(base), level) if level else ((),):
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
        if all(len(adj[v]) - 1 <= level for v in range(p) if adj[v]):
            break

    edges = frozenset((i, j) for i in range(p) for j in adj[i] if i < j)
    return Pdag(p, undirected=edges), seps


def _table_log(table: list[list[float]], threshold: float) -> Iterator[Decision]:
    """The level-0 pairs of a table in the order the loop asks them: row i
    asks every j > i, and every j < i whose own test of the pair read dependent."""
    for i, row in enumerate(table):
        for j, statistic in enumerate(row):
            if j > i or (j < i and not abs(statistic) <= threshold):
                yield CiQuery(i, j), CiOutcome(statistic, threshold)


def orient(
    skeleton: Pdag,
    sepsets: Mapping[tuple[int, int], Iterable[int]],
    diagnostics: list[str] | None = None,
) -> Pdag:
    """Collider orientation from separating sets, then rule propagation.

    The skeleton has no arrows.  The separating-set table must give each
    non-adjacent pair one set, under either key order.  All arrowhead
    demands are collected before any is applied; a pair demanded in both
    directions stays undirected and adds a diagnostic message.
    """
    if skeleton.directed:
        raise ValueError("the skeleton to orient must have no arrows")
    p = skeleton.p
    adjacent = skeleton.neighbours()
    norm: SepSets = {}
    for key, s in sepsets.items():
        a, b = key
        if a == b:
            raise ValueError(f"separating-set key ({a}, {b}) repeats a node")
        pair = sepset_key(int(a), int(b))
        if not (0 <= pair[0] and pair[1] < p):
            raise ValueError(f"separating-set key {key} out of range for p={p}")
        if pair[1] in adjacent[pair[0]]:
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
        if norm.setdefault(pair, members) != members:
            raise ValueError(f"two different separating sets for ({pair[0] + 1}, {pair[1] + 1})")

    # Every key is a distinct non-adjacent pair, so a count shows coverage.
    if len(norm) < p * (p - 1) // 2 - len(skeleton.undirected):
        i, j = next(
            pair for pair in combinations(range(p), 2)
            if pair not in norm and pair[1] not in adjacent[pair[0]]
        )
        raise ValueError(f"separating-set table missing non-adjacent pair ({i + 1}, {j + 1})")

    demands: set[tuple[int, int]] = set()
    for (i, j), sep in norm.items():
        for c in adjacent[i] & adjacent[j]:
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
    undirected = frozenset(e for e in skeleton.undirected if e not in oriented_pairs)
    return meek_closure(Pdag(p, directed, undirected))


def oracle_ci(truth: Dag) -> Callable[[CiQuery], CiOutcome]:
    """A CI answerer that reads separation facts straight off a known graph."""

    def ci(query: CiQuery) -> CiOutcome:
        independent = d_separated(truth, {query.i}, {query.j}, query.k)
        return CiOutcome(0.0 if independent else 1.0, 0.5)

    return ci


def _answerers(
    segments: Sequence[np.ndarray], test: CiTest,
) -> Iterator[tuple[Callable[[CiQuery], CiOutcome], Level0 | None]]:
    """The (answerer, level0) of each segment, built as one batch."""
    if isinstance(test, GaussianCiConfig):
        return gaussian_ci_tests(segments, test)
    if isinstance(test, HsicConfig):
        return ((_kernel_answerer(factors, test.gamma), None)
                for factors in column_factors(segments, test))
    return ((oracle_ci(test), None) for _ in segments)


def _kernel_answerer(factors: ColumnFactors, gamma: float) -> Callable[[CiQuery], CiOutcome]:
    def ci(query: CiQuery) -> CiOutcome:
        return CiOutcome(factors.statistic(query.i, query.j, query.k), gamma)

    return ci


def pc(data: DataMatrix | np.ndarray, config: PcConfig = PcConfig()) -> PcResult:
    """Skeleton search plus orientation on one sample matrix: a batch of one."""
    values = data.values if isinstance(data, DataMatrix) else np.asarray(data, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"data must be two-dimensional, got shape {values.shape}")
    return next(pc_segments([values], config))


def pc_segments(segments: Sequence[np.ndarray], config: PcConfig = PcConfig()
                ) -> Iterator[PcResult]:
    """pc() on each segment, float64 matrices of one shape, in order.

    The CI answerers of all segments are built as one batch (_answerers):
    one stacked covariance pass for Fisher-z, one single-column factor
    stream for the kernel test.  Each segment is then searched and oriented
    alone, and each result has the bits pc() gives that segment alone.  A
    segment that fails raises the error pc() raises on it, once the results
    before it are taken.  An empty batch yields nothing.
    """
    if not segments:
        return
    n, p = segments[0].shape
    if any(segment.shape != (n, p) for segment in segments):
        raise ValueError(f"segments must all have the shape {(n, p)} of the first")
    if isinstance(config.test, Dag) and config.test.p != p:
        raise ValueError(
            f"the oracle graph has {config.test.p} nodes but the data has {p} columns"
        )
    search = config
    if isinstance(config.test, GaussianCiConfig):
        # Larger conditioning sets cannot be tested on this sample.
        if config.test.alpha is not None:
            largest = n - FISHER_Z_MIN_ROWS
            if largest < 0:
                raise ValueError(f"the Fisher-z test at level alpha needs at least "
                                 f"{FISHER_Z_MIN_ROWS} rows, got {n}")
            why = "the Fisher-z threshold at level alpha needs n - |k| - 3 > 0"
        else:
            # n - 1 centered rows leave no residual variance past n - 2 columns.
            largest = max(n - 2, 0)
            why = "a Fisher-z residual variance needs n - |k| - 1 > 0"
        reachable = config.max_cond_size if config.max_cond_size is not None else max(p - 2, 0)
        if reachable > largest:
            search = replace(config, max_cond_size=largest)
    for ci, level0 in _answerers(segments, config.test):
        asked: list[Decision] = []
        skeleton, seps = find_skeleton(ci, p, search, asked, level0)
        diagnostics: list[str] = []
        if search is not config:
            # The cap bound if some adjacent pair still had a larger pool.
            degrees = Counter(v for edge in skeleton.undirected for v in edge)
            if max(degrees.values(), default=0) - 1 > search.max_cond_size:
                diagnostics.append(
                    f"conditioning sets capped at size {search.max_cond_size}: {why} "
                    f"and the sample has {n} rows"
                )
        pdag = orient(skeleton, seps, diagnostics)
        yield PcResult(pdag, seps, tuple(asked), tuple(diagnostics), level0)


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
