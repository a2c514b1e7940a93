"""Reference implementations the production code must agree with.

Everything here favors the literal definition over speed: d-connection walks
every simple path, equivalence classes come from trying every orientation of
the skeleton, and covariances are closed-form solves of structural equations.
Slow on purpose; only used at desk scale.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import math

import numpy as np
from scipy import linalg as sla
from scipy.linalg import lapack
from scipy.spatial.distance import pdist

from tspc.citests import (
    CiOutcome, CiQuery, CiTestError, CovMatrix, GaussianCiConfig, gaussian_ci_test, hsic,
    sample_covariance,
)
from tspc.citests.gaussian import _PIVOT_TOL, _correlation
from tspc.data import DataMatrix
from tspc.graphs import Dag, Pdag, RolledGraph, roll
from tspc.pc import PcConfig, PcResult, find_skeleton, oracle_ci, orient, pc
from tspc.rng import make_generator
from tspc.simulate import SimConfig
from tspc.tpc import TpcnsConfig, TpcnsResult, forward_time, unroll, unrolled_rows


def ancestors_oracle(g: Dag, nodes) -> set[int]:
    out = set(nodes)
    changed = True
    while changed:
        changed = False
        for u, v in g.edges:
            if v in out and u not in out:
                out.add(u)
                changed = True
    return out


def confusion_loop(est: RolledGraph, truth: RolledGraph,
                   include_self_loops: bool = True) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) of confusion, one ordered pair of the universe at a time."""
    tp = fp = tn = fn = 0
    for u in range(est.p):
        for v in range(est.p):
            if u == v and not include_self_loops:
                continue
            in_est, in_truth = (u, v) in est.edges, (u, v) in truth.edges
            if in_est and in_truth:
                tp += 1
            elif in_est:
                fp += 1
            elif in_truth:
                fn += 1
            else:
                tn += 1
    return tp, fp, tn, fn


def edge_frequency_loop(runs: list[RolledGraph], p: int) -> dict[tuple[int, int], float]:
    """edge_frequency, counting each ordered pair over the runs in turn."""
    return {(u, v): 100.0 * sum(1 for g in runs if (u, v) in g.edges) / len(runs)
            for u in range(p) for v in range(p)}


def _path_active(g: Dag, path: list[int], cond: set[int], anc_cond: set[int]) -> bool:
    for m in range(1, len(path) - 1):
        prev, node, nxt = path[m - 1], path[m], path[m + 1]
        collider = (prev, node) in g.edges and (nxt, node) in g.edges
        if collider:
            if node not in anc_cond:
                return False
        elif node in cond:
            return False
    return True


def d_separated_paths(g: Dag, a, b, cond=()) -> bool:
    """Path-enumeration d-separation: no active simple path between the sets."""
    set_a, set_b, set_c = set(a), set(b), set(cond)
    anc_cond = ancestors_oracle(g, set_c)
    neighbors: dict[int, set[int]] = {v: set() for v in range(g.p)}
    for u, v in g.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    for start in set_a:
        stack = [[start]]
        while stack:
            path = stack.pop()
            tail = path[-1]
            if tail in set_b:
                if _path_active(g, path, set_c, anc_cond):
                    return False
                continue
            for nxt in neighbors[tail]:
                if nxt not in path:
                    stack.append(path + [nxt])
    return True


def v_structures_oracle(g: Dag) -> frozenset:
    out = set()
    adj = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
    for c in range(g.p):
        parents = sorted(u for u, w in g.edges if w == c)
        for i, j in combinations(parents, 2):
            if (i, j) not in adj:
                out.add((i, c, j))
    return frozenset(out)


def acyclic_oracle(p: int, edges) -> bool:
    remaining = set(edges)
    alive = set(range(p))
    while alive:
        sinks = {v for v in alive if not any(u == v for u, _ in remaining)}
        if not sinks:
            return False
        alive -= sinks
        remaining = {(u, v) for u, v in remaining if u in alive and v in alive}
    return True


def equivalence_class_oracle(g: Dag) -> list[frozenset]:
    """Edge sets of every DAG sharing g's skeleton and v-structures."""
    skeleton = sorted({(min(u, v), max(u, v)) for u, v in g.edges})
    target = v_structures_oracle(g)
    members = []
    for mask in range(1 << len(skeleton)):
        edges = frozenset(
            (v, u) if (mask >> idx) & 1 else (u, v) for idx, (u, v) in enumerate(skeleton)
        )
        if acyclic_oracle(g.p, edges) and v_structures_oracle(Dag(g.p, edges)) == target:
            members.append(edges)
    return members


def consensus_cpdag_oracle(g: Dag) -> tuple[frozenset, frozenset]:
    """(directed, undirected) edges by vote over the equivalence class."""
    members = equivalence_class_oracle(g)
    directed = set()
    undirected = set()
    for u, v in {(min(a, b), max(a, b)) for a, b in g.edges}:
        forward = any((u, v) in m for m in members)
        backward = any((v, u) in m for m in members)
        if forward and backward:
            undirected.add((u, v))
        elif forward:
            directed.add((u, v))
        else:
            directed.add((v, u))
    return frozenset(directed), frozenset(undirected)


def population_pc(g: Dag, stable: bool = False) -> Pdag:
    """The package's search and orient on g's exact separation facts.

    It must return g's CPDAG; criterion 1 checks it against the class vote.
    """
    skeleton, seps = find_skeleton(oracle_ci(g), g.p, PcConfig(g, stable=stable))
    return orient(skeleton, seps)


def tpcns_loop(data: DataMatrix, config: TpcnsConfig) -> TpcnsResult:
    """tpcns as a loop of searches, one subsample at a time.

    Each subsample goes through pc(), or through fisher_z_pc for Fisher-z,
    so no level-0 table is used.  The batched tpcns must give exactly this:
    the same frequencies, starts, diagnostics and graph, and the same error
    from the same subsample.
    """
    p = data.p
    unrolled_rows(data.n, config.window, config.window_length)
    chi = unroll(data, config.window)
    starts = make_generator(config.seed).integers(
        0, chi.n - config.window_length + 1, size=config.num_subsamples)
    counts: dict[tuple[int, int], int] = {}
    notes: dict[str, int] = {}
    search = fisher_z_pc if isinstance(config.pc.test, GaussianCiConfig) else pc
    for start in starts:
        result = search(chi.values[start:start + config.window_length], config.pc)
        for edge in roll(forward_time(result.pdag, p), p, config.window.tau).edges:
            counts[edge] = counts.get(edge, 0) + 1
        for line in dict.fromkeys(result.diagnostics):
            notes[line] = notes.get(line, 0) + 1
    frequencies = {e: c / config.num_subsamples for e, c in counts.items()}
    return TpcnsResult(
        RolledGraph(p, frozenset(e for e, f in frequencies.items() if f >= config.freq_cutoff)),
        frequencies,
        tuple(int(s) for s in starts),
        tuple(f"{c} of {config.num_subsamples} subsamples: {line}" for line, c in notes.items()),
    )


def fisher_z_pc(values: np.ndarray, config: PcConfig) -> PcResult:
    """pc() on values, each query asked of gaussian_ci_test on sample_covariance in turn.

    The conditioning sets are capped at n - 4 at level alpha and at n - 2
    at a fixed gamma, with the diagnostic pc() writes when the cap binds.  A
    failing query raises the CiQueryError pc() raises.
    """
    n, p = values.shape
    cov = sample_covariance(values)
    if config.test.alpha is not None:
        cap, why = n - 4, "the Fisher-z threshold at level alpha needs n - |k| - 3 > 0"
    else:
        cap, why = max(n - 2, 0), "a Fisher-z residual variance needs n - |k| - 1 > 0"
    search = config
    reachable = config.max_cond_size if config.max_cond_size is not None else max(p - 2, 0)
    if reachable > cap:
        search = PcConfig(config.test, max_cond_size=cap, stable=config.stable)
    log: list[tuple[CiQuery, CiOutcome]] = []
    skeleton, seps = find_skeleton(
        lambda query: gaussian_ci_test(cov, query, config.test), p, search, log)
    diagnostics = []
    degrees = Counter(v for edge in skeleton.undirected for v in edge)
    if search is not config and max(degrees.values(), default=0) - 1 > cap:
        diagnostics.append(
            f"conditioning sets capped at size {cap}: {why} and the sample has {n} rows")
    pdag = orient(skeleton, seps, diagnostics)
    return PcResult(pdag, seps, tuple(log), tuple(diagnostics))


def fisher_z_log(values: np.ndarray, config: PcConfig) -> tuple[tuple[CiQuery, CiOutcome], ...]:
    """pc()'s decision log on values, from fisher_z_pc: one query at a time."""
    return fisher_z_pc(values, config).decisions


def lapack_partial_correlation(cov: CovMatrix, query: CiQuery) -> float:
    """partial_correlation of a query with a conditioning set, through dpotrf and dpotrs.

    The conditional covariance S11 - S12 S22^{-1} S21 of the pair from the
    LAPACK factor and solve of S22, with partial_correlation's error rules
    and _correlation.  The closed form for one conditioning variable must
    give exactly these bits and errors.
    """
    sigma = cov.sigma
    idx = [query.i, query.j, *query.k]
    sub = sigma.take(idx, 0).take(idx, 1)
    s12 = sub[:2, 2:]
    s22 = sub[2:, 2:]
    chol, info = lapack.dpotrf(s22, lower=1, clean=1)
    if info > 0 or chol.diagonal().min() ** 2 < _PIVOT_TOL * s22.trace():
        raise CiTestError("conditioning set collinear")
    w, _ = lapack.dpotrs(chol, s12.T, lower=1)
    # At scales 1e300 apart w overflows and meets a zero; the closed form
    # gives the same nan without numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        (var_i, cov_ij), (_, var_j) = (sub[:2, :2] - s12 @ w).tolist()
    if var_i <= 0.0 or var_j <= 0.0:
        raise CiTestError("degenerate residual variance")
    return _correlation(cov_ij, var_i, var_j)


def rolled_edges_of_member(edges, p: int) -> frozenset:
    """Forward-in-time collapse of one DAG over p*tau window nodes."""
    out = set()
    for a, b in edges:
        if a // p <= b // p:
            out.add((a % p, b % p))
    return frozenset(out)


def random_dag(rng: np.random.Generator, p: int, edge_prob: float, max_edges: int | None = None) -> Dag:
    """Random topological order, then independent forward edges."""
    while True:
        order = rng.permutation(p)
        edges = set()
        for i in range(p):
            for j in range(i + 1, p):
                if rng.random() < edge_prob:
                    edges.add((int(order[i]), int(order[j])))
        if max_edges is None or len(edges) <= max_edges:
            return Dag(p, frozenset(edges))


def sem_covariance(g: Dag, rng: np.random.Generator, low: float = 0.5, high: float = 2.0) -> np.ndarray:
    """Exact covariance of the linear SEM X_v = sum_u B[u,v] X_u + eps_v.

    Coefficients are drawn uniformly from [low, high]; unit noise variances.
    All-positive weights keep path contributions from cancelling, so the
    zero pattern of partial correlations matches d-separation exactly.
    """
    coeff = np.zeros((g.p, g.p))
    for u, v in sorted(g.edges):
        coeff[u, v] = rng.uniform(low, high)
    inv = np.linalg.inv(np.eye(g.p) - coeff.T)
    return inv @ inv.T


def residual_partial_corr(values: np.ndarray, i: int, j: int, k) -> float:
    """Partial correlation as the correlation of least-squares residuals."""
    k = list(k)
    design = np.column_stack([np.ones(values.shape[0])] + [values[:, c] for c in k])
    beta_i, *_ = np.linalg.lstsq(design, values[:, i], rcond=None)
    beta_j, *_ = np.linalg.lstsq(design, values[:, j], rcond=None)
    res_i = values[:, i] - design @ beta_i
    res_j = values[:, j] - design @ beta_j
    return float(np.corrcoef(res_i, res_j)[0, 1])


def bandwidth_oracle(column: np.ndarray) -> float:
    """The kernel bandwidth of one column from all n (n - 1) / 2 squared distances.

    The dense path's rule (hsic._bandwidth over pdist), whose bits the
    single-column selection from sorted values must match.
    """
    return hsic._bandwidth(pdist(np.asarray(column, dtype=np.float64)[:, None], "sqeuclidean"))


def kernel_factor_oracle(arr: np.ndarray, reg: float) -> np.ndarray:
    """hsic._factor with its m x m solve through scipy.linalg's checked wrappers.

    Everything up to the centered pivoted-Cholesky factor L is the package's
    own; the tail solves C C^T = L^T L + reg I with scipy.linalg.cholesky and
    solve_triangular, whose bits _factor's direct LAPACK calls must match.
    """
    n = len(arr)
    condensed = hsic._kernel(arr)
    if condensed is None:
        return np.zeros((n, 0))
    packed, piv, rank, _ = lapack.dpstrf(hsic._full_kernel(condensed).T, tol=hsic._PIVOT_TOL,
                                         lower=1, overwrite_a=1)
    low = np.empty((n, rank))
    low[piv - 1] = np.tril(packed[:, :rank])
    low -= low.mean(axis=0)
    inner = low.T @ low
    inner[np.diag_indices(rank)] += reg
    chol = sla.cholesky(inner, lower=True)
    return sla.solve_triangular(chol, low.T, lower=True).T


def gen_linear_var_loop(cfg: SimConfig) -> DataMatrix:
    """simulate.gen_linear_var as its recursion, one row at a time."""
    rng = make_generator(cfg.seed)
    total = cfg.n + cfg.burn_in
    state = rng.normal(0.0, cfg.eta, size=4)
    eps = rng.normal(0.0, cfg.eta, size=(total, 4))
    out = np.empty((total, 4), dtype=np.float64)
    for t in range(total):
        row = np.array([
            1.0 + eps[t, 0],
            -1.0 + eps[t, 1],
            2.0 * state[0] + state[1] + eps[t, 2],
            2.0 * state[2] + eps[t, 3],
        ])
        out[t] = row
        state = row
    return DataMatrix(out[cfg.burn_in:])


def gen_nonlinear_var_loop(cfg: SimConfig) -> DataMatrix:
    """simulate.gen_nonlinear_var as its recursion, one row at a time."""
    rng = make_generator(cfg.seed)
    total = cfg.n + cfg.burn_in
    state = rng.uniform(0.0, cfg.eta, size=4)
    noise = rng.uniform(0.0, cfg.eta, size=(total, 4))
    out = np.empty((total, 4), dtype=np.float64)
    for t in range(total):
        row = np.array([
            noise[t, 0],
            noise[t, 1],
            4.0 * math.sin(state[0]) + 3.0 * math.cos(state[1]) + noise[t, 2],
            2.0 * math.sin(state[2]) + noise[t, 3],
        ])
        out[t] = row
        state = row
    return DataMatrix(out[cfg.burn_in:])
