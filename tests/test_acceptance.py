"""Acceptance gate: ten checks covering exactness of the population searches,
the analytic independence oracles, benchmark reproduction bars, consistency
decay, metric arithmetic, and byte-level determinism.

Each test prints one PASS/FAIL verdict line with capture suspended, so the
lines show up in a plain ``pytest -v`` log, and then asserts on the same
condition.
"""

import time
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from tspc.citests import (
    CiQuery,
    CovMatrix,
    GaussianCiConfig,
    partial_correlation,
    sample_covariance,
)
from tspc.evaluate import EdgeConfusion, metrics
from tspc.graphs import Pdag, roll
from tspc.pc import PcConfig
from tspc.reproduce import SweepConfig, frequency_csv, metrics_csv, run_sweep
from tspc.rng import derive_seed, make_generator
from tspc.simulate import SimConfig, generate
from tspc.tpc import WindowConfig, tpc, unroll

from .oracles import (
    consensus_cpdag_oracle,
    d_separated_paths,
    equivalence_class_oracle,
    population_pc,
    random_dag,
    rolled_edges_of_member,
    sem_covariance,
)


@pytest.fixture
def verdict(capsys):
    def emit(number: int, ok: bool, detail: str) -> None:
        line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


@pytest.fixture(scope="session")
def sweep_linvar():
    return run_sweep(SweepConfig(paradigm="LinearGaussianVAR", methods=("PC", "TPCS", "TPCNS")))


@pytest.fixture(scope="session")
def sweep_varma():
    return run_sweep(SweepConfig(paradigm="ContemporaneousVARMA", methods=("PC",)))


@pytest.fixture(scope="session")
def sweep_nonlinear():
    return run_sweep(SweepConfig(paradigm="NonlinearNonGaussianVAR", methods=("TPCSHS",)))


@pytest.fixture(scope="session")
def sweep_ctrnn():
    return run_sweep(SweepConfig(paradigm="CTRNN", methods=("TPCNS",)))


def cell_of(sweep, method):
    return next(c for c in sweep.cells if c.method == method)


def test_criterion_1_population_search_exactness(verdict):
    # 500 random DAGs, 3 to 6 nodes, at most 10 edges so the brute-force
    # class enumeration stays within the runtime budget
    start = time.time()
    failures = 0
    for i in range(500):
        rng = make_generator(derive_seed(8000, i))
        p = int(rng.integers(3, 7))
        g = random_dag(rng, p, 0.4, max_edges=10)
        if population_pc(g) != Pdag(p, *consensus_cpdag_oracle(g)):
            failures += 1
    elapsed = time.time() - start
    verdict(
        1,
        failures == 0 and elapsed < 60.0,
        f"population search equals the class vote on "
        f"500 random DAGs, {failures} failures ({elapsed:.1f}s)",
    )


def test_criterion_2_dseparation_matches_vanishing_partial_correlation(verdict):
    start = time.time()
    failures = 0
    total = 0
    for i in range(200):
        rng = make_generator(derive_seed(8100, i))
        p = int(rng.integers(3, 6))
        g = random_dag(rng, p, 0.45)
        exact = CovMatrix(sem_covariance(g, rng), n=1000)
        for a, b in combinations(range(p), 2):
            rest = [v for v in range(p) if v not in (a, b)]
            for size in range(min(3, len(rest)) + 1):
                for k in combinations(rest, size):
                    total += 1
                    rho = partial_correlation(exact, CiQuery(a, b, k))
                    separated = d_separated_paths(g, {a}, {b}, set(k))
                    if (abs(rho) < 1e-10) != separated:
                        failures += 1
    elapsed = time.time() - start
    verdict(
        2,
        failures == 0 and elapsed < 60.0,
        f"zero partial correlation iff d-separated on 200 linear systems, "
        f"{failures} of {total} queries wrong ({elapsed:.1f}s)",
    )


def test_criterion_3_rolled_parents_equal_class_union(verdict):
    start = time.time()
    failures = 0
    shapes = [(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]
    for i in range(200):
        rng = make_generator(derive_seed(8200, i))
        p, tau = shapes[int(rng.integers(len(shapes)))]
        g = random_dag(rng, p * tau, 0.4, max_edges=10)
        union = set()
        for member in equivalence_class_oracle(g):
            union |= rolled_edges_of_member(member, p)
        if union != set(roll(Pdag(g.p, *consensus_cpdag_oracle(g)), p, tau).edges):
            failures += 1
    elapsed = time.time() - start
    verdict(
        3,
        failures == 0,
        f"rolled completed graph equals the union over the equivalence class "
        f"on 200 window graphs, {failures} failures ({elapsed:.1f}s)",
    )


def test_criterion_4_linear_var_reproduction(verdict, sweep_linvar):
    start = time.time()
    cs = {m: cell_of(sweep_linvar, m).reports[0].cs for m in ("PC", "TPCS", "TPCNS")}
    elapsed = time.time() - start
    ok = (
        abs(cs["TPCNS"] - 100.0) <= 5.0
        and cs["TPCS"] >= 90.0
        and -10.0 <= cs["PC"] <= 10.0
    )
    verdict(
        4,
        ok,
        f"linear VAR combined scores PC={cs['PC']:.2f} TPCS={cs['TPCS']:.2f} "
        f"TPCNS={cs['TPCNS']:.2f} ({elapsed:.1f}s)",
    )


def test_criterion_5_varma_contemporaneous_reproduction(verdict, sweep_varma):
    cell = cell_of(sweep_varma, "PC")
    f13 = cell.frequencies[(0, 2)]
    f23 = cell.frequencies[(1, 2)]
    cs = cell.reports[0].cs
    verdict(
        5,
        f13 >= 90.0 and f23 >= 90.0 and cs >= 60.0,
        f"plain search on the mixing process finds 1->3 in {f13:.0f}% and "
        f"2->3 in {f23:.0f}% of seeds, CS={cs:.2f}",
    )


@pytest.mark.slow
def test_criterion_6_nonlinear_var_kernel_reproduction(verdict, sweep_nonlinear):
    # kernel tests run on at most 400 strided rows per query (the sweep
    # default); the bars are checked under that documented cap
    cell = cell_of(sweep_nonlinear, "TPCSHS")
    report = cell.reports[0]
    verdict(
        6,
        report.tpr >= 90.0 and report.ifpr >= 95.0,
        f"kernel-backed windowed search on the nonlinear process: "
        f"TPR={report.tpr:.2f} IFPR={report.ifpr:.2f} (400-row cap per test)",
    )


def test_criterion_7_ctrnn_self_loop_recovery(verdict, sweep_ctrnn):
    cell = cell_of(sweep_ctrnn, "TPCNS")
    needed = {(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (1, 2)}
    joint = sum(1 for g in cell.estimates if needed <= set(g.edges))
    ifpr = cell.reports[0].ifpr
    verdict(
        7,
        joint >= 20 and ifpr >= 95.0,
        f"all four self-loops plus 1->3 and 2->3 recovered together in "
        f"{joint}/25 seeds, IFPR={ifpr:.2f}",
    )


def test_criterion_8_error_and_correlation_decay(verdict):
    start = time.time()
    # exact lagged covariance of the stacked two-window vector, from the
    # discrete Lyapunov equation of the driving recursion
    A = np.array(
        [[0, 0, 0, 0], [0, 0, 0, 0], [2, 1, 0, 0], [0, 0, 2, 0]], dtype=float
    )
    S = solve_discrete_lyapunov(A, np.eye(4))
    Sigma = np.block([[S, S @ A.T], [A @ S, S]])
    target = Pdag(8, frozenset({(0, 6), (1, 6)}), frozenset({(2, 7)}))
    # half the smallest nonzero population threshold keeps the fixed-gamma
    # search consistent while leaving finite-sample room to fail
    c = 0.43350736324528266
    config = PcConfig(GaussianCiConfig(gamma=c / 2))
    window = WindowConfig(tau=2, r=2)
    ns = (250, 1000, 4000)

    rates = []
    for n in ns:
        wrong = 0
        for seed in range(100):
            data = generate(
                SimConfig(paradigm="LinearGaussianVAR", eta=1.0, n=n, seed=derive_seed(42, n, seed))
            )
            if tpc(data, window, config).pc.pdag != target:
                wrong += 1
        rates.append(wrong / 100)
    rate_ok = rates[0] >= rates[1] >= rates[2]

    queries = [
        CiQuery(i, j, k)
        for i, j in combinations(range(8), 2)
        for k in [()] + [(v,) for v in range(8) if v not in (i, j)]
    ]
    exact = CovMatrix(Sigma, n=1000)
    true_rho = {q: partial_correlation(exact, q) for q in queries}
    medians = {}
    for n in ns:
        deviations = {q: [] for q in queries}
        for seed in range(100):
            data = generate(
                SimConfig(paradigm="LinearGaussianVAR", eta=1.0, n=n, seed=derive_seed(43, n, seed))
            )
            cov = sample_covariance(unroll(data, window))
            for q in queries:
                deviations[q].append(abs(partial_correlation(cov, q) - true_rho[q]))
        medians[n] = {q: float(np.median(v)) for q, v in deviations.items()}
    bad_queries = sum(
        1 for q in queries if not (medians[250][q] > medians[1000][q] > medians[4000][q])
    )
    elapsed = time.time() - start
    verdict(
        8,
        rate_ok and bad_queries == 0,
        f"graph error rate {rates[0]:.2f}/{rates[1]:.2f}/{rates[2]:.2f} over "
        f"n=250/1000/4000 and all {len(queries)} low-order correlation medians "
        f"strictly shrink, {bad_queries} exceptions ({elapsed:.1f}s)",
    )


def test_criterion_9_metric_triples_exact(verdict):
    perfect = metrics(EdgeConfusion(3, 0, 13, 0))
    pooled = metrics(EdgeConfusion(75, 14, 311, 0))
    pairwise = metrics(EdgeConfusion(0, 1, 12, 3))
    ok = (
        (perfect.tpr, perfect.ifpr, perfect.cs) == (100.0, 100.0, 100.0)
        and pooled.tpr == 100.0
        and round(pooled.ifpr, 1) == 95.7
        and round(pooled.cs, 1) == 95.7
        and pairwise.tpr == 0.0
        and round(pairwise.ifpr, 1) == 92.3
        and round(pairwise.cs, 1) == -7.7
    )
    verdict(
        9,
        ok,
        "printed score triples 100/100/100, 100/95.7/95.7, 0/92.3/-7.7 "
        "reproduced exactly in the condition-positives TPR mode",
    )


@pytest.mark.slow
def test_criterion_10_sweeps_are_byte_deterministic(
    verdict, sweep_linvar, sweep_varma, sweep_nonlinear, sweep_ctrnn
):
    start = time.time()
    firsts = (sweep_linvar, sweep_varma, sweep_nonlinear, sweep_ctrnn)
    mismatches = []
    for first in firsts:
        second = run_sweep(first.config)
        if metrics_csv(first) != metrics_csv(second):
            mismatches.append(f"{first.config.paradigm} metrics")
        if frequency_csv(first) != frequency_csv(second):
            mismatches.append(f"{first.config.paradigm} frequencies")
    elapsed = time.time() - start
    verdict(
        10,
        not mismatches,
        f"reruns of the four reproduction sweeps are byte-identical "
        f"({elapsed:.1f}s)" if not mismatches else f"mismatches: {mismatches}",
    )
