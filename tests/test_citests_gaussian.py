"""Covariance, partial correlation, and the Fisher z decision rule."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy import stats

from tspc.citests import (
    CiOutcome,
    CiQuery,
    CiTestError,
    CovMatrix,
    GaussianCiConfig,
    fisher_z,
    gaussian_ci_test,
    gaussian_gamma,
    partial_correlation,
    sample_covariance,
)
from tspc.data import DataMatrix
from tspc.pc import CiQueryError, PcConfig, pc
from tspc.rng import derive_seed, make_generator

from .oracles import random_dag, residual_partial_corr, sem_covariance


class TestCiQuery:
    def test_identical_endpoints_rejected(self):
        with pytest.raises(ValueError):
            CiQuery(1, 1)

    def test_endpoint_in_conditioning_set_rejected(self):
        with pytest.raises(ValueError):
            CiQuery(0, 1, (1,))

    def test_duplicate_conditioners_rejected(self):
        with pytest.raises(ValueError):
            CiQuery(0, 1, (2, 2))


class TestCiOutcome:
    def test_decision_uses_absolute_value(self):
        assert CiOutcome(-0.3, 0.5).independent
        assert not CiOutcome(-0.7, 0.5).independent

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(statistic=st.floats(), threshold=st.floats(min_value=0.0, allow_infinity=False))
    def test_verdict_is_the_absolute_statistic_against_the_threshold(self, statistic,
                                                                     threshold):
        assert CiOutcome(statistic, threshold).independent == (abs(statistic) <= threshold)

    @pytest.mark.parametrize("statistic", [math.nan, math.inf, -math.inf])
    def test_nan_and_infinite_statistics_read_dependent(self, statistic):
        assert not CiOutcome(statistic, 1e308).independent


class TestSampleCovariance:
    def test_identical_columns(self):
        v = np.array([[1.0, 1.0], [4.0, 4.0], [2.0, 2.0]])
        cov = sample_covariance(v)
        assert cov.sigma[0, 1] == pytest.approx(cov.sigma[0, 0])

    def test_constant_column_zero_row(self):
        v = np.column_stack([np.ones(5), np.arange(5.0)])
        cov = sample_covariance(v)
        assert cov.sigma[0, 0] == 0.0
        assert cov.sigma[0, 1] == 0.0

    def test_hand_computed_entries(self):
        # centered squares sum to 5, over n=4: every entry 1.25
        v = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        cov = sample_covariance(v)
        assert np.allclose(cov.sigma, 1.25)
        assert cov.n == 4

    def test_accepts_data_matrix(self):
        d = DataMatrix([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert np.allclose(sample_covariance(d).sigma, 1.25)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones((1, 2)))


class TestCovMatrix:
    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError):
            CovMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]), n=10)

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ValueError):
            CovMatrix(np.array([[-1.0, 0.0], [0.0, 1.0]]), n=10)

    def test_infinite_variance_rejected(self):
        with pytest.raises(ValueError, match=r"not finite in column\(s\) 1:"):
            CovMatrix([[math.inf, 0.0], [0.0, 1.0]], 10)

    def test_overflowing_variance_is_an_error_not_an_empty_graph(self):
        # Column 3's variance overflows float64: an error naming it, not a
        # search whose level-0 queries divide by an infinite variance.
        x = make_generator(9310).normal(size=(200, 3))
        x[:, 2] = 1e200 * x[:, 0] + 1e199 * x[:, 1]
        with pytest.raises(ValueError, match=r"not finite in column\(s\) 3:"):
            sample_covariance(x)
        with pytest.raises(ValueError, match=r"not finite in column\(s\) 3:"):
            pc(x)


class TestPartialCorrelation:
    def test_empty_set_reduces_to_correlation(self):
        cov = CovMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), n=100)
        assert partial_correlation(cov, CiQuery(0, 1)) == pytest.approx(0.5)

    def test_chain_middle_screens_off(self):
        # X -> Y -> Z with unit weights and noises: Sigma from the equations
        sigma = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 3.0]])
        cov = CovMatrix(sigma, n=100)
        assert partial_correlation(cov, CiQuery(0, 2, (1,))) == pytest.approx(0.0, abs=1e-12)
        assert partial_correlation(cov, CiQuery(0, 2)) == pytest.approx(1.0 / math.sqrt(3.0))

    def test_collinear_conditioning_set(self):
        sigma = np.zeros((3, 3))
        sigma[0, 0] = sigma[1, 1] = 1.0
        cov = CovMatrix(sigma, n=10)
        with pytest.raises(CiTestError, match="collinear"):
            partial_correlation(cov, CiQuery(0, 1, (2,)))

    def test_degenerate_residual_variance(self):
        # X and Z are copies, so conditioning on Z kills X's variance
        sigma = np.ones((3, 3))
        cov = CovMatrix(sigma, n=10)
        with pytest.raises(CiTestError):
            partial_correlation(cov, CiQuery(0, 1, (2,)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_matches_regression_residuals(self, seed):
        # Schur complement of the sample covariance == correlation of
        # least-squares residuals, an exact finite-sample identity
        rng = make_generator(derive_seed(9100, seed))
        values = rng.normal(size=(40, 4))
        cov = sample_covariance(values)
        k = tuple(int(v) for v in rng.choice([2, 3], size=rng.integers(0, 3), replace=False))
        got = partial_correlation(cov, CiQuery(0, 1, k))
        want = residual_partial_corr(values, 0, 1, k)
        assert got == pytest.approx(want, abs=1e-10)


class TestFisherZ:
    def test_zero(self):
        assert fisher_z(0.0) == 0.0

    def test_half_is_half_log_three(self):
        assert fisher_z(0.5) == pytest.approx(0.5 * math.log(3.0))
        assert fisher_z(0.5) == pytest.approx(0.549306, abs=1e-6)

    def test_odd_function(self):
        for r in (0.1, 0.6, 0.95):
            assert fisher_z(-r) == pytest.approx(-fisher_z(r))

    def test_strictly_increasing(self):
        grid = np.linspace(-0.99, 0.99, 41)
        vals = [fisher_z(float(r)) for r in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_saturated_rejected(self):
        with pytest.raises(ValueError):
            fisher_z(1.0)


class TestGaussianGamma:
    def test_alpha_half_is_zero(self):
        assert gaussian_gamma(0.5, 100, 2) == pytest.approx(0.0, abs=1e-12)

    def test_textbook_values(self):
        assert gaussian_gamma(0.05, 1000, 1) == pytest.approx(0.052119, abs=1e-5)
        assert gaussian_gamma(0.05, 103, 0) == pytest.approx(0.164485, abs=1e-6)

    def test_sample_too_small(self):
        with pytest.raises(ValueError):
            gaussian_gamma(0.05, 5, 2)

    def test_shrinks_with_n(self):
        gammas = [gaussian_gamma(0.05, n, 0) for n in (50, 100, 500, 1000)]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))


class TestGaussianCiTest:
    def test_exact_diagonal_is_independent(self):
        cov = CovMatrix(np.eye(3), n=100)
        out = gaussian_ci_test(cov, CiQuery(0, 2), GaussianCiConfig(alpha=0.05))
        assert out.independent
        assert out.statistic == 0.0

    def test_saturated_correlation_is_dependent(self):
        cov = CovMatrix(np.ones((2, 2)), n=100)
        out = gaussian_ci_test(cov, CiQuery(0, 1), GaussianCiConfig(alpha=0.05))
        assert out.statistic == math.inf
        assert not out.independent

    def test_fixed_gamma_mode(self):
        cov = CovMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), n=100)
        out = gaussian_ci_test(cov, CiQuery(0, 1), GaussianCiConfig(gamma=0.6))
        assert out.threshold == 0.6
        assert out.independent  # atanh(0.5) = 0.549 < 0.6

    def test_config_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            GaussianCiConfig()
        with pytest.raises(ValueError):
            GaussianCiConfig(alpha=0.05, gamma=0.1)

    def test_chain_monte_carlo_calibration(self):
        # X -> Y -> Z, n=1000, alpha=0.05. The threshold is a one-sided
        # quantile compared two-sided, so the null acceptance rate is near
        # 1 - 2*alpha = 0.9; the dependent pair is essentially always caught.
        accept_screened = 0
        reject_marginal = 0
        for s in range(100):
            rng = make_generator(derive_seed(102, s))
            x = rng.normal(size=1000)
            y = x + rng.normal(size=1000)
            z = y + rng.normal(size=1000)
            cov = sample_covariance(np.column_stack([x, y, z]))
            cfg = GaussianCiConfig(alpha=0.05)
            accept_screened += gaussian_ci_test(cov, CiQuery(0, 2, (1,)), cfg).independent
            reject_marginal += not gaussian_ci_test(cov, CiQuery(0, 1), cfg).independent
        assert accept_screened >= 90
        assert reject_marginal >= 99


class TestAgainstSemOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6))
    def test_zero_pattern_matches_d_separation(self, seed):
        # exact SEM covariance: partial correlation vanishes exactly when
        # the query pair is d-separated by the conditioning set
        from tspc.graphs import d_separated

        rng = make_generator(derive_seed(9200, seed))
        g = random_dag(rng, 4, edge_prob=0.5)
        cov = CovMatrix(sem_covariance(g, rng), n=1000)
        for i in range(4):
            for j in range(i + 1, 4):
                others = [v for v in range(4) if v not in (i, j)]
                for mask in range(4):
                    k = tuple(v for b, v in enumerate(others) if (mask >> b) & 1)
                    rho = partial_correlation(cov, CiQuery(i, j, k))
                    sep = d_separated(g, {i}, {j}, set(k))
                    assert (abs(rho) < 1e-10) == sep


def _reference_partial_correlation(sigma: np.ndarray, query: CiQuery) -> float:
    # The Schur-complement formula on the full sub-block, with scipy.linalg's
    # checked Cholesky factor and solve, and the package's error rules: a
    # failed factor or a pivot below 1e-12 of the trace is collinear, and a
    # residual variance at or below zero is degenerate.
    idx = [query.i, query.j, *query.k]
    sub = sigma[np.ix_(idx, idx)]
    cond = sub[:2, :2]
    if query.k:
        s22 = sub[2:, 2:]
        try:
            chol = sla.cholesky(s22, lower=True)
        except sla.LinAlgError:
            raise CiTestError("conditioning set collinear") from None
        if np.min(np.diag(chol)) ** 2 < 1e-12 * np.trace(s22):
            raise CiTestError("conditioning set collinear")
        cond = cond - sub[:2, 2:] @ sla.cho_solve((chol, True), sub[:2, 2:].T)
    if cond[0, 0] <= 0.0 or cond[1, 1] <= 0.0:
        raise CiTestError("degenerate residual variance")
    return float(cond[0, 1] / math.sqrt(cond[0, 0] * cond[1, 1]))


def _every_query(p: int):
    # Ordered pairs, every conditioning set up to size p - 2.
    for i in range(p):
        for j in range(p):
            if i != j:
                others = [v for v in range(p) if v not in (i, j)]
                for level in range(p - 1):
                    for k in combinations(others, level):
                        yield CiQuery(i, j, k)


def _outcome(partial, query: CiQuery) -> str:
    try:
        return partial(query).hex()
    except CiTestError as exc:
        return str(exc)


def _reference_gamma(alpha: float, n: int, cond_size: int) -> float:
    return float(stats.norm.ppf(1.0 - alpha) / math.sqrt(n - cond_size - 3))


class TestBitForBit:
    """The query path returns exactly the bits of the reference formulas."""

    P = 6

    def _covariances(self):
        for seed in range(4):
            rng = make_generator(derive_seed(9300, seed))
            yield sample_covariance(rng.normal(size=(30, self.P)))
            a = rng.normal(size=(self.P, self.P))
            yield CovMatrix(a @ a.T + 0.1 * np.eye(self.P), n=500)

    def test_partial_correlation_every_level(self):
        checked = 0
        for cov in self._covariances():
            for query in _every_query(self.P):
                got = partial_correlation(cov, query)
                want = _reference_partial_correlation(cov.sigma, query)
                assert got.hex() == want.hex(), query
                checked += 1
        assert checked == 8 * 30 * (1 + 4 + 6 + 4 + 1)

    @pytest.mark.parametrize("case, messages", [
        ("duplicated", {"conditioning set collinear", "degenerate residual variance"}),
        ("constant", {"conditioning set collinear", "degenerate residual variance"}),
        ("determined", {"degenerate residual variance"}),
    ])
    def test_same_errors_at_the_same_queries(self, case, messages):
        # 32 rows of +-1 and +-2 Walsh columns give exact covariances with
        # square-root pivots, so a copy or an exact combination leaves a
        # residual variance of exactly zero; columns 1 and 4 are normal draws.
        walsh = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]] * 8)
        values = np.column_stack([
            np.zeros(32), make_generator(9303).normal(size=32), 2.0 * walsh[:, 0],
            walsh[:, 1], make_generator(9304).normal(size=32),
        ])
        if case == "duplicated":
            values[:, 0] = values[:, 2]
        elif case == "constant":
            values[:, 0] = make_generator(9305).normal(size=32)
            values[:, 4] = 2.5
        else:
            values[:, 0] = values[:, 2] + values[:, 3]
        cov = sample_covariance(values)
        queries = list(_every_query(5))
        got = [_outcome(lambda q: partial_correlation(cov, q), q) for q in queries]
        want = [_outcome(lambda q: _reference_partial_correlation(cov.sigma, q), q)
                for q in queries]
        assert got == want
        assert messages <= set(want)

    def test_gaussian_gamma(self):
        for alpha in (1e-6, 0.001, 0.01, 0.05, 0.2, 0.5, 0.6, 0.999):
            for cond_size in (0, 1, 2, 3, 4, 10, 30):
                for n in (cond_size + 4, cond_size + 5, 50, 51, 1000, 199_999):
                    got = gaussian_gamma(alpha, n, cond_size)
                    want = _reference_gamma(alpha, n, cond_size)
                    assert got.hex() == want.hex(), (alpha, n, cond_size)

    def test_ci_test_threshold_is_the_gamma(self):
        cov = sample_covariance(make_generator(9301).normal(size=(12, 4)))
        for alpha in (1e-6, 0.6):
            for k in ((), (2,), (2, 3)):
                out = gaussian_ci_test(cov, CiQuery(0, 1, k), GaussianCiConfig(alpha=alpha))
                assert out.threshold.hex() == _reference_gamma(alpha, 12, len(k)).hex()

    def test_collinear_conditioning_set_raises(self):
        sigma = np.ones((4, 4)) + np.eye(4)
        sigma[2, 3] = sigma[3, 2] = sigma[2, 2]
        with pytest.raises(CiTestError, match="collinear"):
            partial_correlation(CovMatrix(sigma, n=50), CiQuery(0, 1, (2, 3)))

    def test_pc_reports_the_collinear_query(self):
        # Column 3 is column 2 plus a 1e-7 perturbation: no residual variance
        # vanishes, but the block {3, 4} is numerically singular.  A tiny
        # fixed gamma keeps every edge, so the first level-2 query hits it.
        rng = make_generator(9302)
        values = rng.normal(size=(60, 4))
        values[:, 3] = values[:, 2] + 1e-7 * rng.normal(size=60)
        with pytest.raises(CiQueryError, match=r"\(1, 2 \| \{3, 4\}\).*collinear"):
            pc(values, PcConfig(GaussianCiConfig(gamma=1e-12)))
