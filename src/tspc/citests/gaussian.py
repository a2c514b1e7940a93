"""Partial-correlation test for Gaussian data.

The statistic is the Fisher z-transform of the sample partial correlation of
the tested pair given the conditioning set.  Under joint Gaussianity the
transformed statistic is approximately N(0, 1/(n - |k| - 3)) when the true
partial correlation is zero, which gives the threshold its closed form.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.special import ndtri

from ..data import DataMatrix
from .base import CiOutcome, CiQuery, CiTestError

__all__ = [
    "CovMatrix",
    "GaussianCiConfig",
    "sample_covariance",
    "sample_covariances",
    "partial_correlation",
    "fisher_z",
    "gaussian_gamma",
    "gaussian_ci_test",
    "gaussian_ci_tests",
    "FISHER_Z_MIN_ROWS",
    "Level0",
]

# Cholesky pivots below this fraction of the trace mean the conditioning
# block is numerically rank-deficient.
_PIVOT_TOL = 1e-12

# Below this a product of variances has lost bits to underflow.
_NORMAL_MIN = sys.float_info.min

# The alpha-mode threshold needs n - |k| - 3 > 0: a sample needs this many
# rows for the empty conditioning set, and one more per conditioning variable.
FISHER_Z_MIN_ROWS = 4

# A level-0 table and its threshold: table[i][j] == table[j][i] is the
# statistic of (i, j | {}), and the threshold is that of an empty set.
Level0 = tuple[list[list[float]], float]

# sample_covariances stacks at most this many values (512 KB) per chunk.
_STACK_VALUES = 1 << 16


@dataclass(frozen=True)
class CovMatrix:
    """A p-by-p covariance estimate together with the sample count behind it."""

    sigma: np.ndarray
    n: int

    def __post_init__(self) -> None:
        arr = np.array(self.sigma, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"covariance must be square, got shape {arr.shape}")
        # Before the symmetry check, whose tolerance would be inf.  Checked
        # once per covariance, so partial_correlation does not check again.
        finite = np.isfinite(arr)
        if not finite.all():
            bad = ", ".join(str(c + 1) for c in np.flatnonzero(~finite.all(axis=0)))
            raise ValueError(
                f"covariance is not finite in column(s) {bad}: the data hold inf or "
                "nan, or a variance overflows float64"
            )
        # The tolerance check runs only on a matrix that is not exactly
        # symmetric, which sample_covariance never builds.
        if not (arr == arr.T).all():
            if not np.allclose(arr, arr.T, rtol=0.0, atol=1e-8 * (1.0 + np.abs(arr).max())):
                raise ValueError("covariance must be symmetric")
            arr = (arr + arr.T) / 2.0
        if np.any(np.diag(arr) < -1e-12):
            raise ValueError("covariance diagonal must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "sigma", arr)
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"sample count must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def p(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True)
class GaussianCiConfig:
    """Threshold policy: exactly one of alpha (level) or gamma (fixed cut).

    alpha mode derives the cut Phi^{-1}(1 - alpha) / sqrt(n - |k| - 3) from
    the sample and conditioning sizes, computing the normal quantile once per
    alpha; gamma mode compares |z| against the same constant everywhere,
    which is the regime the consistency guarantees speak about.
    """

    alpha: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        if (self.alpha is None) == (self.gamma is None):
            raise ValueError("exactly one of alpha and gamma must be set")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.gamma is not None and not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


def sample_covariance(values: DataMatrix | np.ndarray) -> CovMatrix:
    """Covariance about the sample mean with 1/n normalization."""
    if isinstance(values, DataMatrix):
        values = values.values
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"data must be two-dimensional, got shape {arr.shape}")
    return next(sample_covariances(arr, (0,), len(arr)))


def sample_covariances(values: np.ndarray, starts: Sequence[int], length: int
                       ) -> Iterator[CovMatrix]:
    """sample_covariance of each segment values[s:s + length], in the order of starts.

    Segments are stacked and computed together, centering and then C^T C / n
    on the stack, with the bits of one segment at a time: the row sums run
    in the same order and each product is its own BLAS call.  A chunk holds
    at most _STACK_VALUES values, or one segment, which is a view and not a
    copy.  The covariances are checked one at a time as they are taken, so
    a bad segment raises only once the ones before it are used.
    """
    if length < 2:
        raise ValueError(f"need at least 2 rows, got {length}")
    per_chunk = max(1, _STACK_VALUES // (length * values.shape[1] or 1))
    for at in range(0, len(starts), per_chunk):
        chunk = starts[at:at + per_chunk]
        if len(chunk) == 1:
            stack = values[None, chunk[0]:chunk[0] + length]
        else:
            stack = values[np.add.outer(chunk, np.arange(length))]
        # An overflow is reported by CovMatrix, naming the column.
        with np.errstate(over="ignore", invalid="ignore"):
            centered = stack - stack.mean(axis=1, keepdims=True)
            sigmas = centered.transpose(0, 2, 1) @ centered / length
        for sigma in sigmas:
            yield CovMatrix(sigma, length)


def partial_correlation(cov: CovMatrix, query: CiQuery) -> float:
    """Correlation of the pair after conditioning, via the Schur complement.

    The pair is permuted to the leading block and the conditioning set to the
    trailing block; the conditional covariance of the pair is then
    S11 - S12 S22^{-1} S21, factorizing the conditioning block by Cholesky.
    For two or more conditioning variables the factor and the solve are the
    LAPACK calls (dpotrf, dpotrs) behind scipy.linalg.cholesky and
    cho_solve, without their per-call checks: CovMatrix rejected non-finite
    entries, and the blocks are tiny.  One conditioning variable is the
    same operations on a 1x1 block in closed form, with their bits on any
    BLAS: the solve multiplies by the reciprocal pivot 1 / sqrt(s_kk), and
    the product S12 w starts its sum at +0.0.
    """
    p = cov.p
    for v in (query.i, query.j, *query.k):
        if not 0 <= v < p:
            raise ValueError(f"variable {v} out of range for p={p}")
    sigma = cov.sigma
    if len(query.k) == 1:
        # dpotrf, dpotrs and s12 @ w on a 1x1 block, in their order: the
        # solves multiply by the reciprocal pivot, and the product's sum
        # starts at +0.0, which turns a -0.0 product into +0.0.
        i, j, (k,) = query.i, query.j, query.k
        s_kk = sigma.item(k, k)
        if s_kk <= 0.0:
            raise CiTestError("conditioning set collinear")
        root = math.sqrt(s_kk)
        if root * root < _PIVOT_TOL * s_kk:
            raise CiTestError("conditioning set collinear")
        inv = 1.0 / root
        s_ik, s_jk = sigma.item(i, k), sigma.item(j, k)
        w_i, w_j = s_ik * inv * inv, s_jk * inv * inv
        var_i = sigma.item(i, i) - (0.0 + s_ik * w_i)
        var_j = sigma.item(j, j) - (0.0 + s_jk * w_j)
        cov_ij = sigma.item(i, j) - (0.0 + s_ik * w_j)
    elif query.k:
        idx = [query.i, query.j, *query.k]
        # C-ordered like sigma[np.ix_(idx, idx)], so s12 @ w runs the same BLAS call.
        sub = sigma.take(idx, 0).take(idx, 1)
        s12 = sub[:2, 2:]
        s22 = sub[2:, 2:]
        chol, info = lapack.dpotrf(s22, lower=1, clean=1)
        if info > 0 or chol.diagonal().min() ** 2 < _PIVOT_TOL * s22.trace():
            raise CiTestError("conditioning set collinear")
        # S22^{-1} S21 through the existing factor, no explicit inverse.
        w, _ = lapack.dpotrs(chol, s12.T, lower=1)
        (var_i, cov_ij), (_, var_j) = (sub[:2, :2] - s12 @ w).tolist()
    else:
        i, j = query.i, query.j
        var_i, var_j, cov_ij = sigma.item(i, i), sigma.item(j, j), sigma.item(i, j)
    if var_i <= 0.0 or var_j <= 0.0:
        raise CiTestError("degenerate residual variance")
    return _correlation(cov_ij, var_i, var_j)


def _correlation(cov_ij: float, var_i: float, var_j: float) -> float:
    """cov_ij / sqrt(var_i var_j) for positive variances, at any scale of the data.

    The product of the variances is taken first, unless it is not a finite
    normal number (it overflows or underflows on data in large or small
    units); then the square roots are, so rescaling the data cannot turn a
    correlation into 0 or inf.
    """
    product = var_i * var_j
    if _NORMAL_MIN <= product < math.inf:
        return cov_ij / math.sqrt(product)
    return cov_ij / (math.sqrt(var_i) * math.sqrt(var_j))


def fisher_z(rho: float) -> float:
    """atanh of the correlation; requires |rho| < 1."""
    if not -1.0 < rho < 1.0:
        raise ValueError(f"correlation must satisfy |rho| < 1, got {rho}")
    return math.atanh(rho)


def _statistic(rho: float) -> float:
    return math.inf if abs(rho) >= 1.0 else fisher_z(rho)


@functools.lru_cache(maxsize=None)
def _upper_quantile(alpha: float) -> float:
    # Phi^{-1}(1 - alpha) depends on alpha alone; a search asks for it once
    # per query, so it is computed once per alpha.  ndtri is the function
    # scipy.stats.norm.ppf evaluates, without the cost of loading scipy.stats.
    return float(ndtri(1.0 - alpha))


def gaussian_gamma(alpha: float, n: int, cond_size: int) -> float:
    """Threshold Phi^{-1}(1 - alpha) / sqrt(n - cond_size - 3)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if cond_size < 0:
        raise ValueError(f"conditioning size must be nonnegative, got {cond_size}")
    dof = n - cond_size - 3
    if dof <= 0:
        raise ValueError(
            f"need n - |k| - 3 > 0, got n={n} with conditioning size {cond_size}"
        )
    return float(_upper_quantile(alpha) / math.sqrt(dof))


def gaussian_ci_test(cov: CovMatrix, query: CiQuery, config: GaussianCiConfig) -> CiOutcome:
    """Decide one query: |atanh(partial correlation)| against the threshold.

    A sample partial correlation of magnitude one (possible on degenerate
    data) maps to an infinite statistic, so the pair is declared dependent
    no matter the threshold.
    """
    statistic = _statistic(partial_correlation(cov, query))
    if config.gamma is not None:
        threshold = config.gamma
    else:
        threshold = gaussian_gamma(config.alpha, cov.n, len(query.k))
    return CiOutcome(statistic, threshold)


def gaussian_ci_tests(values: np.ndarray, starts: Sequence[int], length: int,
                      config: GaussianCiConfig
                      ) -> Iterator[tuple[Callable[[CiQuery], CiOutcome], Level0 | None]]:
    """The (answerer, level0) of each segment values[s:s + length].

    The answerer is gaussian_ci_test bound to the segment's covariance, from
    sample_covariances, one at a time.  level0 is the table of every query
    with an empty conditioning set, each statistic from the operations of
    gaussian_ci_test and so with its bits.  A segment with a variance that
    is not positive has level0 None: its search asks the queries one at a
    time and fails at the first query on that column, as it fails alone.
    """
    if config.gamma is not None:
        threshold = config.gamma
    else:
        threshold = gaussian_gamma(config.alpha, length, 0)
    for cov in sample_covariances(values, starts, length):
        sigma = cov.sigma.tolist()
        level0 = None
        if all(sigma[v][v] > 0.0 for v in range(cov.p)):
            level0 = (_level0_table(sigma), threshold)
        yield functools.partial(gaussian_ci_test, cov, config=config), level0


def _level0_table(sigma: list[list[float]]) -> list[list[float]]:
    p = len(sigma)
    table = [[0.0] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            rho = _correlation(sigma[i][j], sigma[i][i], sigma[j][j])
            table[i][j] = table[j][i] = _statistic(rho)
    return table
