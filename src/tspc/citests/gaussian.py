"""Partial-correlation test for Gaussian data.

The statistic is the Fisher z-transform of the sample partial correlation of
the tested pair given the conditioning set.  Under joint Gaussianity the
transformed statistic is approximately N(0, 1/(n - |k| - 3)) when the true
partial correlation is zero, which gives the threshold its closed form.
"""

from __future__ import annotations

import functools
import math
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
    "partial_correlation",
    "fisher_z",
    "gaussian_gamma",
    "gaussian_ci_test",
]

# Cholesky pivots below this fraction of the trace mean the conditioning
# block is numerically rank-deficient.
_PIVOT_TOL = 1e-12


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
        if not np.allclose(arr, arr.T, rtol=0.0, atol=1e-8 * (1.0 + np.abs(arr).max())):
            raise ValueError("covariance must be symmetric")
        if np.any(np.diag(arr) < -1e-12):
            raise ValueError("covariance diagonal must be nonnegative")
        arr = (arr + arr.T) / 2.0
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
    n = arr.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 rows, got {n}")
    # An overflow is reported by CovMatrix, naming the column.
    with np.errstate(over="ignore", invalid="ignore"):
        centered = arr - arr.mean(axis=0)
        sigma = centered.T @ centered / n
    return CovMatrix(sigma, n)


def partial_correlation(cov: CovMatrix, query: CiQuery) -> float:
    """Correlation of the pair after conditioning, via the Schur complement.

    The pair is permuted to the leading block and the conditioning set to the
    trailing block; the conditional covariance of the pair is then
    S11 - S12 S22^{-1} S21, factorizing the conditioning block by Cholesky.
    The factor and the solve are the LAPACK calls (dpotrf, dpotrs) behind
    scipy.linalg.cholesky and cho_solve, without their per-call checks:
    CovMatrix rejected non-finite entries, and the blocks are tiny.
    """
    p = cov.p
    for v in (query.i, query.j, *query.k):
        if not 0 <= v < p:
            raise ValueError(f"variable {v} out of range for p={p}")
    sigma = cov.sigma
    if query.k:
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
        cond = sub[:2, :2] - s12 @ w
        var_i, var_j, cov_ij = cond[0, 0], cond[1, 1], cond[0, 1]
    else:
        i, j = query.i, query.j
        var_i, var_j, cov_ij = sigma[i, i], sigma[j, j], sigma[i, j]
    if var_i <= 0.0 or var_j <= 0.0:
        raise CiTestError("degenerate residual variance")
    return float(cov_ij / math.sqrt(var_i * var_j))


def fisher_z(rho: float) -> float:
    """atanh of the correlation; requires |rho| < 1."""
    if not -1.0 < rho < 1.0:
        raise ValueError(f"correlation must satisfy |rho| < 1, got {rho}")
    return math.atanh(rho)


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
    rho = partial_correlation(cov, query)
    if abs(rho) >= 1.0:
        statistic = math.inf
    else:
        statistic = fisher_z(rho)
    if config.gamma is not None:
        threshold = config.gamma
    else:
        threshold = gaussian_gamma(config.alpha, cov.n, len(query.k))
    return CiOutcome(statistic, threshold)
