"""Kernel-based conditional-dependence statistic and its test wrapper.

The statistic is a normalized conditional cross-covariance criterion built
from centered Gram matrices of the Gaussian kernel.  With regularized
resolvents R_U = G_U (G_U + n eps_n I)^{-1} for the blocks (x, z), (y, z) and
z, the value is

    Tr[ R_(y,z) R_(x,z) - 2 R_(y,z) R_(x,z) R_z + R_(y,z) R_z R_(x,z) R_z ],

which tends to zero exactly under conditional independence as the sample
grows and the regularizer eps_n = n^(-1/4) decays.  Every Gram matrix comes
from centered_gram, whose kernel bandwidth is the block's median pairwise
distance (the median positive distance when most pairs are tied).  An empty
conditioning set drops the R_z terms (R_z is the zero map) and the value
reduces to the unconditional dependence criterion Tr[R_y R_x]; a constant
conditioning block has the zero Gram matrix and gives the same value.
hsic_conditional shapes and checks the inputs; hsic_ci_test only caps rows
and applies the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg as sla
from scipy.spatial.distance import pdist, squareform

from .base import CiOutcome, CiTestError
from .bootstrap import BootstrapConfig, stationary_bootstrap_threshold

__all__ = [
    "HsicConfig",
    "median_bandwidth",
    "centered_gram",
    "hsic_conditional",
    "hsic_ci_test",
    "pair_gamma",
    "decoupled_pair_gamma",
]

# The regularizer is eps_n = n^(-_EPS_EXPONENT).  Consistency of the statistic
# needs eps_n -> 0 and n eps_n^3 -> infinity, that is an exponent in (0, 1/3).
_EPS_EXPONENT = 0.25


@dataclass(frozen=True)
class HsicConfig:
    """Fixed threshold and row cap of the kernel test.

    hsic_ci_test compares the statistic against gamma, which it requires.
    max_rows, when set, caps the rows a single test (or a calibration pair)
    sees by taking an evenly strided subset.
    """

    gamma: float | None = None
    max_rows: int | None = None

    def __post_init__(self) -> None:
        if self.gamma is not None and not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.max_rows is not None and self.max_rows < 4:
            raise ValueError(f"max_rows must be at least 4, got {self.max_rows}")


def _as_block(samples: np.ndarray) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"samples must be a vector or a matrix, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError(f"need at least 2 samples, got {arr.shape[0]}")
    return arr


def median_bandwidth(samples: np.ndarray) -> float:
    """Median of the pairwise Euclidean distances."""
    arr = _as_block(samples)
    return float(np.median(pdist(arr)))


def centered_gram(samples: np.ndarray) -> np.ndarray:
    """Doubly centered Gaussian-kernel Gram matrix of the sample block.

    The kernel is k(a, b) = exp(-||a - b||^2 / (2 h^2)) with h the median
    pairwise distance.  Centering removes row, column, and grand means, so
    the result has zero row sums and is positive semidefinite up to rounding.

    When more than half of the pairs are tied (a column that is mostly one
    value) the median distance is zero, and h is the median of the positive
    distances instead.  Only a block whose rows are all identical gives the
    zero matrix.  That is exact: any positive bandwidth gives the all-ones
    kernel, which centers to zero, so a constant conditioning block behaves
    exactly like no conditioning.
    """
    arr = _as_block(samples)
    h = median_bandwidth(arr)
    if h == 0.0:
        dist = pdist(arr)
        positive = dist[dist > 0.0]
        if positive.size == 0:
            return np.zeros((len(arr), len(arr)))
        h = float(np.median(positive))
    sq = squareform(pdist(arr, "sqeuclidean"))
    gram = np.exp(-sq / (2.0 * h * h))
    row = gram.mean(axis=0, keepdims=True)
    col = gram.mean(axis=1, keepdims=True)
    grand = gram.mean()
    return gram - row - col + grand


def _resolvent(gram: np.ndarray, reg: float) -> np.ndarray:
    """R = G (G + reg I)^{-1}, symmetrized against rounding.

    G + reg I is symmetric positive definite (G is PSD up to rounding and
    reg > 0 dominates), so a Cholesky solve is safe; since the shift
    commutes with G the product is symmetric in exact arithmetic.
    """
    n = gram.shape[0]
    shifted = gram + reg * np.eye(n)
    try:
        factor = sla.cho_factor(shifted, lower=True)
    except sla.LinAlgError:
        raise CiTestError("Gram regularization failed to produce a definite system") from None
    solved = sla.cho_solve(factor, gram)
    return (solved + solved.T) / 2.0


def hsic_conditional(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray | None,
) -> float:
    """The conditional-dependence statistic for x against y given z.

    x and y are single columns; z is a vector, a column block, or None or
    any size-0 array for no conditioning.  The augmented blocks (x, z) and
    (y, z) each pick their own median bandwidth.  The value is nonnegative up to rounding of order 1e-8 and is exactly
    symmetric in x and y.
    """
    xa = _as_block(x)
    ya = _as_block(y)
    if xa.shape[1] != 1 or ya.shape[1] != 1:
        raise ValueError("x and y must be single columns")
    n = xa.shape[0]
    if ya.shape[0] != n:
        raise ValueError(f"x has {n} rows but y has {ya.shape[0]}")
    if n < 4:
        raise ValueError(f"need at least 4 rows, got {n}")
    za = None if z is None or np.size(z) == 0 else _as_block(z)
    if za is not None and za.shape[0] != n:
        raise ValueError(f"x has {n} rows but z has {za.shape[0]}")

    reg = n * n ** (-_EPS_EXPONENT)
    if za is None:
        gx = centered_gram(xa)
        gy = centered_gram(ya)
    else:
        gx = centered_gram(np.hstack([xa, za]))
        gy = centered_gram(np.hstack([ya, za]))
    rx = _resolvent(gx, reg)
    ry = _resolvent(gy, reg)

    # trace(A @ B) without forming the product.
    def trace_prod(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.einsum("ij,ji->", a, b))

    term1 = trace_prod(ry, rx)
    if za is None:
        return term1
    gz = centered_gram(za)
    rz = _resolvent(gz, reg)
    ryx = ry @ rx
    term2 = trace_prod(ryx, rz)
    term3 = trace_prod(ry @ rz, rx @ rz)
    return term1 - 2.0 * term2 + term3


def strided_subset(n: int, max_rows: int) -> np.ndarray:
    """Evenly spaced row indices, all rows when n <= max_rows."""
    if max_rows >= n:
        return np.arange(n)
    return np.floor(np.linspace(0, n, num=max_rows, endpoint=False)).astype(np.intp)


def _cap_rows(arr: np.ndarray, config: HsicConfig) -> np.ndarray:
    if config.max_rows is not None and arr.shape[0] > config.max_rows:
        return arr[strided_subset(arr.shape[0], config.max_rows)]
    return arr


def pair_gamma(
    pair: np.ndarray,
    boot: BootstrapConfig,
    config: HsicConfig = HsicConfig(),
) -> float:
    """Null threshold for the statistic from a pair known to be independent.

    Resampling the rows of a tested pair keeps x_t and y_t together, so the
    bootstrap quantile tracks whatever dependence the pair carries; it reads
    as a null level only when the pair was independent to begin with.  Given
    such a two-column matrix, this returns the boot.quantile bootstrap
    quantile of the unconditional statistic, which then serves as one fixed
    gamma for every query of a search.  Rows are capped at config.max_rows
    and the block length is clamped to a tenth of the row count (at least 2)
    so short inputs still calibrate.
    """
    arr = np.asarray(pair, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"need a two-column matrix, got shape {arr.shape}")
    arr = _cap_rows(arr, config)
    block = max(2.0, min(boot.expected_block_length, arr.shape[0] / 10.0))
    if block != boot.expected_block_length:
        boot = replace(boot, expected_block_length=block)

    def stat(resampled: np.ndarray) -> float:
        return hsic_conditional(resampled[:, 0], resampled[:, 1], None)

    return stationary_bootstrap_threshold(arr, stat, boot)


def decoupled_pair_gamma(
    values: np.ndarray,
    boot: BootstrapConfig,
    config: HsicConfig = HsicConfig(),
) -> float:
    """pair_gamma on a surrogate pair built from the first two columns.

    When no column pair is known to be independent, rotating the second
    column by half the (possibly capped) sample length breaks short-range
    coupling with the first while keeping the marginals and autocorrelation
    that set the statistic's scale.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError(f"need an n x p matrix with p >= 2, got shape {arr.shape}")
    arr = _cap_rows(arr, config)
    n = arr.shape[0]
    if n < 20:
        raise ValueError(f"need at least 20 rows to calibrate, got {n}")
    surrogate = np.column_stack([arr[:, 0], np.roll(arr[:, 1], n // 2)])
    return pair_gamma(surrogate, boot, config)


def hsic_ci_test(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray | None,
    config: HsicConfig,
) -> CiOutcome:
    """Decide one query: the statistic against the fixed threshold config.gamma.

    With config.max_rows set, every input with as many rows as x is cut to
    the same strided subset; hsic_conditional shapes and checks the rest.
    """
    if config.gamma is None:
        raise ValueError("hsic_ci_test needs a fixed threshold: set HsicConfig.gamma")
    n = len(x)
    if config.max_rows is not None and n > config.max_rows:
        rows = strided_subset(n, config.max_rows)
        # An empty z (np.empty(0) has no rows to index) or an input with the
        # wrong row count passes through uncut, to no conditioning or to the
        # row-count error of hsic_conditional.
        x, y, z = (a if a is None or len(a) != n else np.asarray(a)[rows] for a in (x, y, z))
    return CiOutcome.decide(hsic_conditional(x, y, z), config.gamma)
