"""Kernel-based conditional-dependence statistic and its test wrapper.

The statistic is a normalized conditional cross-covariance criterion built
from centered Gram matrices of the Gaussian kernel.  With regularized
resolvents R_U = G_U (G_U + n eps_n I)^{-1} for the blocks (x, z), (y, z) and
z, the value is

    Tr[ R_(y,z) R_(x,z) - 2 R_(y,z) R_(x,z) R_z + R_(y,z) R_z R_(x,z) R_z ],

which tends to zero exactly under conditional independence as the sample
grows and the regularizer eps_n = n^(-eps_exponent) decays.  An empty
conditioning set drops the R_z terms (R_z is the zero map) and the value
reduces to the unconditional dependence criterion Tr[R_y R_x].
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


@dataclass(frozen=True)
class HsicConfig:
    """Kernel bandwidth rule, regularizer decay, and fixed threshold.

    bandwidth is the string "median" (per-block median pairwise distance) or
    a fixed positive real.  hsic_ci_test compares the statistic against
    gamma, which it requires; the raw statistic ignores it.  max_rows, when
    set, caps the rows a single test sees by taking an evenly strided subset.
    """

    bandwidth: float | str = "median"
    eps_exponent: float = 0.25
    gamma: float | None = None
    max_rows: int | None = None

    def __post_init__(self) -> None:
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "median":
                raise ValueError(f"bandwidth rule must be 'median' or a positive real, got {self.bandwidth!r}")
        elif not self.bandwidth > 0.0:
            raise ValueError(f"fixed bandwidth must be positive, got {self.bandwidth}")
        if not 0.0 < self.eps_exponent < 1.0 / 3.0:
            raise ValueError(f"eps_exponent must lie in (0, 1/3), got {self.eps_exponent}")
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


def centered_gram(samples: np.ndarray, bandwidth: float | str = "median") -> np.ndarray:
    """Doubly centered Gaussian-kernel Gram matrix of the sample block.

    The kernel is k(a, b) = exp(-||a - b||^2 / (2 h^2)) with h either fixed
    or the median pairwise distance.  Centering removes row, column, and
    grand means, so the result has zero row sums and is positive
    semidefinite up to rounding.
    """
    arr = _as_block(samples)
    if isinstance(bandwidth, str):
        if bandwidth != "median":
            raise ValueError(f"bandwidth rule must be 'median' or a positive real, got {bandwidth!r}")
        h = median_bandwidth(arr)
        if h == 0.0:
            raise CiTestError("zero bandwidth")
    else:
        h = float(bandwidth)
        if not h > 0.0:
            raise CiTestError("zero bandwidth")
    sq = squareform(pdist(arr, "sqeuclidean"))
    gram = np.exp(-sq / (2.0 * h * h))
    row = gram.mean(axis=0, keepdims=True)
    col = gram.mean(axis=1, keepdims=True)
    grand = gram.mean()
    return gram - row - col + grand


def _guarded_gram(arr: np.ndarray, bandwidth: float | str) -> np.ndarray:
    """centered_gram, except a zero-spread block gets unit bandwidth.

    A block whose rows are all identical has median distance zero; any
    positive bandwidth then gives the all-ones kernel, which centers to the
    zero matrix.  Substituting h=1 realizes that limit instead of failing,
    so a constant conditioning block behaves exactly like no conditioning.
    """
    if isinstance(bandwidth, str) and median_bandwidth(arr) == 0.0:
        return np.zeros((arr.shape[0], arr.shape[0]))
    return centered_gram(arr, bandwidth)


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
    config: HsicConfig = HsicConfig(),
) -> float:
    """The conditional-dependence statistic for x against y given z.

    x and y are single columns; z is a column block or None/empty.  The
    augmented blocks (x, z) and (y, z) each pick their own bandwidth.  The
    value is nonnegative up to rounding of order 1e-8 and is exactly
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
    za: np.ndarray | None = None
    if z is not None:
        za = np.asarray(z, dtype=np.float64)
        if za.ndim == 1:
            za = za[:, None]
        if za.size == 0:
            za = None
        elif za.shape[0] != n:
            raise ValueError(f"x has {n} rows but z has {za.shape[0]}")

    reg = n * n ** (-config.eps_exponent)
    if za is None:
        gx = _guarded_gram(xa, config.bandwidth)
        gy = _guarded_gram(ya, config.bandwidth)
    else:
        gx = _guarded_gram(np.hstack([xa, za]), config.bandwidth)
        gy = _guarded_gram(np.hstack([ya, za]), config.bandwidth)
    rx = _resolvent(gx, reg)
    ry = _resolvent(gy, reg)

    # trace(A @ B) without forming the product.
    def trace_prod(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.einsum("ij,ji->", a, b))

    term1 = trace_prod(ry, rx)
    if za is None:
        return term1
    gz = _guarded_gram(za, config.bandwidth)
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
        return hsic_conditional(resampled[:, 0], resampled[:, 1], None, config)

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
    """Decide one query: the statistic against the fixed threshold config.gamma."""
    if config.gamma is None:
        raise ValueError("hsic_ci_test needs a fixed threshold: set HsicConfig.gamma")
    xa = _as_block(x)
    ya = _as_block(y)
    za = None
    if z is not None:
        za = np.asarray(z, dtype=np.float64)
        if za.ndim == 1:
            za = za[:, None]
        if za.size == 0:
            za = None
    if config.max_rows is not None and xa.shape[0] > config.max_rows:
        idx = strided_subset(xa.shape[0], config.max_rows)
        xa = xa[idx]
        ya = ya[idx]
        za = za[idx] if za is not None else None
    return CiOutcome.decide(hsic_conditional(xa, ya, za, config), config.gamma)
