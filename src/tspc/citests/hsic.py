"""Kernel-based conditional-dependence statistic and its test wrapper.

The statistic is a normalized conditional cross-covariance criterion built
from centered Gram matrices of the Gaussian kernel.  With regularized
resolvents R_U = G_U (G_U + n eps_n I)^{-1} for the blocks (x, z), (y, z) and
z, the value is

    Tr[ R_(y,z) R_(x,z) - 2 R_(y,z) R_(x,z) R_z + R_(y,z) R_z R_(x,z) R_z ],

which tends to zero exactly under conditional independence as the sample
grows and the regularizer eps_n = n^(-1/4) decays.  Every kernel uses the
block's median pairwise distance as its bandwidth (the median positive
distance when most pairs are tied).  An empty conditioning set drops the R_z
terms (R_z is the zero map) and the value reduces to the unconditional
dependence criterion Tr[R_y R_x]; a constant conditioning block has the zero
Gram matrix and gives the same value.

No n x n resolvent is formed.  A pivoted Cholesky factor K = F F^T of each
block's kernel stops once no pivot exceeds 1e-12, so the part it drops is
positive semidefinite with trace at most 1e-12 n (the kernel's diagonal is
1); a block of rank n gets an exact Cholesky factor.  Centering the columns
of F gives G = L L^T, and the push-through identity (Bach and Jordan, Kernel
independent component analysis, JMLR 2002) gives R = V V^T with
V = L C^{-T}, C C^T = L^T L + n eps_n I, which is m x m for a rank m.  Each
trace term is then a product of small matrices V_a^T V_b.  The centered Gram
matrices of one- and two-column blocks at a few hundred rows have ranks of
about 20 and 100.  centered_gram still builds the dense G, from the same
kernel, for callers that want it.

hsic_conditional shapes and checks the inputs; hsic_ci_test only caps rows
and applies the threshold.  A search builds one ColumnFactors for its sample,
which caps the rows once and keeps each single column's factor for the whole
search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg as sla
from scipy.linalg import lapack
from scipy.spatial.distance import pdist, squareform

from .base import CiOutcome
from .bootstrap import BootstrapConfig, stationary_bootstrap_threshold

__all__ = [
    "CALIBRATION_MIN_ROWS",
    "ColumnFactors",
    "HsicConfig",
    "median_bandwidth",
    "centered_gram",
    "check_kernel_range",
    "hsic_conditional",
    "hsic_ci_test",
    "pair_gamma",
    "decoupled_pair_gamma",
]

# The regularizer is eps_n = n^(-_EPS_EXPONENT).  Consistency of the statistic
# needs eps_n -> 0 and n eps_n^3 -> infinity, that is an exponent in (0, 1/3).
_EPS_EXPONENT = 0.25

# The pivoted Cholesky factor of a kernel stops at the first pivot at most
# this; the kernel's diagonal is 1, so the dropped trace is at most this * n.
_PIVOT_TOL = 1e-12

# pair_gamma's row minimum: ten bootstrap rows per block of at least 2 rows.
CALIBRATION_MIN_ROWS = 20


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


def _median_root(sq: np.ndarray) -> float:
    """np.median(np.sqrt(sq)), bit for bit, from one partition of sq.

    sqrt is monotone, so the middle order statistics of the roots are the
    roots of those of sq.  For an even count np.median partitions at two
    points, several times slower than one partition and a max of its lower
    part.
    """
    k = len(sq) // 2
    part = np.partition(sq, k)
    upper = np.sqrt(part[k])
    if len(sq) % 2:
        return float(upper)
    return float((np.sqrt(part[:k].max()) + upper) / 2.0)


def _kernel(arr: np.ndarray) -> np.ndarray | None:
    """Condensed Gaussian-kernel values of the row pairs (pdist order).

    The kernel is k(a, b) = exp(-||a - b||^2 / (2 h^2)) with h the median
    pairwise distance, or the median positive distance when more than half of
    the pairs are tied.  None when every row is identical.
    """
    sq = pdist(arr, "sqeuclidean")
    h = _median_root(sq)
    if h == 0.0:
        positive = sq[sq > 0.0]
        if positive.size == 0:
            return None
        h = _median_root(positive)
    # exp(-sq / (2 h^2)), in place
    np.divide(sq, -2.0 * h * h, out=sq)
    return np.exp(sq, out=sq)


def _full_kernel(condensed: np.ndarray) -> np.ndarray:
    kernel = squareform(condensed)
    np.fill_diagonal(kernel, 1.0)
    return kernel


def centered_gram(samples: np.ndarray) -> np.ndarray:
    """Doubly centered Gaussian-kernel Gram matrix of the sample block.

    The kernel and its bandwidth are the statistic's (see _kernel).
    Centering removes row, column, and grand means, so the result has zero
    row sums and is positive semidefinite up to rounding.

    Only a block whose rows are all identical gives the zero matrix.  That is
    exact: any positive bandwidth gives the all-ones kernel, which centers to
    zero, so a constant conditioning block behaves exactly like no
    conditioning.
    """
    arr = _as_block(samples)
    condensed = _kernel(arr)
    if condensed is None:
        return np.zeros((len(arr), len(arr)))
    gram = _full_kernel(condensed)
    row = gram.mean(axis=0, keepdims=True)
    col = gram.mean(axis=1, keepdims=True)
    grand = gram.mean()
    return gram - row - col + grand


def _factor(arr: np.ndarray, reg: float) -> np.ndarray:
    """V (n x m) with V V^T = G (G + reg I)^{-1} for the block's centered Gram G.

    A block whose rows are all identical has G = 0 and gives an n x 0 factor.
    """
    n = len(arr)
    condensed = _kernel(arr)
    if condensed is None:
        return np.zeros((n, 0))
    # The kernel is symmetric, so its transpose is the same matrix in the
    # Fortran order LAPACK overwrites without a copy.
    packed, piv, rank, _ = lapack.dpstrf(_full_kernel(condensed).T, tol=_PIVOT_TOL,
                                         lower=1, overwrite_a=1)
    # dpstrf factors K[piv, piv] = L L^T, so row piv[a] of K's factor is row a of L.
    low = np.empty((n, rank))
    low[piv - 1] = np.tril(packed[:, :rank])
    low -= low.mean(axis=0)
    inner = low.T @ low
    inner[np.diag_indices(rank)] += reg
    chol = sla.cholesky(inner, lower=True, check_finite=False)
    return sla.solve_triangular(chol, low.T, lower=True, check_finite=False).T


def _statistic(vx: np.ndarray, vy: np.ndarray, vz: np.ndarray | None) -> float:
    """The statistic from the factors of the blocks (x, z), (y, z) and z.

    With R_U = V_U V_U^T the three traces are ||V_y^T V_x||^2,
    Tr[(V_z^T V_y)(V_y^T V_x)(V_x^T V_z)] and ||(V_y^T V_z)(V_z^T V_x)||^2.
    """
    yx = vy.T @ vx
    term1 = float(np.sum(yx * yx))
    if vz is None:
        return term1
    zy = vz.T @ vy
    xz = vx.T @ vz
    term2 = float(np.einsum("ij,ji->", zy @ yx, xz))
    yzx = zy.T @ xz.T
    return term1 - 2.0 * term2 + float(np.sum(yzx * yzx))


class ColumnFactors:
    """The statistic for queries (i, j | k) on the columns of one sample.

    Rows are capped once, to the strided subset hsic_ci_test would take.  The
    factor of each single column is kept for the life of the object: those
    are the unconditional endpoints and the one-column conditioning sets a
    search asks for again and again.  A block of two or more columns is
    factored per query, so what is kept stays within p * n * rank.
    """

    def __init__(self, values: np.ndarray, config: HsicConfig = HsicConfig()) -> None:
        self._values = _cap_rows(np.asarray(values, dtype=np.float64), config)
        n = len(self._values)
        if n < 4:
            raise ValueError(f"need at least 4 rows, got {n}")
        self._reg = n * n ** (-_EPS_EXPONENT)
        self._single: dict[int, np.ndarray] = {}

    def _block(self, columns: tuple[int, ...]) -> np.ndarray:
        if len(columns) > 1:
            return _factor(self._values[:, columns], self._reg)
        (c,) = columns
        if c not in self._single:
            self._single[c] = _factor(self._values[:, columns], self._reg)
        return self._single[c]

    def statistic(self, i: int, j: int, k: tuple[int, ...]) -> float:
        if not k:
            return _statistic(self._block((i,)), self._block((j,)), None)
        return _statistic(self._block((i, *k)), self._block((j, *k)), self._block(k))


def hsic_conditional(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray | None,
) -> float:
    """The conditional-dependence statistic for x against y given z.

    x and y are single columns; z is a vector, a column block, or None or
    any size-0 array for no conditioning.  The augmented blocks (x, z) and
    (y, z) each pick their own median bandwidth.  The value is nonnegative
    and symmetric in x and y, both up to rounding.  Values that are not
    finite, or whose distances could overflow, are rejected by
    check_kernel_range, which counts x, y and z as columns 1, 2, 3, ...
    """
    xa = _as_block(x)
    ya = _as_block(y)
    if xa.shape[1] != 1 or ya.shape[1] != 1:
        raise ValueError("x and y must be single columns")
    n = xa.shape[0]
    if ya.shape[0] != n:
        raise ValueError(f"x has {n} rows but y has {ya.shape[0]}")
    za = np.empty((n, 0)) if z is None or np.size(z) == 0 else _as_block(z)
    if za.shape[0] != n:
        raise ValueError(f"x has {n} rows but z has {za.shape[0]}")
    values = np.hstack([xa, ya, za])
    check_kernel_range(values)
    return ColumnFactors(values).statistic(0, 1, tuple(range(2, values.shape[1])))


def strided_subset(n: int, max_rows: int) -> np.ndarray:
    """Evenly spaced row indices, all rows when n <= max_rows."""
    if max_rows >= n:
        return np.arange(n)
    return np.floor(np.linspace(0, n, num=max_rows, endpoint=False)).astype(np.intp)


def _cap_rows(arr: np.ndarray, config: HsicConfig) -> np.ndarray:
    if config.max_rows is not None and arr.shape[0] > config.max_rows:
        return arr[strided_subset(arr.shape[0], config.max_rows)]
    return arr


def check_kernel_range(values: np.ndarray, config: HsicConfig = HsicConfig()) -> None:
    """Reject columns whose kernel distances could overflow float64.

    Checks the rows a kernel test of this config sees (capped at max_rows).
    A block holds at most all p columns, so a squared pairwise distance is
    at most p times the largest squared column range; the squared bandwidth
    is no larger, and centered_gram doubles it.  A column with 2 p range^2
    beyond the float64 maximum, or holding inf or nan, is named (1-based) in
    a ValueError, as CovMatrix does for Fisher-z; otherwise no Gram matrix
    built from these rows meets inf or nan.
    """
    arr = _cap_rows(np.asarray(values, dtype=np.float64), config)
    with np.errstate(over="ignore", invalid="ignore"):
        spread = np.ptp(arr, axis=0)
        ok = 2.0 * arr.shape[1] * spread * spread <= np.finfo(np.float64).max
    if not ok.all():
        bad = ", ".join(str(c + 1) for c in np.flatnonzero(~ok))
        raise ValueError(
            f"kernel distances are not finite in column(s) {bad}: the data hold inf or "
            "nan, or a squared pairwise distance overflows float64"
        )


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
    so inputs down to CALIBRATION_MIN_ROWS rows still calibrate.
    """
    arr = np.asarray(pair, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"need a two-column matrix, got shape {arr.shape}")
    arr = _cap_rows(arr, config)
    if len(arr) < CALIBRATION_MIN_ROWS:
        raise ValueError(f"need at least {CALIBRATION_MIN_ROWS} rows to calibrate, got {len(arr)}")
    check_kernel_range(arr)
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
    surrogate = np.column_stack([arr[:, 0], np.roll(arr[:, 1], len(arr) // 2)])
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
