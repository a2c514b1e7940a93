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
trace term is then a product of small matrices V_a^T V_b.  centered_gram
builds the dense G from the same kernel; it is the reference the tests
compare the factors against.

The factor is chosen by block width.  The centered Gram matrices of one- and
two-column blocks at a few hundred rows have ranks of about 20 and 100, and
at 50 rows of about 16 and 48.  A single column is factored on demand, as in
Bach and Jordan's incomplete Cholesky: a kernel column is computed only when
its row becomes a pivot, with the bits of the dense kernel, and the loop runs
on batches of columns so its Python overhead is paid once per batch.  Its
bandwidth comes from the sorted column: the differences of sorted values
form a sorted matrix, so the middle ones are selected exactly, by counting
pairs below a limit row by row, without listing all n^2 / 2 of them.  A
wider block, of much higher rank, keeps the dense kernel and LAPACK dpstrf.

Every statistic of a search or a single query comes from a ColumnFactors,
which caps the rows and checks their range.  A batch of searches (the
subsamples of TPC-NS, or the one sample of pc) builds one per segment
through column_factors: one stream factors the single columns of all the
segments, in chunks that can span segments, and each search keeps its
factors for its life.  hsic_conditional and hsic_ci_test build one per
query.  pair_gamma checks its capped pair once and factors the x and y
columns of all its bootstrap resamples in batches: the bootstrap hands its
statistic the stack of resamples.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np
from scipy.linalg import lapack
from scipy.spatial.distance import pdist, squareform

from .base import CiOutcome
from .bootstrap import BootstrapConfig, stationary_bootstrap_threshold

__all__ = [
    "CALIBRATION_MIN_ROWS",
    "ColumnFactors",
    "HsicConfig",
    "column_factors",
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

# Single-column blocks are factored in batches of this many.
_CHUNK = 16

# The largest double whose square rounds to 0.0 (2^-537.5, rounded down): two
# values at most this far apart have squared distance 0, a tie.
_SQUARE_ZERO = float.fromhex("0x1.6a09e667f3bccp-538")

# A single column's bandwidth selection samples this many candidate pairs per
# row, and lists its candidates once at most _GATHER_PER_ROW per row are left.
_SAMPLE_PER_ROW = 4
_GATHER_PER_ROW = 32

# _single_factors selects the bandwidths of at most this many columns at
# once: the temporaries of _bandwidths then stay below the 640 KB buffer that
# pdist fills for one 400-row column, and below the allocator's 128 KB mmap
# threshold at 50 rows.
_SELECT_COLUMNS = 8

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
    """np.median(np.sqrt(sq)), bit for bit, from one partition of sq in place.

    sqrt is monotone, so the middle order statistics of the roots are the
    roots of those of sq.  For an even count np.median partitions at two
    points, several times slower than one partition and a max of its lower
    part.
    """
    k = len(sq) // 2
    sq.partition(k)
    upper = np.sqrt(sq[k])
    if len(sq) % 2:
        return float(upper)
    return float((np.sqrt(sq[:k].max()) + upper) / 2.0)


def _bandwidth(sq: np.ndarray) -> float:
    """The kernel bandwidth from condensed squared distances; 0.0 when all are 0.

    The median pairwise distance, or the median positive distance when more
    than half of the pairs are tied.  Reorders sq: at a few hundred rows a
    partitioned copy beside sq costs more than the partition, because the
    pair of n^2/2 buffers is paged in afresh on every call (about 280 page
    faults at 400 rows, against 1 in place).
    """
    h = _median_root(sq)
    if h == 0.0:
        positive = sq[sq > 0.0]
        if positive.size == 0:
            return 0.0
        h = _median_root(positive)
    return h


def _kernel(arr: np.ndarray) -> np.ndarray | None:
    """Condensed Gaussian-kernel values of the row pairs (pdist order).

    The kernel is k(a, b) = exp(-||a - b||^2 / (2 h^2)) with h the
    _bandwidth of the rows.  None when every row is identical.
    """
    sq = pdist(arr, "sqeuclidean")
    h = _bandwidth(sq.copy())
    if h == 0.0:
        return None
    # exp(-sq / (2 h^2)), in place.  A bandwidth below about 1e-154 makes
    # 2 h^2 subnormal, so an ordinary distance overflows to -inf; exp then
    # gives the right limit, 0.
    with np.errstate(over="ignore"):
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

    The dense path, for blocks of two or more columns.  A block whose rows are
    all identical has G = 0 and gives an n x 0 factor.
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
    return _push_through(low, reg)


def _push_through(low: np.ndarray, reg: float) -> np.ndarray:
    """V = L_c C^{-T} for the kernel factor L (n x m, overwritten with L_c).

    L_c is L with centered columns and C C^T = L_c^T L_c + reg I.
    """
    low -= low.mean(axis=0)
    inner = low.T @ low
    inner[np.diag_indices(low.shape[1])] += reg
    # The calls behind scipy.linalg.cholesky and solve_triangular; the reg
    # shift makes inner positive definite.
    chol, _ = lapack.dpotrf(inner, lower=1, clean=1)
    return lapack.dtrtrs(chol, low.T, lower=1, overwrite_b=1)[0].T


def _pair_ends(padded: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """ends[b, i]: how many j have fl(s[b, j] - s[b, i]) <= limit[b] (limit >= 0).

    s = padded[:, :-1] holds each column sorted and padded[:, -1] is inf.
    The difference is monotone in s[b, j], so the j that qualify are those
    before ends[b, i], which is past i.  searchsorted on fl(s + limit) finds
    that end up to the rounding of the sum.  Each row it misses, checked
    with the true differences on both sides of the end, widens a bracket
    around the guess by steps of 1, 2, 4, ... until the difference fits at
    its low end and not at its high end, then bisects it: a miss is
    usually one place, at a limit that is itself a difference.
    """
    count, stride = padded.shape
    s = padded[:, :-1]
    keys = s + limit[:, None]
    ends = np.array([row.searchsorted(key, "right") for row, key in zip(s, keys)])
    flat = padded.ravel()
    at = ends + (np.arange(count) * stride)[:, None]
    missed = (flat[at - 1] - s > limit[:, None]) | (flat[at] - s <= limit[:, None])
    if missed.any():
        b, i = np.nonzero(missed)
        base, cap = b * stride, limit[b]

        def fits(j: np.ndarray) -> np.ndarray:
            # j = i always fits and j = stride - 1, the inf pad, never does
            return flat[base + np.clip(j, i, stride - 1)] - flat[base + i] <= cap

        end = ends[b, i]
        up = fits(end)
        lo = np.where(up, end, end - 2)
        hi = np.where(up, end + 1, end - 1)
        step = 1
        while True:
            lo, hi = np.maximum(lo, i), np.minimum(hi, stride - 1)
            low_fits, high_fits = fits(lo), fits(hi)
            if (low_fits & ~high_fits).all():
                break
            step *= 2
            lo, hi = (np.where(high_fits, hi, np.where(low_fits, lo, lo - step)),
                      np.where(high_fits, hi + step, np.where(low_fits, hi, lo)))
        while (hi - lo > 1).any():
            mid = (lo + hi) // 2
            inside = fits(mid)
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        ends[b, i] = hi
    return ends


def _pairs_between(padded: np.ndarray, lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """fl(s[b, j] - s[b, i]) for lo[b, i] <= j < lo[b, i] + width[b, i], column by column, row-major.

    padded is as for _pair_ends; width[b, i] may be 0.
    """
    count, stride = padded.shape
    width = width.ravel()
    starts = np.cumsum(width) - width
    first = (lo + (np.arange(count) * stride)[:, None]).ravel()
    # in place, and each index array dropped once used: at most two arrays
    # of the pairs' size are alive at a time
    at = np.repeat(first - starts, width)
    at += np.arange(len(at))
    pairs = padded.ravel()[at]
    del at
    pairs -= np.repeat(padded[:, :-1].ravel(), width)
    return pairs


def _narrowed(padded: np.ndarray, lo: np.ndarray, below: np.ndarray, hi: np.ndarray,
              above: np.ndarray, lower: np.ndarray, upper: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """One round of _bandwidths' narrowing: (lo, below, hi, above) moved, or None.

    Each column's candidates are its pairs (i, j) with lo[b, i] <= j < hi[b, i]:
    `below` pairs come before them and `above` pairs before their end.  A
    sample of _SAMPLE_PER_ROW candidates per row proposes two limits, sqrt(n)
    samples outside the ranks lower and upper (a row-major sample misplaces a
    rank by up to about that many), and the exact count at each limit keeps
    it where it still brackets them.  None when no column wider
    than _GATHER_PER_ROW candidates per row moved.
    """
    count, n = lo.shape
    samples = _SAMPLE_PER_ROW * n
    margin = math.ceil(math.sqrt(n))
    size = above - below
    # sample k of a column is candidate (2k + 1) size // (2 samples) in
    # row-major order; row i holds those with k < (2 samples cum_i - size) / (2 size)
    width = hi - lo
    cum = np.cumsum(width, axis=1)
    total = size[:, None]
    taken = np.clip(-((total - 2 * samples * cum) // (2 * total)), 0, samples)
    per_row = np.diff(taken, axis=1, prepend=0).ravel()
    at = np.repeat((lo + width - cum + (np.arange(count) * (n + 1))[:, None]).ravel(), per_row)
    at += ((2 * np.arange(samples) + 1) * total // (2 * samples)).ravel()
    sample = padded.ravel()[at].reshape(count, samples)
    del at
    sample -= np.repeat(padded[:, :n].ravel(), per_row).reshape(count, samples)
    sample.sort(axis=1)
    k_lo = (lower - below) * samples // size - margin
    k_hi = -(-(upper - below + 1) * samples // size) + margin
    ends_lo = _pair_ends(padded, sample[np.arange(count), np.clip(k_lo, 0, samples - 1)])
    ends_hi = _pair_ends(padded, sample[np.arange(count), np.clip(k_hi, 0, samples - 1)])
    count_lo = ends_lo.sum(axis=1) - n * (n + 1) // 2
    count_hi = ends_hi.sum(axis=1) - n * (n + 1) // 2
    raise_lo = (k_lo >= 0) & (count_lo <= lower) & (count_lo > below)
    drop_hi = (k_hi < samples) & (count_hi > upper) & (count_hi < above)
    if not ((raise_lo | drop_hi) & (size > _GATHER_PER_ROW * n)).any():
        return None
    return (np.where(raise_lo[:, None], ends_lo, lo), np.where(raise_lo, count_lo, below),
            np.where(drop_hi[:, None], ends_hi, hi), np.where(drop_hi, count_hi, above))


def _bandwidths(columns: np.ndarray) -> np.ndarray:
    """_bandwidth(pdist(c[:, None], "sqeuclidean")) for each row c of columns, bit for bit.

    With s = sort(c), every squared distance of pdist is fl(d * d) for the
    difference d = fl(s_j - s_i), i < j, of one pair: fl(a - b) = -fl(b - a),
    so the order of the pair does not matter.  Rounding is monotone, so the
    k-th smallest squared distance is the square of the k-th smallest
    difference, and _median_root's rule runs on differences.  A pair is tied,
    its squared distance 0, when d <= _SQUARE_ZERO.  The pairs of row i at or
    below any limit, _SQUARE_ZERO included, are the j up to an end
    (_pair_ends): differences in a sorted column form a sorted matrix, as in
    Frederickson and Johnson's selection (1984).

    The middle ranks are selected exactly without listing every pair.  A
    bracket of candidate pairs per column starts with all untied pairs (all
    pairs when the lower middle rank is a tied one), and _narrowed moves its
    ends while it holds more than _GATHER_PER_ROW candidates per row.  The
    candidates left are listed and partitioned, as _median_root does.  A
    column with no untied pair has bandwidth 0.
    """
    count, n = columns.shape
    pairs = n * (n - 1) // 2
    padded = np.empty((count, n + 1))
    padded[:, :n] = columns
    padded[:, :n].sort(axis=1)
    padded[:, n] = np.inf
    first = np.arange(1, n + 1)  # row i's first partner
    before = n * (n + 1) // 2  # sum(first): subtracted from a sum of ends to count pairs
    tied_ends = _pair_ends(padded, np.full(count, _SQUARE_ZERO))
    ties = tied_ends.sum(axis=1) - before
    out = np.zeros(count)
    live = ties < pairs
    if not live.all():
        if not live.any():
            return out
        padded, tied_ends, ties = padded[live], tied_ends[live], ties[live]
        count = len(padded)
    # _median_root's ranks, over all pairs or, when more than half are tied,
    # over the untied ones, which follow the tied ones in order
    mostly_tied = ties > pairs // 2
    counted = np.where(mostly_tied, pairs - ties, pairs)
    upper = np.where(mostly_tied, ties, 0) + counted // 2
    lower = upper - (counted % 2 == 0)
    # the bracket: `below` pairs lie before lo[b, i] and `above` before hi[b, i]
    from_ties = ties <= lower
    lo = np.where(from_ties[:, None], tied_ends, first)
    below = np.where(from_ties, ties, 0)
    hi = np.full((count, n), n)
    above = np.full(count, pairs)
    while (above - below > _GATHER_PER_ROW * n).any():
        narrowed = _narrowed(padded, lo, below, hi, above, lower, upper)
        if narrowed is None:
            break
        lo, below, hi, above = narrowed
    # _median_root on the squares of the candidates: the one at rank
    # upper - below, averaged for an even count with the largest below it
    even = lower < upper
    middle = np.zeros((2, count))
    candidates = _pairs_between(padded, lo, hi - lo)
    ends = np.cumsum(above - below).tolist()
    for b, (start, end, k, pair) in enumerate(zip([0] + ends, ends, (upper - below).tolist(),
                                                   even.tolist())):
        column = candidates[start:end]
        column.partition(k)
        middle[1, b] = column[k]
        if pair:
            middle[0, b] = column[:k].max()
    roots = np.sqrt(middle * middle)
    h = np.where(even, (roots[0] + roots[1]) / 2.0, roots[1])
    out[live] = h
    return out


def _single_factors(columns: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """_factor's V, at reg = _regularizer(n), for each column (length n) of columns.

    A one-column kernel has rank of about 20 at a few hundred rows, so the
    pivoted Cholesky evaluates only its pivot columns (Bach and Jordan's
    incomplete Cholesky), for _CHUNK blocks at a time.  The bandwidths come
    from the sorted columns (_bandwidths), with no pass over all n^2 / 2
    pairs.  The bandwidth and every kernel entry have the bits of _kernel,
    and a block's factor has the same bits whatever else shares its chunk.
    Columns are read and factors yielded a chunk at a time, in order, so a
    caller that consumes them as they come holds one chunk, not all of them.
    """
    source = iter(columns)
    while chunk := list(islice(source, _CHUNK)):
        chunk = np.array(chunk)
        n = chunk.shape[1]
        reg = _regularizer(n)
        bandwidths = np.concatenate([_bandwidths(chunk[at:at + _SELECT_COLUMNS])
                                     for at in range(0, len(chunk), _SELECT_COLUMNS)])
        live = bandwidths != 0.0
        scale = -2.0 * bandwidths[live] * bandwidths[live]
        lows = iter(_pivoted_cholesky(chunk[live], scale))
        for h in bandwidths:
            yield np.zeros((n, 0)) if h == 0.0 else _push_through(next(lows), reg)


# Dividing by scale is the one step here that can overflow: a subnormal scale
# sends an ordinary distance to -inf, whose exp is the kernel's limit 0, as in
# _kernel.  Silenced for the whole call: per pivot it costs a few us a step.
@np.errstate(over="ignore")
def _pivoted_cholesky(x: np.ndarray, scale: np.ndarray) -> list[np.ndarray]:
    """Pivoted Cholesky factors K ~ L L^T (n x rank) of the kernels of the rows of x.

    Row b's kernel is exp((x_i - x_j)^2 / scale[b]); its column j is computed
    only when j becomes a pivot.  The rules are dpstrf's: each step pivots on
    the largest residual diagonal 1 - sum_k L_ik^2 (the first such row on a
    tie), and a factor stops once no pivot exceeds _PIVOT_TOL.  A pivoted
    row's residual is then zero up to rounding, far below the tolerance, so
    it is never chosen again, and its later entries, exact zeros in dpstrf,
    are rounding residue.  Rows of a finished factor go on being computed,
    unused, until the batch ends.
    """
    count, n = x.shape
    rows = np.arange(count)
    # factor[b, j] is column j of row b's L; the stack doubles when full.
    factor = np.empty((count, min(n, 32), n))
    col = np.empty((count, n))
    sumsq = np.zeros((count, n))
    residual = np.ones((count, n))
    rank = np.zeros(count, dtype=np.intp)
    live = np.ones(count, dtype=bool)
    for j in range(n):
        pivot = residual.argmax(axis=1)
        top = residual[rows, pivot]
        live &= top > _PIVOT_TOL
        if not live.any():
            break
        rank += live
        if j == factor.shape[1]:
            factor = np.concatenate([factor, np.empty_like(factor)], axis=1)[:, :n]
        # _kernel's operations on the pivot's column: (x_i - x_p)^2 / scale, exp.
        np.subtract(x, x[rows, pivot, None], out=col)
        np.multiply(col, col, out=col)
        np.divide(col, scale[:, None], out=col)
        np.exp(col, out=col)
        col -= (factor[rows, :j, pivot][:, None, :] @ factor[:, :j])[:, 0]
        root = np.sqrt(top, where=live, out=np.ones(count))
        col /= root[:, None]
        factor[:, j] = col
        np.multiply(col, col, out=col)
        sumsq += col
        np.subtract(1.0, sumsq, out=residual)
    # Transposed views: the n x rank factor in Fortran order.
    return [factor[b, :rank[b]].T for b in range(count)]


def _regularizer(n: int) -> float:
    """reg = n eps_n of the resolvent G (G + reg I)^{-1} at n rows."""
    return n * n ** (-_EPS_EXPONENT)


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


def _checked_rows(values: np.ndarray, config: HsicConfig) -> np.ndarray:
    """values capped at config.max_rows rows, then check_kernel_range and the 4-row minimum."""
    rows = _cap_rows(np.asarray(values, dtype=np.float64), config)
    check_kernel_range(rows)
    if len(rows) < 4:
        raise ValueError(f"need at least 4 rows, got {len(rows)}")
    return rows


class ColumnFactors:
    """The statistic for queries (i, j | k) on the columns of one sample.

    Rows are capped once, to the strided subset of config.max_rows rows, and
    pass check_kernel_range before the 4-row minimum applies.  Every single
    column is factored at construction and kept for the life of the object:
    those are the unconditional endpoints and the one-column conditioning
    sets a search asks for again and again.  A block of two or more columns
    is factored per query, so what is kept stays within p * n * rank.

    single, when given, is the factor stream of column_factors: values are
    then rows it has capped and checked, and the stream's next p factors
    are theirs.
    """

    def __init__(self, values: np.ndarray, config: HsicConfig = HsicConfig(),
                 single: Iterator[np.ndarray] | None = None) -> None:
        if single is None:
            values = _checked_rows(values, config)
            single = _single_factors(values.T)
        self._values = values
        self._reg = _regularizer(len(values))
        self._single = list(islice(single, values.shape[1]))

    def _block(self, columns: tuple[int, ...]) -> np.ndarray:
        if len(columns) > 1:
            return _factor(self._values[:, columns], self._reg)
        return self._single[columns[0]]

    def statistic(self, i: int, j: int, k: tuple[int, ...]) -> float:
        if not k:
            return _statistic(self._block((i,)), self._block((j,)), None)
        return _statistic(self._block((i, *k)), self._block((j, *k)), self._block(k))


def column_factors(values: np.ndarray, starts: Sequence[int], length: int,
                   config: HsicConfig = HsicConfig()) -> Iterator[ColumnFactors]:
    """ColumnFactors(values[s:s + length], config) for each start s, in order.

    The single columns of all segments are factored as one _single_factors
    stream, read as the segments are taken, so a chunk of the stream can
    span segments; a factor has the same bits whatever shares its chunk.
    Each segment is capped and checked once, when the stream or its own
    turn reaches it, whichever comes first.  The stream stops before a
    segment that fails, and the error is raised at that segment's turn,
    once the ones before it are used.
    """
    checked: dict[int, np.ndarray | ValueError] = {}

    def rows(s: int) -> np.ndarray | ValueError:
        if s not in checked:
            try:
                checked[s] = _checked_rows(values[starts[s]:starts[s] + length], config)
            except ValueError as exc:
                checked[s] = exc
        return checked[s]

    def columns() -> Iterator[np.ndarray]:
        for s in range(len(starts)):
            segment = rows(s)
            if isinstance(segment, ValueError):
                return
            yield from segment.T

    single = _single_factors(columns())
    for s in range(len(starts)):
        segment = rows(s)
        if isinstance(segment, ValueError):
            raise segment
        factors = ColumnFactors(segment, single=single)
        del checked[s]
        yield factors


def _stack_query(x: np.ndarray, y: np.ndarray, z: np.ndarray | None) -> np.ndarray:
    """The matrix [x, y, z] of one query, shaped as hsic_conditional says."""
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
    return np.hstack([xa, ya, za])


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
    values = _stack_query(x, y, z)
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


def check_kernel_range(values: np.ndarray) -> None:
    """Reject columns whose kernel distances could overflow float64.

    Checks exactly the rows given: those ColumnFactors keeps, and the whole
    capped pair of pair_gamma, whose resamples can miss a faulty row.  A
    block holds at most all p columns, so a squared pairwise distance is at
    most p times the largest squared column range; the squared bandwidth
    is no larger, and centered_gram doubles it.  A column with 2 p range^2
    beyond the float64 maximum, or holding inf or nan, is named (1-based) in
    a ValueError, as CovMatrix does for Fisher-z; otherwise no Gram matrix
    built from these rows meets inf or nan.
    """
    arr = np.asarray(values, dtype=np.float64)
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
    so inputs down to CALIBRATION_MIN_ROWS rows still calibrate.  The capped
    pair is checked once, before the bootstrap: check_kernel_range, and no
    column with bandwidth 0, constant or so narrow that every squared
    distance underflows, whose every resample would give the statistic 0.
    """
    arr = np.asarray(pair, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"need a two-column matrix, got shape {arr.shape}")
    arr = _cap_rows(arr, config)
    if len(arr) < CALIBRATION_MIN_ROWS:
        raise ValueError(f"need at least {CALIBRATION_MIN_ROWS} rows to calibrate, got {len(arr)}")
    check_kernel_range(arr)
    flat = np.flatnonzero(_bandwidths(arr.T) == 0.0)
    if flat.size:
        named = ", ".join(str(c + 1) for c in flat)
        raise ValueError(
            f"calibration column(s) {named}: constant over all {len(arr)} rows up to float64 "
            "underflow (every squared distance between them is 0), so every bootstrap "
            "statistic would be 0 and no threshold can be calibrated"
        )
    block = max(2.0, min(boot.expected_block_length, arr.shape[0] / 10.0))
    if block != boot.expected_block_length:
        boot = replace(boot, expected_block_length=block)

    def stat(resamples: np.ndarray) -> np.ndarray:
        xs = _single_factors(resamples[:, :, 0])
        ys = _single_factors(resamples[:, :, 1])
        return np.array([_statistic(vx, vy, None) for vx, vy in zip(xs, ys)])

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

    The inputs are shaped as for hsic_conditional; ColumnFactors caps their
    rows at config.max_rows and checks their range, as it does for a search.
    """
    if config.gamma is None:
        raise ValueError("hsic_ci_test needs a fixed threshold: set HsicConfig.gamma")
    values = _stack_query(x, y, z)
    stat = ColumnFactors(values, config).statistic(0, 1, tuple(range(2, values.shape[1])))
    return CiOutcome(stat, config.gamma)
