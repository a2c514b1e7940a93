"""Kernel conditional-dependence statistic and its calibration."""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import pdist, squareform

from tspc.citests import hsic as hsic_module
from tspc.citests import (
    BootstrapConfig,
    ColumnFactors,
    HsicConfig,
    decoupled_pair_gamma,
    hsic_ci_test,
    hsic_conditional,
    pair_gamma,
    stationary_bootstrap_threshold,
)
from tspc.citests.bootstrap import stationary_bootstrap_indices
from tspc.citests.hsic import centered_gram, check_kernel_range, median_bandwidth, strided_subset
from tspc.pc import PcConfig, pc
from tspc.rng import derive_seed, make_generator

from .oracles import bandwidth_oracle, kernel_factor_oracle

NO_Z = np.empty((0, 0))


def empty_z(n: int) -> np.ndarray:
    return np.empty((n, 0))


def resample_statistics(resamples: np.ndarray) -> np.ndarray:
    """The unconditional statistic of each two-column resample, one query at a time."""
    return np.array([hsic_conditional(v[:, 0], v[:, 1], None) for v in resamples])


def null_calibrated_gamma(n: int, cal_seed: int, boot_seed: int,
                          num_replicates: int = 50, block: float = 15.0) -> float:
    """Bootstrap quantile of the statistic on an independent reference pair.

    Resampling rows jointly preserves whatever dependence the data carry,
    so the quantile must be taken on data known to satisfy the null; the
    resulting gamma then transfers to the pair under test.
    """
    rng = make_generator(cal_seed)
    cal = np.column_stack([rng.normal(size=n), rng.normal(size=n)])

    return stationary_bootstrap_threshold(
        cal,
        resample_statistics,
        BootstrapConfig(num_replicates=num_replicates, expected_block_length=block,
                        quantile=0.95, seed=boot_seed),
    )


class TestCenteredGram:
    def test_row_sums_vanish(self):
        rng = make_generator(30)
        g = centered_gram(rng.normal(size=(12, 2)))
        assert np.allclose(g.sum(axis=0), 0.0, atol=1e-10)
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-10)

    def test_two_point_form(self):
        g = centered_gram(np.array([[0.0], [1.0]]))
        c = g[0, 0]
        assert c > 0.0
        assert np.allclose(g, c * np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_positive_semidefinite(self):
        rng = make_generator(31)
        g = centered_gram(rng.normal(size=(20, 3)))
        eigs = np.linalg.eigvalsh(g)
        assert eigs.min() >= -1e-8 * np.linalg.norm(g)

    def test_identical_points_give_zero_matrix(self):
        # median distance zero is the all-ones kernel limit, which centers to zero
        assert np.array_equal(centered_gram(np.zeros((5, 1))), np.zeros((5, 5)))

    def test_mostly_tied_column_keeps_its_spread(self):
        # 4 of 5 values tied: 6 of 10 pairs sit at distance zero, so the
        # bandwidth is the median of the positive distances, not zero
        g = centered_gram(np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
        assert g[4, 4] > 0.0
        assert np.allclose(g.sum(axis=0), 0.0)

    @pytest.mark.parametrize("n", [7, 8, 400])
    @pytest.mark.parametrize("tied", [False, True])
    def test_kernel_bandwidth_is_the_median_rule_bit_for_bit(self, n, tied):
        # 21 and 28 pairs cover an odd and an even median; 78% tied rows
        # leave more than half of the pairs at distance zero from n = 8 on
        x = make_generator(derive_seed(93, n)).normal(size=(n, 2))
        if tied:
            x[: int(0.78 * n)] = 0.0
        dist = pdist(x)
        h = np.median(dist)
        if h == 0.0:
            h = np.median(dist[dist > 0.0])
        kernel = np.exp(-squareform(pdist(x, "sqeuclidean")) / (2.0 * h * h))
        reference = (kernel - kernel.mean(axis=0, keepdims=True)
                     - kernel.mean(axis=1, keepdims=True) + kernel.mean())
        assert np.array_equal(centered_gram(x), reference)

    def test_median_bandwidth_is_median_distance(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        # pairwise distances 1, 2, 3
        assert median_bandwidth(pts) == pytest.approx(2.0)


class TestStridedSubset:
    def test_no_cap_when_small(self):
        assert list(strided_subset(5, 10)) == [0, 1, 2, 3, 4]

    def test_even_coverage_when_capped(self):
        idx = strided_subset(400, 100)
        assert len(idx) == 100
        assert idx[0] == 0
        assert idx[-1] == 396
        assert all(b > a for a, b in zip(idx, idx[1:]))


class TestStatistic:
    def test_needs_four_rows(self):
        with pytest.raises(ValueError, match="at least 4"):
            hsic_conditional(np.zeros(3), np.zeros(3), empty_z(3))

    def test_symmetric_in_x_and_y(self):
        rng = make_generator(32)
        x = rng.normal(size=60)
        y = rng.normal(size=60) + 0.5 * x
        z = rng.normal(size=(60, 1))
        assert hsic_conditional(x, y, z) == pytest.approx(
            hsic_conditional(y, x, z), abs=1e-12
        )

    def test_never_meaningfully_negative(self):
        for seed in range(10):
            rng = make_generator(derive_seed(33, seed))
            x = rng.normal(size=50)
            y = rng.normal(size=50)
            z = rng.normal(size=(50, 1))
            assert hsic_conditional(x, y, z) >= -1e-8

    def test_identical_pair_dwarfs_independent_pair(self):
        rng = make_generator(34)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        dependent = hsic_conditional(x, x.copy(), empty_z(200))
        independent = hsic_conditional(x, y, empty_z(200))
        assert dependent > 10.0 * independent

    def test_median_statistic_decays_with_n(self):
        # independent noise, empty conditioning set: the statistic drifts
        # toward zero as n grows. The conditional variant does not reach
        # its decay regime at this scale (the regularization shrinks as
        # n**-0.25, and the shared-z bias still dominates at n=3200), so
        # the consistency check pins the unconditional form.
        medians = []
        for n in (100, 200, 400):
            vals = []
            for seed in range(60):
                rng = make_generator(derive_seed(58, n, seed))
                x = rng.normal(size=n)
                y = rng.normal(size=n)
                vals.append(hsic_conditional(x, y, empty_z(n)))
            medians.append(float(np.median(vals)))
        assert medians[0] > medians[1] > medians[2]

    def test_constant_conditioner_equals_no_conditioner(self):
        # the zero-spread guard realizes the infinite-bandwidth limit, so a
        # constant z column must reproduce the unconditional statistic exactly
        rng = make_generator(35)
        x = rng.normal(size=80)
        y = rng.normal(size=80) + x
        with_const = hsic_conditional(x, y, np.ones((80, 1)))
        without = hsic_conditional(x, y, empty_z(80))
        assert with_const == pytest.approx(without, abs=1e-12)


    def test_zero_inflated_dependence_is_seen(self):
        # 78.5% of x is exactly zero, so more than half of its pairwise
        # distances vanish; y = x + small noise is still far from independent
        rng = make_generator(9400)
        x = np.zeros(200)
        x[rng.permutation(200)[:43]] = rng.normal(size=43)
        y = x + 0.1 * rng.normal(size=200)
        z = rng.normal(size=200)
        dependent = hsic_conditional(x, y, None)
        assert dependent > 10.0 * hsic_conditional(x, z, None) > 0.0


def dense_statistic(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
    """The statistic from dense resolvents R = G (G + reg I)^{-1}, each a full solve."""
    n = len(x)
    reg = n * n ** (-0.25)

    def resolvent(block: np.ndarray) -> np.ndarray:
        gram = centered_gram(block)
        solved = cho_solve(cho_factor(gram + reg * np.eye(n), lower=True), gram)
        return (solved + solved.T) / 2.0

    rx = resolvent(np.column_stack([x, z]))
    ry = resolvent(np.column_stack([y, z]))
    if z.shape[1] == 0:
        return float(np.trace(ry @ rx))
    rz = resolvent(z)
    return float(np.trace(ry @ rx) - 2.0 * np.trace(ry @ rx @ rz)
                 + np.trace(ry @ rz @ rx @ rz))


def accuracy_sample(n: int, size: int, seed: int) -> tuple[np.ndarray, ...]:
    # x and y both lean nonlinearly on the first conditioning column
    rng = make_generator(derive_seed(90, n, size, seed))
    z = rng.normal(size=(n, 3))
    x = np.sin(z[:, 0]) + 0.5 * rng.normal(size=n)
    y = z[:, 0] ** 2 + 0.5 * x + 0.5 * rng.normal(size=n)
    return x, y, z[:, :size]


class TestAgainstDenseResolvents:
    """The factor form against full Cholesky solves of the centered Gram matrices."""

    @staticmethod
    def assert_close(x, y, z):
        got = hsic_conditional(x, y, z)
        want = dense_statistic(x, y, z)
        assert abs(got - want) <= 1e-12 + 1e-9 * abs(want), (got, want)

    @pytest.mark.parametrize("size", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [20, 50, 400])
    def test_matches(self, n, size):
        self.assert_close(*accuracy_sample(n, size, 0))

    @pytest.mark.parametrize("size", [0, 1, 2, 3])
    def test_constant_column(self, size):
        x, y, z = accuracy_sample(60, size, 1)
        self.assert_close(np.full(60, 2.5), y, z)
        if size:
            z = z.copy()
            z[:, -1] = -1.0
            self.assert_close(x, y, z)

    @pytest.mark.parametrize("size", [0, 1, 2, 3])
    def test_mostly_tied_column(self, size):
        # 78% of the column is exactly zero, so most pairwise distances vanish
        x, y, z = accuracy_sample(100, size, 2)
        tied = np.zeros(100)
        tied[make_generator(derive_seed(91, size)).permutation(100)[:22]] = x[:22]
        self.assert_close(tied, y, z)
        if size:
            z = z.copy()
            z[:, 0] = tied
            self.assert_close(x, y, z)

    @pytest.mark.parametrize("size", [0, 1, 2, 3])
    def test_bootstrap_resample(self, size):
        # rows drawn with replacement repeat, so every kernel is rank-deficient
        x, y, z = accuracy_sample(200, size, 3)
        rows = make_generator(derive_seed(92, size)).integers(0, 200, size=200)
        assert len(np.unique(rows)) < 150
        self.assert_close(x[rows], y[rows], z[rows])


class TestFactorBitForBit:
    """_factor's direct LAPACK tail returns exactly the bits of scipy.linalg's wrappers."""

    @pytest.mark.parametrize("columns", [1, 2, 3])
    @pytest.mark.parametrize("n", [50, 400])
    def test_matches_the_scipy_tail(self, n, columns):
        x, _, z = accuracy_sample(n, 3, 4)
        block = np.column_stack([x, z])[:, :columns]
        reg = n * n ** (-hsic_module._EPS_EXPONENT)
        got = hsic_module._factor(block, reg)
        want = kernel_factor_oracle(block, reg)
        assert got.shape == want.shape and got.shape[1] > 0
        assert got.tobytes() == want.tobytes()


def underflowing(rng: np.random.Generator, n: int) -> np.ndarray:
    """Values of 1e-166 to 1e-158, some of them ordinary: some squares underflow, some do not.

    A difference of at most about 1.57e-162 squares to 0.  The magnitudes
    stop at a random power from 1e-164 to 1e-158, so in some columns most
    pairs square to 0 and in others few do.
    """
    top = rng.uniform(-164.0, -158.0)
    column = rng.normal(size=n) * 10.0 ** rng.uniform(-166.0, top, size=n)
    ordinary = rng.random(n) < rng.uniform(0.0, 0.4)
    column[ordinary] = rng.normal(size=int(ordinary.sum()))
    return column


@st.composite
def one_columns(draw, sizes=(4, 5, 10, 23, 50, 400),
                kinds=("normal", "rounded", "mostly tied", "constant", "spaced", "underflowing")):
    """One column of a kind: normal draws, rounded (ties), mostly tied, constant,
    evenly spaced, underflowing (see underflowing), Cauchy, or huge (+-1e150)."""
    n = draw(st.sampled_from(sizes))
    kind = draw(st.sampled_from(kinds))
    rng = make_generator(draw(st.integers(0, 2**31 - 1)))
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "spaced":
        return rng.normal() + rng.uniform(0.1, 10.0) * np.arange(n)
    if kind == "underflowing":
        return underflowing(rng, n)
    if kind == "cauchy":
        return rng.standard_cauchy(size=n)
    column = rng.normal(size=n)
    if kind == "huge":
        # inside check_kernel_range's bound of about 9.5e153 for one column
        return 1e150 * column
    if kind == "rounded":
        return np.round(column)
    if kind == "mostly tied":
        # more than half of the pairs tied, so the positive-median rule sets h
        column[: int(0.78 * n)] = 0.0
    return column


def bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestSingleColumnBandwidth:
    """_bandwidths, selected from sorted values, against the dense rule over pdist."""

    def test_square_zero_is_the_largest_double_whose_square_is_0(self):
        tie = hsic_module._SQUARE_ZERO
        assert tie * tie == 0.0
        assert np.nextafter(tie, 1.0) ** 2 > 0.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(column=one_columns(sizes=(2, 3, 4, 5, 50, 400, 401), kinds=(
        "normal", "rounded", "mostly tied", "constant", "spaced", "cauchy", "huge", "underflowing")))
    @example(column=np.array([0.0, 1e-163]))  # one pair, tied: bandwidth 0
    @example(column=np.array([0.0, 0.0, 0.0, 0.0, 1.0]))  # 6 of 10 pairs tied
    @example(column=np.r_[np.zeros(300), make_generator(98).normal(size=101)])
    def test_has_the_bits_of_the_dense_rule(self, column):
        # 401 rows give 80,200 pairs (even) and 400 rows 79,800 (even); 2, 3,
        # 4 and 5 rows give 1, 3, 6 and 10; 50 rows 1,225 (odd)
        got = hsic_module._bandwidths(column[None, :])
        assert got.shape == (1,)
        assert bits(got[0]) == bits(bandwidth_oracle(column))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(column=one_columns(sizes=(5, 12, 50, 101), kinds=(
        "normal", "rounded", "mostly tied", "spaced", "cauchy", "underflowing")),
        gather=st.sampled_from([0, 1, 2]), sample=st.sampled_from([1, 2, 4, 16]))
    def test_narrowing_keeps_the_bits(self, column, gather, sample):
        # at these sizes the bracket normally holds every pair; with a gather
        # bound of at most 2 pairs per row it must narrow, round after round,
        # through ties and through limits proposed near the middle ranks
        with mock.patch.object(hsic_module, "_GATHER_PER_ROW", gather), \
                mock.patch.object(hsic_module, "_SAMPLE_PER_ROW", sample):
            got = hsic_module._bandwidths(column[None, :])
        assert bits(got[0]) == bits(bandwidth_oracle(column))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(column=one_columns(sizes=(2, 7, 40), kinds=(
        "normal", "rounded", "spaced", "cauchy", "huge", "underflowing")),
        mixed=st.booleans(), data=st.data())
    def test_pair_ends_count_the_true_differences(self, column, mixed, data):
        # ends[i] counts the j with fl(s_j - s_i) <= limit, whatever the
        # rounding of s_i + limit; mixed columns add values near 1e16, whose
        # spacing is 2, to small ones
        if mixed:
            column = column.copy()
            column[::2] = 1e16 + make_generator(len(column)).integers(-8, 8, size=column[::2].size)
        s = np.sort(column)
        diffs = s[None, :] - s[:, None]
        pick = data.draw(st.sampled_from(sorted(set(np.abs(diffs).ravel().tolist()))))
        limit = data.draw(st.sampled_from([pick, np.nextafter(pick, np.inf),
                                           np.nextafter(pick, 0.0), pick * 0.5]))
        padded = np.r_[s, np.inf][None, :]
        ends = hsic_module._pair_ends(padded, np.array([limit]))
        assert ends[0].tolist() == (diffs <= limit).sum(axis=1).tolist()

    def test_one_chunk_of_columns_under_every_rule(self):
        # each column of a 16-column chunk gets its own bandwidth, whichever
        # rule sets it: plain median (odd and even pair counts alike), the
        # positive median of a mostly tied column, or 0
        rng = make_generator(99)
        n = 400
        chunk = rng.normal(size=(16, n))
        chunk[0] = 2.5  # constant: 0
        chunk[1] = 1e-170 * rng.normal(size=n)  # every square underflows: 0
        chunk[2, :320] = 0.0  # mostly tied
        chunk[3, :282] = 1.0  # 39,621 of 79,800 pairs tied: just under half
        chunk[4, :283] = 1.0  # 39,903 tied: just over half
        chunk[5] = np.round(chunk[5])
        chunk[6] = underflowing(rng, n)
        chunk[7] = 1e-162 * rng.normal(size=n)  # most squares underflow, some do not
        chunk[8] = rng.standard_cauchy(size=n)
        chunk[9] = 1e150 * chunk[9]
        chunk[10] = np.arange(n, dtype=np.float64)
        chunk[11, ::2] = chunk[11, 1::2]  # every value twice
        got = hsic_module._bandwidths(chunk)
        want = [bandwidth_oracle(column) for column in chunk]
        assert [bits(h) for h in got] == [bits(h) for h in want]
        assert want[0] == want[1] == 0.0 and min(want[2:]) > 0.0
        # the same bits alone as in the chunk
        assert [bits(hsic_module._bandwidths(column[None, :])[0]) for column in chunk] == \
            [bits(h) for h in want]

    @pytest.mark.parametrize("n", [50, 400])
    def test_single_factors_make_no_pass_over_all_pairs(self, monkeypatch, n):
        rng = make_generator(derive_seed(99, n))
        columns = rng.normal(size=(20, n))
        columns[3, : int(0.78 * n)] = 0.0
        columns[5] = np.round(columns[5])
        reg = hsic_module._regularizer(n)
        want = list(hsic_module._single_factors(columns, reg))

        def no_pdist(*args, **kwargs):
            raise AssertionError("pdist called")

        monkeypatch.setattr(hsic_module, "pdist", no_pdist)
        got = list(hsic_module._single_factors(columns, reg))
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
        assert all(v.shape[1] > 0 for v in got)


def single_factor(column: np.ndarray) -> np.ndarray:
    reg = hsic_module._regularizer(len(column))
    (factor,) = hsic_module._single_factors(column[None, :], reg)
    return factor


class TestSingleColumnFactors:
    """The batched on-demand factor of one-column blocks against the dense _factor."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(column=one_columns())
    @example(column=np.full(4, 1.5))  # constant: n x 0
    @example(column=np.arange(10.0))  # evenly spaced and short: full rank 10
    @example(column=np.r_[np.zeros(39), make_generator(95).normal(size=11)])
    @example(column=make_generator(96).normal(size=400))
    def test_matches_the_dense_factor(self, column):
        n = len(column)
        got = single_factor(column)
        want = hsic_module._factor(column[:, None], hsic_module._regularizer(n))
        assert got.shape == want.shape
        assert np.abs(got @ got.T - want @ want.T).max(initial=0.0) <= 1e-14

    def test_short_spaced_column_reaches_full_rank(self):
        assert single_factor(np.arange(10.0)).shape == (10, 10)
        assert single_factor(np.full(4, -2.0)).shape == (4, 0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(column=one_columns(sizes=(4, 23, 50)), seed=st.integers(0, 2**31 - 1),
           others=st.integers(0, 2 * hsic_module._CHUNK), data=st.data())
    def test_same_bits_alone_or_in_a_chunk(self, column, seed, others, data):
        # the column among up to two chunks of others, constant ones included
        n = len(column)
        rng = make_generator(seed)
        batch = rng.normal(size=(others + 1, n)) * rng.uniform(0.1, 10.0, size=(others + 1, 1))
        batch[rng.random(others + 1) < 0.2] = 1.0
        at = data.draw(st.integers(0, others))
        batch[at] = column
        alone = single_factor(column)
        together = list(hsic_module._single_factors(batch, hsic_module._regularizer(n)))
        assert together[at].shape == alone.shape
        assert together[at].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("n", [4, 50, 400])
    def test_kernel_entries_have_the_dense_bits(self, n):
        # the first pivot is row 0 and its factor column is the kernel's
        # column 0 divided by 1, so it must be _kernel's bits exactly
        x = make_generator(derive_seed(97, n)).normal(size=(2, n))
        scales = []
        for column in x:
            h = bandwidth_oracle(column)
            scales.append(-2.0 * h * h)
        lows = hsic_module._pivoted_cholesky(x, np.array(scales))
        for column, low in zip(x, lows):
            kernel = hsic_module._full_kernel(hsic_module._kernel(column[:, None]))
            assert np.array_equal(low[:, 0], kernel[:, 0])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(x=one_columns(sizes=(4, 10, 23, 50)), seed=st.integers(0, 2**31 - 1),
           conditioned=st.booleans())
    def test_statistic_matches_the_dense_oracle(self, x, seed, conditioned):
        # single-column blocks are x and y unconditionally and z given one
        # column.  Each factor drops a kernel part of trace at most 1e-12 n,
        # as the dense path does; that moves a statistic by about 1e-14, the
        # floor for statistics near 0.
        n = len(x)
        rng = make_generator(seed)
        z = rng.normal(size=(n, int(conditioned)))
        y = np.sin(x) + rng.normal(size=n) + (z[:, 0] if conditioned else 0.0)
        got = ColumnFactors(np.column_stack([x, y, z])).statistic(0, 1, (2,) if conditioned else ())
        want = dense_statistic(x, y, z)
        assert got == pytest.approx(want, rel=1e-12, abs=5e-14)


def mostly_tiny(seed: int) -> np.ndarray:
    # 100 values of 1e-160 noise then 20 ordinary ones: the median bandwidth
    # is about 1e-160, so 2 h^2 is subnormal and an ordinary distance over it
    # overflows to -inf, whose exp is the kernel's limit 0
    rng = make_generator(derive_seed(97, seed))
    return np.r_[1e-160 * rng.normal(size=100), rng.normal(size=20)]


class TestSubnormalBandwidth:
    def test_single_column_path_is_silent(self):
        y = make_generator(derive_seed(98, 0)).normal(size=120)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stat = hsic_conditional(mostly_tiny(0), y, None)
        assert np.isfinite(stat) and stat >= 0.0

    def test_dense_block_path_is_silent(self):
        # a two-column z is a dense _kernel block, and so are (x, z), (y, z)
        rng = make_generator(derive_seed(98, 1))
        z = np.column_stack([mostly_tiny(1), mostly_tiny(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stat = hsic_conditional(rng.normal(size=120), rng.normal(size=120), z)
        assert np.isfinite(stat) and stat >= 0.0


class TestCiTest:
    def test_exactly_one_calibration_mode(self):
        # a fixed gamma is the only threshold policy, so it must be set
        rng = make_generator(36)
        x = rng.normal(size=50)
        with pytest.raises(ValueError, match="gamma"):
            hsic_ci_test(x, x.copy(), empty_z(50), HsicConfig())

    def test_constant_z_decision_matches_empty_z(self):
        rng = make_generator(37)
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        cfg = HsicConfig(gamma=0.05)
        a = hsic_ci_test(x, y, empty_z(60), cfg)
        b = hsic_ci_test(x, y, np.full((60, 1), 3.0), cfg)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-12)
        assert a.independent == b.independent

    def test_max_rows_cap_changes_sample(self):
        rng = make_generator(38)
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        full = hsic_ci_test(x, y, empty_z(300), HsicConfig(gamma=1.0))
        capped = hsic_ci_test(x, y, empty_z(300), HsicConfig(gamma=1.0, max_rows=100))
        assert full.statistic != capped.statistic
        rows = strided_subset(300, 100)
        assert capped.statistic == hsic_conditional(x[rows], y[rows], None)

    def test_capped_row_mismatch_named(self):
        # an input whose row count differs from x is not cut, so the
        # statistic's row check names it
        x = make_generator(41).normal(size=300)
        cfg = HsicConfig(gamma=1.0, max_rows=100)
        with pytest.raises(ValueError, match="but y has 299"):
            hsic_ci_test(x, x[:-1], None, cfg)
        with pytest.raises(ValueError, match="but z has 299"):
            hsic_ci_test(x, x, x[:-1], cfg)

    @pytest.mark.parametrize("max_rows", [None, 40])
    def test_every_empty_z_shape_is_no_conditioning(self, max_rows):
        rng = make_generator(39)
        x = rng.normal(size=60)
        y = rng.normal(size=60) + 0.5 * x
        cfg = HsicConfig(gamma=0.05, max_rows=max_rows)
        outcomes = [hsic_ci_test(x, y, z, cfg) for z in (None, np.empty(0), empty_z(60))]
        assert outcomes[0] == outcomes[1] == outcomes[2]

    @pytest.mark.parametrize("max_rows", [None, 40])
    def test_vector_z_equals_column_z(self, max_rows):
        rng = make_generator(40)
        z = rng.normal(size=60)
        x = z + rng.normal(size=60)
        y = z + rng.normal(size=60)
        cfg = HsicConfig(gamma=0.05, max_rows=max_rows)
        assert hsic_ci_test(x, y, z, cfg) == hsic_ci_test(x, y, z[:, None], cfg)

    def test_null_coverage_with_calibrated_gamma(self):
        # independent pairs accepted at roughly the quantile level; the
        # block bootstrap leans conservative, so the rate sits at the top
        # of the tolerance band rather than at 95 exactly
        n = 150
        accepted = 0
        for seed in range(200):
            gamma = null_calibrated_gamma(n, derive_seed(55, seed), derive_seed(56, seed))
            rng = make_generator(derive_seed(57, seed))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            accepted += hsic_ci_test(x, y, empty_z(n), HsicConfig(gamma=gamma)).independent
        assert accepted >= 180  # >= 90% of 200

    def test_sine_dependence_rejected_with_calibrated_gamma(self):
        n = 150
        rejected = 0
        for seed in range(200):
            gamma = null_calibrated_gamma(n, derive_seed(55, seed), derive_seed(56, seed))
            rng = make_generator(derive_seed(57, seed))
            rng.normal(size=2 * n)  # skip the null pair drawn in the sibling test
            x = rng.normal(size=n)
            y = np.sin(x) + 0.1 * rng.normal(size=n)
            rejected += not hsic_ci_test(x, y, empty_z(n), HsicConfig(gamma=gamma)).independent
        assert rejected >= 190  # >= 95% of 200

    def test_lagged_nonlinear_pair_detected(self):
        # nonlinear lagged driver pair: kernel statistic clears a gamma
        # calibrated on an independent reference of the same length
        from tspc.simulate import SimConfig, generate

        detected = 0
        for seed in range(25):
            data = generate(SimConfig(paradigm="NonlinearNonGaussianVAR", eta=1.0, n=401,
                                      seed=derive_seed(73, seed)))
            x = data.values[:-1, 0]
            y = data.values[1:, 2]
            n = x.shape[0]
            gamma = null_calibrated_gamma(n, derive_seed(74, seed), derive_seed(75, seed),
                                          block=20.0)
            out = hsic_ci_test(x, y, empty_z(n), HsicConfig(gamma=gamma))
            detected += not out.independent
        assert detected >= 20  # >= 80% of 25 seeds

    @pytest.mark.parametrize("max_rows", [None, 120])
    def test_search_decisions_equal_single_queries(self, max_rows):
        # a search and hsic_ci_test must cap and check the same rows: every
        # decision of the search, at every conditioning level, is the single
        # query's statistic bit for bit and its verdict
        x = make_generator(derive_seed(83, 0)).normal(size=(300, 5))
        cfg = HsicConfig(gamma=1e-6, max_rows=max_rows)
        decisions = pc(x, PcConfig(cfg)).decisions
        assert max(len(q.k) for q, _ in decisions) == 3
        for query, outcome in decisions:
            z = x[:, list(query.k)] if query.k else None
            single = hsic_ci_test(x[:, query.i], x[:, query.j], z, cfg)
            assert (single.statistic, single.independent) == (outcome.statistic,
                                                              outcome.independent)


class TestPairGamma:
    def test_bootstrap_of_capped_pair_with_clamped_block(self):
        # 600 rows capped to 150 clamp the block length 20 to 150 / 10 = 15
        rng = make_generator(derive_seed(81, 0))
        pair = rng.normal(size=(600, 2))
        base = dict(num_replicates=20, quantile=0.9, seed=5)
        gamma = pair_gamma(pair, BootstrapConfig(expected_block_length=20.0, **base),
                           HsicConfig(max_rows=150))
        reference = stationary_bootstrap_threshold(
            pair[strided_subset(600, 150)], resample_statistics,
            BootstrapConfig(expected_block_length=15.0, **base),
        )
        assert gamma == reference

    @pytest.mark.parametrize("rows", [20, 150])
    def test_each_resample_statistic_is_the_single_query_one(self, monkeypatch, rows):
        # the batched factors give every resample the statistic that
        # hsic_conditional gives it alone; x is mostly tied, so some
        # resamples hold a constant x and the statistic 0
        calls = []

        def capture(values, statistic, config):
            calls.append((values, statistic, config))
            return 1.0

        monkeypatch.setattr(hsic_module, "stationary_bootstrap_threshold", capture)
        rng = make_generator(derive_seed(81, rows))
        pair = rng.normal(size=(rows, 2))
        pair[rng.permutation(rows)[: rows - 3], 0] = 0.0
        pair_gamma(pair, BootstrapConfig(expected_block_length=5.0))
        (values, statistic, config), = calls
        draw = make_generator(derive_seed(81, rows, 1))
        resamples = np.stack([values[stationary_bootstrap_indices(rows, 2.0, draw)]
                              for _ in range(60)])
        want = resample_statistics(resamples)
        assert (want == 0.0).any() and (want > 0.0).any()
        np.testing.assert_allclose(statistic(resamples), want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("column", [1, 2])
    def test_constant_column_named_before_the_bootstrap(self, monkeypatch, column):
        # every resample's statistic would be 0, so the threshold would be 0
        pair = make_generator(derive_seed(80, 8)).normal(size=(400, 2))
        pair[:, column - 1] = 3.5
        monkeypatch.setattr(hsic_module, "stationary_bootstrap_threshold",
                            lambda *args: pytest.fail("bootstrap ran"))
        with pytest.raises(ValueError, match=rf"calibration column\(s\) {column}: "
                                             "constant over all 100 rows"):
            pair_gamma(pair, BootstrapConfig(expected_block_length=5.0), HsicConfig(max_rows=100))

    @pytest.mark.parametrize("column", [1, 2])
    def test_underflowing_column_named_before_the_bootstrap(self, monkeypatch, column):
        # not constant, but every squared distance underflows to 0, so the
        # bandwidth is 0 on every resample; at the parent this calibrated
        # gamma = 0.0
        rng = make_generator(derive_seed(80, 9))
        pair = rng.normal(size=(300, 2))
        pair[:, column - 1] = 1e-170 * rng.normal(size=300)
        assert np.ptp(pair[:, column - 1]) > 0.0
        monkeypatch.setattr(hsic_module, "stationary_bootstrap_threshold",
                            lambda *args: pytest.fail("bootstrap ran"))
        with pytest.raises(ValueError, match=rf"calibration column\(s\) {column}: "
                                             "constant over all 300 rows up to float64 underflow"):
            pair_gamma(pair, BootstrapConfig(expected_block_length=5.0))

    def test_needs_two_columns(self):
        with pytest.raises(ValueError, match="two-column"):
            pair_gamma(np.zeros((50, 3)), BootstrapConfig(expected_block_length=5.0))

    @pytest.mark.parametrize("rows,cap", [(19, None), (400, 19)])
    def test_needs_twenty_rows_after_the_cap(self, rows, cap):
        # without the check the bootstrap would stop on its own block-length
        # rule, in terms the caller never set
        pair = make_generator(derive_seed(80, 6)).normal(size=(rows, 2))
        with pytest.raises(ValueError, match="at least 20 rows to calibrate, got 19"):
            pair_gamma(pair, BootstrapConfig(expected_block_length=5.0), HsicConfig(max_rows=cap))

    def test_twenty_rows_calibrate(self):
        pair = make_generator(derive_seed(80, 7)).normal(size=(20, 2))
        boot = BootstrapConfig(num_replicates=5, expected_block_length=5.0)
        assert pair_gamma(pair, boot) > 0.0


class TestCheckKernelRange:
    def test_largest_accepted_range_keeps_the_gram_finite(self):
        # two rows at opposite corners put every column at the bound
        p = 4
        top = 0.999 * np.sqrt(np.finfo(np.float64).max / (2 * p))
        x = top * make_generator(derive_seed(82, 0)).uniform(size=(30, p))
        x[0], x[1] = 0.0, top
        check_kernel_range(x)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert np.isfinite(centered_gram(x)).all()
        x[1, 1] = top / 0.998
        with pytest.raises(ValueError, match=r"not finite in column\(s\) 2:"):
            check_kernel_range(x)

    def test_non_finite_and_overflowing_columns_named(self):
        x = make_generator(derive_seed(82, 1)).normal(size=(30, 4))
        x[3, 1] = np.inf
        x[:, 3] *= 1e300
        with pytest.raises(ValueError, match=r"not finite in column\(s\) 2, 4:"):
            check_kernel_range(x)

    def test_only_the_capped_rows_count(self):
        # the 10-row strided subset of 30 rows is rows 0, 3, 6, ...
        x = make_generator(derive_seed(82, 2)).normal(size=(30, 2))
        x[1, 0] = 1e300
        ColumnFactors(x, HsicConfig(max_rows=10))
        with pytest.raises(ValueError, match=r"column\(s\) 1:"):
            ColumnFactors(x)

    def test_statistic_rejects_non_finite_input(self):
        # x, y and z count as columns 1, 2 and 3 of the checked block
        x, y, z = make_generator(derive_seed(82, 5)).normal(size=(3, 40))
        z[7] = np.nan
        with pytest.raises(ValueError, match=r"not finite in column\(s\) 3:"):
            hsic_conditional(x, y, z)

    def test_calibration_names_the_column(self):
        pair = make_generator(derive_seed(82, 3)).normal(size=(40, 2))
        pair[:, 0] *= 1e300
        with pytest.raises(ValueError, match=r"not finite in column\(s\) 1:"):
            pair_gamma(pair, BootstrapConfig(expected_block_length=5.0))

    def test_search_checks_once_before_any_query(self, monkeypatch):
        rng = make_generator(derive_seed(82, 4))
        x = rng.normal(size=(60, 4))
        x[:, 3] = 1e300 * rng.normal(size=60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"not finite in column\(s\) 4:"):
                pc(x, PcConfig(HsicConfig(gamma=0.05)))
        calls = []
        monkeypatch.setattr(hsic_module, "check_kernel_range",
                            lambda *args: calls.append(args) or check_kernel_range(*args))
        result = pc(x[:, :3], PcConfig(HsicConfig(gamma=0.05)))
        assert len(result.decisions) > 1
        assert len(calls) == 1


class TestDecoupledGamma:
    def _boot(self, seed: int = 0) -> BootstrapConfig:
        return BootstrapConfig(num_replicates=50, expected_block_length=10.0,
                               quantile=0.95, seed=seed)

    def test_dependent_pair_clears_threshold(self):
        rng = make_generator(derive_seed(80, 0))
        x = rng.uniform(-1.0, 1.0, size=250)
        pair = np.column_stack([x, x * x + 0.05 * rng.normal(size=250)])
        gamma = decoupled_pair_gamma(pair, self._boot())
        assert hsic_conditional(pair[:, 0], pair[:, 1], None) > gamma

    def test_independent_pair_stays_under_threshold(self):
        rng = make_generator(derive_seed(80, 1))
        pair = np.column_stack([rng.normal(size=250), rng.normal(size=250)])
        gamma = decoupled_pair_gamma(pair, self._boot())
        assert hsic_conditional(pair[:, 0], pair[:, 1], None) <= gamma

    def test_autocorrelated_independent_pair_accepted(self):
        # the rotation keeps the autocorrelation that inflates the null
        # scale, so two independent AR(1) series must stay under threshold
        rng = make_generator(derive_seed(80, 2))

        def ar1(n: int) -> np.ndarray:
            v = np.empty(n)
            v[0] = rng.normal()
            for t in range(1, n):
                v[t] = 0.9 * v[t - 1] + rng.normal()
            return v

        pair = np.column_stack([ar1(400), ar1(400)])
        boot = BootstrapConfig(num_replicates=50, expected_block_length=20.0, seed=0)
        gamma = decoupled_pair_gamma(pair, boot)
        assert hsic_conditional(pair[:, 0], pair[:, 1], None) <= gamma

    def test_deterministic(self):
        rng = make_generator(derive_seed(80, 3))
        pair = rng.normal(size=(120, 2))
        assert decoupled_pair_gamma(pair, self._boot()) == decoupled_pair_gamma(pair, self._boot())

    def test_max_rows_cap_equals_precapped_input(self):
        rng = make_generator(derive_seed(80, 4))
        arr = rng.normal(size=(800, 2))
        capped = decoupled_pair_gamma(arr, self._boot(), HsicConfig(max_rows=200))
        direct = decoupled_pair_gamma(arr[strided_subset(800, 200)], self._boot())
        assert capped == direct

    def test_is_pair_gamma_of_half_rotated_capped_pair(self):
        rng = make_generator(derive_seed(80, 5))
        values = rng.normal(size=(500, 3))
        cfg = HsicConfig(max_rows=120)
        capped = values[strided_subset(500, 120)]
        rotated = np.column_stack([capped[:, 0], np.roll(capped[:, 1], 60)])
        assert decoupled_pair_gamma(values, self._boot(), cfg) == pair_gamma(
            rotated, self._boot(), cfg
        )

    def test_needs_two_columns(self):
        with pytest.raises(ValueError, match="p >= 2"):
            decoupled_pair_gamma(np.zeros((50, 1)), self._boot())

    def test_needs_twenty_rows(self):
        with pytest.raises(ValueError, match="at least 20 rows"):
            decoupled_pair_gamma(np.zeros((19, 2)), self._boot())
