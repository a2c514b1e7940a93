"""Structure discovery on time series via window unrolling.

A window of tau consecutive rows becomes one observation over p * tau
variables (variable v at offset t sits at column p * t + v), windows start
every r rows, and the plain search runs on the unrolled sample.  Rolling the
resulting graph back onto the p original variables keeps only arrows that
respect time order.  Plain PC is the case tau = r = 1.

The subsampled variant runs the search on many short contiguous stretches of
the unrolled sample and keeps the edges that recur: averaging over windows
trades single-run power for robustness against nonstationarity and slow
mixing, which is the regime long dependent series live in.  The stretches
are sliced once, as views of the unrolled sample, and searched as one batch
(pc.pc_segments), with the results and the errors of searching each one
alone, in turn.  Method is the one run rule of both front ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .citests import BootstrapConfig, GaussianCiConfig, HsicConfig
from .citests.gaussian import FISHER_Z_MIN_ROWS
from .citests.hsic import CALIBRATION_MIN_ROWS, KERNEL_MIN_ROWS
from .data import DataMatrix
from .graphs import Pdag, RolledGraph, roll, unrolled_time
from .pc import CiTest, PcConfig, PcResult, pc, pc_segments
from .rng import STREAM_CALIBRATE, STREAM_SUBSAMPLE, derive_seed, make_generator

__all__ = [
    "WindowConfig",
    "TpcResult",
    "TpcnsConfig",
    "TpcnsResult",
    "Method",
    "check_spread",
    "unroll",
    "unrolled_rows",
    "tpc",
    "tpcns",
    "forward_time",
    "frequencies_to_csv",
]


@dataclass(frozen=True)
class WindowConfig:
    """Window depth tau (rows per observation) and stride r between windows."""

    tau: int = 1
    r: int = 2

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise ValueError(f"tau must be at least 1, got {self.tau}")
        if self.r < 1:
            raise ValueError(f"stride must be at least 1, got {self.r}")


def unrolled_rows(n: int, window: WindowConfig, window_length: int | None = None) -> int:
    """How many rows unrolling n rows leaves: floor((n - tau) / r) + 1.

    Raises ValueError when fewer than two windows fit, or when a subsample
    window_length is given and exceeds that count, so a caller can check a
    run's window against its data without unrolling it.
    """
    if n < window.tau:
        raise ValueError(f"need at least tau={window.tau} rows, got {n}")
    count = (n - window.tau) // window.r + 1
    if count < 2:
        raise ValueError(
            f"unrolling {n} rows with tau={window.tau}, r={window.r} "
            f"leaves {count} observations; need at least 2"
        )
    if window_length is not None and window_length > count:
        raise ValueError(
            f"window length {window_length} exceeds the {count} unrolled observations"
        )
    return count


def unroll(data: DataMatrix, window: WindowConfig) -> DataMatrix:
    """Stack each window of tau rows into one row of p * tau columns.

    Row t of the result is original rows t*r .. t*r + tau - 1 concatenated
    in time order; the row count is unrolled_rows(n, window).  At depth 1 and
    stride 1 that is the input itself, returned as is.
    """
    if (window.tau, window.r) == (1, 1):
        return data
    p = data.p
    count = unrolled_rows(data.n, window)
    out = np.empty((count, p * window.tau), dtype=np.float64)
    for offset in range(window.tau):
        stop = offset + (count - 1) * window.r + 1
        out[:, p * offset:p * (offset + 1)] = data.values[offset:stop:window.r]
    return DataMatrix(out)


@dataclass(frozen=True)
class TpcResult:
    rolled: RolledGraph
    pc: PcResult


def tpc(
    data: DataMatrix,
    window: WindowConfig = WindowConfig(),
    config: PcConfig = PcConfig(),
) -> TpcResult:
    """Unroll, search, and roll the oriented result back onto p variables.

    At WindowConfig(tau=1, r=1) this is plain PC on the raw rows.
    """
    result = pc(unroll(data, window), config)
    return TpcResult(roll(result.pdag, data.p, window.tau), result)


def forward_time(g: Pdag, p: int) -> Pdag:
    """Flip directed edges that point backward in window time.

    Sampling noise can orient an arrow from a later offset to an earlier
    one, which no data-generating process allows; the skeleton is kept and
    the arrow reversed.
    """
    directed = set()
    for u, v in g.directed:
        if unrolled_time(u, p) > unrolled_time(v, p):
            directed.add((v, u))
        else:
            directed.add((u, v))
    return Pdag(g.p, frozenset(directed), g.undirected)


@dataclass(frozen=True)
class TpcnsConfig:
    """Subsampling policy around an inner search configuration.

    num_subsamples stretches of window_length unrolled rows are drawn with
    replacement (uniform starts), each is searched independently, and edges
    whose occurrence fraction reaches freq_cutoff survive.
    """

    window_length: int = 50
    num_subsamples: int = 50
    freq_cutoff: float = 0.4
    pc: PcConfig = field(default_factory=PcConfig)
    window: WindowConfig = field(default_factory=WindowConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window_length < 2:
            raise ValueError(f"window length must be at least 2, got {self.window_length}")
        if self.num_subsamples < 1:
            raise ValueError(f"need at least 1 subsample, got {self.num_subsamples}")
        if not 0.0 <= self.freq_cutoff <= 1.0:
            raise ValueError(f"frequency cutoff must lie in [0, 1], got {self.freq_cutoff}")


@dataclass(frozen=True)
class TpcnsResult:
    """The voted graph, per-edge fractions, subsample starts, and notes.

    diagnostics holds each distinct search diagnostic once, in first-seen
    order, prefixed with how many subsamples reported it.
    """

    graph: RolledGraph
    frequencies: dict[tuple[int, int], float]
    starts: tuple[int, ...]
    diagnostics: tuple[str, ...]


def tpcns(data: DataMatrix, config: TpcnsConfig) -> TpcnsResult:
    """Search the subsamples as one batch and keep edges that recur often enough.

    Per subsample the oriented result is coerced forward in time, rolled,
    and its edges counted.  The frequency map holds every edge seen at least
    once with its occurrence fraction; the returned graph keeps those at or
    above the cutoff.  Deterministic given the seed.
    """
    p = data.p
    unrolled_rows(data.n, config.window, config.window_length)
    chi = unroll(data, config.window)
    rng = make_generator(config.seed)
    starts = rng.integers(0, chi.n - config.window_length + 1, size=config.num_subsamples)
    counts: dict[tuple[int, int], int] = {}
    notes: dict[str, int] = {}
    segments = [chi.values[s:s + config.window_length] for s in starts]
    for result in pc_segments(segments, config.pc):
        rolled = roll(forward_time(result.pdag, p), p, config.window.tau)
        for edge in rolled.edges:
            counts[edge] = counts.get(edge, 0) + 1
        for line in dict.fromkeys(result.diagnostics):
            notes[line] = notes.get(line, 0) + 1

    frequencies = {e: c / config.num_subsamples for e, c in counts.items()}
    kept = {e for e, f in frequencies.items() if f >= config.freq_cutoff}
    return TpcnsResult(
        RolledGraph(p, frozenset(kept)),
        frequencies,
        tuple(int(s) for s in starts),
        tuple(
            f"{c} of {config.num_subsamples} subsamples: {line}"
            for line, c in notes.items()
        ),
    )


@dataclass(frozen=True)
class Method:
    """The run rule of pc, tpcs or tpcns, in any case and with an optional HS suffix.

    pc searches the raw rows, tpcs windows of tau rows stride apart, and tpcns
    votes over num_subsamples stretches of window_length of those.  key seeds
    the subsamples and the calibration (replicates, block_length, 1 - alpha).
    """

    name: str
    tau: int = 1
    stride: int = 2
    window_length: int = 50
    num_subsamples: int = 50
    freq_cutoff: float = 0.4
    alpha: float = 0.05
    replicates: int = 100
    block_length: float = 20.0
    key: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self._family not in ("pc", "tpcs", "tpcns"):
            raise ValueError(f"unknown method {self.name!r}; choose pc, tpcs or tpcns")
        if self._family != "pc":
            WindowConfig(self.tau, self.stride)
        if self._length is not None:
            TpcnsConfig(self.window_length, self.num_subsamples, self.freq_cutoff)

    @property
    def _family(self) -> str:
        return self.name.lower().removesuffix("hs")

    @property
    def _length(self) -> int | None:
        return self.window_length if self._family == "tpcns" else None

    @property
    def window(self) -> WindowConfig:
        return WindowConfig(1, 1) if self._family == "pc" else WindowConfig(self.tau, self.stride)

    def searched_rows(self, n: int) -> int:
        """Rows one search sees out of n; a ValueError as unrolled_rows raises."""
        count = unrolled_rows(n, self.window, self._length)
        return count if self._length is None else self._length

    def check(self, n: int, test: CiTest | None, bounds: Mapping[str, str] = {}) -> None:
        """Raise ValueError unless the window fits n rows and the rows fit test.

        Fisher-z at level alpha needs FISHER_Z_MIN_ROWS rows, the kernel test
        KERNEL_MIN_ROWS, and its calibration CALIBRATION_MIN_ROWS after the
        max_rows cap.  The message names the bound that binds as bounds names
        it: window (tpcs), window_length (tpcns) or max_rows.  Unless test has
        a fixed gamma, alpha must lie in (0, 1).
        """
        rows = self.searched_rows(n)
        if getattr(test, "gamma", None) is None and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        bound = bounds.get({"tpcs": "window", "tpcns": "window_length"}.get(self._family, ""))
        if isinstance(test, HsicConfig):
            if test.max_rows is not None and test.max_rows < rows:
                rows, bound = test.max_rows, bounds.get("max_rows")
            verb, what, floor = (("calibrates on", "the kernel threshold", CALIBRATION_MIN_ROWS)
                                 if test.gamma is None
                                 else ("searches", "the kernel test", KERNEL_MIN_ROWS))
        elif isinstance(test, GaussianCiConfig) and test.alpha is not None:
            verb, what, floor = "searches", "the Fisher-z test at level alpha", FISHER_Z_MIN_ROWS
        else:
            return
        if rows < floor:
            named = f" ({bound})" if bound else ""
            raise ValueError(f"{self.name} {verb} {rows} rows{named}; "
                             f"{what} needs at least {floor}")

    def calibrate(self, data: DataMatrix, test: CiTest, pair: Callable[..., float]) -> CiTest:
        """test with its kernel gamma, if unset, from pair (pair_gamma or decoupled_pair_gamma)
        on the rows the search sees, the first window_length of them for tpcns."""
        if not isinstance(test, HsicConfig) or test.gamma is not None:
            return test
        boot = BootstrapConfig(self.replicates, self.block_length, 1.0 - self.alpha,
                               derive_seed(*self.key, STREAM_CALIBRATE))
        rows = unroll(data, self.window).values[:self._length]
        return replace(test, gamma=pair(rows, boot, test))

    def run(self, data: DataMatrix,
            config: PcConfig) -> tuple[RolledGraph, TpcResult | TpcnsResult]:
        """The rolled graph, and the result of tpc, or of tpcns for tpcns."""
        if self._length is None:
            result = tpc(data, self.window, config)
            return result.rolled, result
        seed = derive_seed(*self.key, STREAM_SUBSAMPLE)
        result = tpcns(data, TpcnsConfig(self.window_length, self.num_subsamples,
                                         self.freq_cutoff, config, self.window, seed))
        return result.graph, result


def check_spread(data: DataMatrix) -> None:
    """Name the columns (1-based) where a squared deviation from the mean
    overflows: Fisher-z and the kernel test square them, so a search would fail."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = data.values.mean(axis=0)
        spread = np.maximum(data.values.max(axis=0) - mean, mean - data.values.min(axis=0))
        ok = np.isfinite(spread * spread)
    if not ok.all():
        bad = ", ".join(str(c + 1) for c in np.flatnonzero(~ok))
        raise ValueError(f"column(s) {bad}: a squared deviation from the column mean "
                         "overflows float64; rescale the data")


def frequencies_to_csv(frequencies: Mapping[tuple[int, int], float]) -> str:
    """Render an edge-frequency map with 1-based indices, sorted by edge."""
    lines = ["from,to,fraction"]
    for (u, v), fraction in sorted(frequencies.items()):
        lines.append(f"{u + 1},{v + 1},{fraction!r}")
    return "\n".join(lines) + "\n"
