"""Structure discovery on time series via window unrolling.

A window of tau consecutive rows becomes one observation over p * tau
variables (variable v at offset t sits at column p * t + v), windows start
every r rows, and the plain search runs on the unrolled sample.  Rolling the
resulting graph back onto the p original variables keeps only arrows that
respect time order.

The subsampled variant runs the search on many short contiguous stretches of
the unrolled sample and keeps the edges that recur: averaging over windows
trades single-run power for robustness against nonstationarity and slow
mixing, which is the regime long dependent series live in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .data import DataMatrix
from .graphs import Pdag, RolledGraph, roll, unrolled_time
from .pc import PcConfig, PcResult, pc
from .rng import make_generator

__all__ = [
    "WindowConfig",
    "TpcResult",
    "TpcnsConfig",
    "TpcnsResult",
    "unroll",
    "calibration_rows",
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


def unroll(data: DataMatrix, window: WindowConfig) -> DataMatrix:
    """Stack each window of tau rows into one row of p * tau columns.

    Row t of the result is original rows t*r .. t*r + tau - 1 concatenated
    in time order; the row count is floor((n - tau) / r) + 1.
    """
    n, p = data.n, data.p
    if n < window.tau:
        raise ValueError(f"need at least tau={window.tau} rows, got {n}")
    count = (n - window.tau) // window.r + 1
    if count < 2:
        raise ValueError(
            f"unrolling {n} rows with tau={window.tau}, r={window.r} "
            f"leaves {count} observations; need at least 2"
        )
    out = np.empty((count, p * window.tau), dtype=np.float64)
    for offset in range(window.tau):
        stop = offset + (count - 1) * window.r + 1
        out[:, p * offset:p * (offset + 1)] = data.values[offset:stop:window.r]
    return DataMatrix(out)


def calibration_rows(
    data: DataMatrix, method: str, window: WindowConfig, window_length: int
) -> np.ndarray:
    """The rows a search of one method family sees, for threshold calibration.

    "pc" searches the raw rows and "tpcs" the unrolled rows; "tpcns" searches
    stretches of window_length unrolled rows, represented by the first one,
    so a calibrated threshold matches the row count it will be applied at.
    """
    if method == "pc":
        return data.values
    if method not in ("tpcs", "tpcns"):
        raise ValueError(f"method must be 'pc', 'tpcs' or 'tpcns', got {method!r}")
    rows = unroll(data, window).values
    return rows[:window_length] if method == "tpcns" else rows


@dataclass(frozen=True)
class TpcResult:
    unrolled: Pdag
    rolled: RolledGraph
    pc: PcResult


def tpc(
    data: DataMatrix,
    window: WindowConfig = WindowConfig(),
    config: PcConfig = PcConfig(),
) -> TpcResult:
    """Unroll, search, and roll the oriented result back onto p variables."""
    chi = unroll(data, window)
    result = pc(chi, config)
    rolled = roll(result.pdag, data.p, window.tau)
    return TpcResult(result.pdag, rolled, result)


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
    whose occurrence fraction reaches freq_cutoff survive.  edge_filter, when
    set, is an extra predicate on (edge, fraction) applied to survivors.
    """

    window_length: int = 50
    num_subsamples: int = 50
    freq_cutoff: float = 0.4
    pc: PcConfig = field(default_factory=PcConfig)
    window: WindowConfig = field(default_factory=WindowConfig)
    seed: int = 0
    edge_filter: Callable[[tuple[int, int], float], bool] | None = None

    def __post_init__(self) -> None:
        if self.window_length < 2:
            raise ValueError(f"window length must be at least 2, got {self.window_length}")
        if self.num_subsamples < 1:
            raise ValueError(f"need at least 1 subsample, got {self.num_subsamples}")
        if not 0.0 <= self.freq_cutoff <= 1.0:
            raise ValueError(f"frequency cutoff must lie in [0, 1], got {self.freq_cutoff}")


@dataclass(frozen=True)
class TpcnsResult:
    graph: RolledGraph
    frequencies: dict[tuple[int, int], float]
    starts: tuple[int, ...]


def tpcns(data: DataMatrix, config: TpcnsConfig) -> TpcnsResult:
    """Run the search per subsample and keep edges that recur often enough.

    Per subsample the oriented result is coerced forward in time, rolled,
    and its edges counted.  The frequency map holds every edge seen at least
    once with its occurrence fraction; the returned graph keeps those at or
    above the cutoff (and passing the filter, if any).  Deterministic given
    the seed.
    """
    p = data.p
    chi = unroll(data, config.window)
    if config.window_length > chi.n:
        raise ValueError(
            f"window length {config.window_length} exceeds the "
            f"{chi.n} unrolled observations"
        )
    rng = make_generator(config.seed)
    starts = rng.integers(0, chi.n - config.window_length + 1, size=config.num_subsamples)
    counts: dict[tuple[int, int], int] = {}
    for start in starts:
        segment = chi.values[start:start + config.window_length]
        result = pc(segment, config.pc)
        rolled = roll(forward_time(result.pdag, p), p, config.window.tau)
        for edge in rolled.edges:
            counts[edge] = counts.get(edge, 0) + 1

    frequencies = {e: c / config.num_subsamples for e, c in counts.items()}
    kept = {e for e, f in frequencies.items() if f >= config.freq_cutoff}
    if config.edge_filter is not None:
        kept = {e for e in kept if config.edge_filter(e, frequencies[e])}
    return TpcnsResult(
        RolledGraph(p, frozenset(kept)),
        frequencies,
        tuple(int(s) for s in starts),
    )


def frequencies_to_csv(frequencies: Mapping[tuple[int, int], float]) -> str:
    """Render an edge-frequency map with 1-based indices, sorted by edge."""
    lines = ["from,to,fraction"]
    for (u, v), fraction in sorted(frequencies.items()):
        lines.append(f"{u + 1},{v + 1},{fraction!r}")
    return "\n".join(lines) + "\n"
