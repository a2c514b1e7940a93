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
alone, in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .data import DataMatrix
from .graphs import Pdag, RolledGraph, roll, unrolled_time
from .pc import PcConfig, PcResult, pc, pc_segments
from .rng import make_generator

__all__ = [
    "WindowConfig",
    "TpcResult",
    "TpcnsConfig",
    "TpcnsResult",
    "unroll",
    "unrolled_rows",
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


def calibration_rows(
    data: DataMatrix, window: WindowConfig, window_length: int | None = None
) -> np.ndarray:
    """The rows a search sees, for threshold calibration.

    tpc searches the unrolled rows (the raw rows at the window (1, 1) of plain
    PC); tpcns searches stretches of window_length of them, represented by the
    first, so a calibrated threshold matches the row count it is applied at.
    """
    return unroll(data, window).values[:window_length]


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


def frequencies_to_csv(frequencies: Mapping[tuple[int, int], float]) -> str:
    """Render an edge-frequency map with 1-based indices, sorted by edge."""
    lines = ["from,to,fraction"]
    for (u, v), fraction in sorted(frequencies.items()):
        lines.append(f"{u + 1},{v + 1},{fraction!r}")
    return "\n".join(lines) + "\n"
