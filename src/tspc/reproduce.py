"""Benchmark sweeps: methods x noise levels x test levels x repetitions.

Six method profiles are covered.  TPCS and TPCSHS run the search on windows
of tau consecutive rows and roll the result.  PC and PCHS are the same search
at depth 1 and stride 1, that is on the raw rows, with undirected output edges
read both ways.  TPCNS and TPCNSHS add subsample aggregation on top.  The *HS
variants use the kernel dependence test with one fixed threshold per run,
calibrated by stationary bootstrap on the known independent pair (columns 1
and 2 are mutually independent inputs in all four benchmark dynamics) of the
rows the search sees.

Window depth defaults to two (one step of history next to the current step).
With depth one a window holds a single time point, and in the lag-driven
benchmark dynamics simultaneous values are mutually independent, so nothing is
discoverable; the published hit rates are only reachable with the extra step.

Data seeds depend on (master seed, paradigm, eta, repetition) and nothing
else, so every method and every alpha sees the same series; method-level
randomness draws from separately keyed streams.  All outputs are byte-stable
given the config.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .citests import BootstrapConfig, GaussianCiConfig, HsicConfig, pair_gamma
from .citests.gaussian import FISHER_Z_MIN_ROWS
from .citests.hsic import CALIBRATION_MIN_ROWS
from .data import DataMatrix, write_text_atomic
from .evaluate import EdgeConfusion, MetricsReport, aggregate, confusion, edge_frequency, metrics
from .graphs import RolledGraph
from .pc import PcConfig
from .rng import STREAM_CALIBRATE, STREAM_SUBSAMPLE, derive_seed
from .simulate import PARADIGMS, SimConfig, generate, ground_truth
from .tpc import TpcnsConfig, WindowConfig, calibration_rows, tpc, tpcns, unrolled_rows

__all__ = [
    "METHODS",
    "SweepConfig",
    "CellResult",
    "SweepResult",
    "run_sweep",
    "metrics_csv",
    "frequency_csv",
    "config_text",
    "write_outputs",
]

METHODS = ("PC", "PCHS", "TPCS", "TPCSHS", "TPCNS", "TPCNSHS")


@dataclass(frozen=True)
class SweepConfig:
    """One paradigm, a method subset, and the grid to sweep.

    n is the series length handed to the generator (total milliseconds for
    CTRNN).  tau and stride set the windows of the TPC methods; PC and PCHS
    always search at depth 1 and stride 1.  hsic_max_rows caps the rows any
    single kernel test sees; None lifts the cap.  Calibration sees the same
    cap and needs CALIBRATION_MIN_ROWS rows, so any kernel (*HS) method
    needs a cap of at least that.  Construction also rejects a series too
    short for a method's window, subsample settings TpcnsConfig refuses,
    and a Fisher-z method (PC, TPCS or TPCNS, always at level alpha) that
    would search fewer than FISHER_Z_MIN_ROWS rows, so a bad sweep fails
    before its first cell.
    """

    paradigm: str
    methods: tuple[str, ...] = METHODS
    etas: tuple[float, ...] = (1.0,)
    alphas: tuple[float, ...] = (0.05,)
    reps: int = 25
    seed: int = 0
    n: int = 1000
    tau: int = 2
    stride: int = 2
    window_length: int = 50
    num_subsamples: int = 50
    freq_cutoff: float = 0.4
    hsic_max_rows: int | None = 400
    calibration_replicates: int = 100
    calibration_block: float = 20.0
    include_self_loops: bool = True

    def __post_init__(self) -> None:
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"paradigm must be one of {PARADIGMS}, got {self.paradigm!r}")
        methods = tuple(self.methods)
        if not methods:
            raise ValueError("need at least one method")
        for m in methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if not self.etas:
            raise ValueError("need at least one eta")
        if not self.alphas:
            raise ValueError("need at least one alpha")
        for e in self.etas:
            if not e > 0:
                raise ValueError(f"eta values must be positive, got {e}")
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise ValueError(f"alpha values must lie in (0, 1), got {a}")
        if self.reps < 1:
            raise ValueError(f"need at least 1 repetition, got {self.reps}")
        if self.calibration_replicates < 1:
            raise ValueError(f"calibration_replicates must be at least 1, "
                             f"got {self.calibration_replicates}")
        if not self.calibration_block > 1.0:
            raise ValueError(f"calibration_block must exceed 1, got {self.calibration_block}")
        if "TPCNSHS" in methods and self.window_length < CALIBRATION_MIN_ROWS:
            raise ValueError(f"TPCNSHS calibrates on window_length rows, at least "
                             f"{CALIBRATION_MIN_ROWS}; got window_length={self.window_length}")
        kernel = [m for m in methods if m.endswith("HS")]
        if kernel and self.hsic_max_rows is not None and self.hsic_max_rows < CALIBRATION_MIN_ROWS:
            raise ValueError(f"{kernel[0]} calibrates on at most hsic_max_rows rows, at least "
                             f"{CALIBRATION_MIN_ROWS}; got hsic_max_rows={self.hsic_max_rows}")
        # What a cell would reject, rejected before any cell runs; eta does
        # not change the row count.
        rows = SimConfig(self.paradigm, n=self.n).rows
        WindowConfig(self.tau, self.stride)  # checked even when only PC and PCHS run
        if any(m.startswith("TPCNS") for m in methods):
            TpcnsConfig(self.window_length, self.num_subsamples, self.freq_cutoff)
        for m in methods:
            window, length = _search_window(m, self)
            count = unrolled_rows(rows, window, length)
            searched = count if length is None else length
            if not m.endswith("HS") and searched < FISHER_Z_MIN_ROWS:
                named = f" (window_length={length})" if length else ""
                raise ValueError(f"{m} searches {searched} rows{named}; the Fisher-z test at "
                                 f"level alpha needs at least {FISHER_Z_MIN_ROWS}")


@dataclass(frozen=True)
class CellResult:
    """Pooled scores and per-edge detection rates for one grid cell."""

    method: str
    eta: float
    alpha: float
    pooled: EdgeConfusion
    reports: tuple[MetricsReport, MetricsReport]
    frequencies: dict[tuple[int, int], float]
    estimates: tuple[RolledGraph, ...]


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    cells: tuple[CellResult, ...]


def _search_window(method: str, cfg: SweepConfig) -> tuple[WindowConfig, int | None]:
    """The window a method searches, and its TPC-NS subsample length (None for TPC)."""
    window = WindowConfig(1, 1) if method.startswith("PC") else WindowConfig(cfg.tau, cfg.stride)
    return window, cfg.window_length if method.startswith("TPCNS") else None


def _eta_key(eta: float) -> int:
    return int(round(eta * 1000))


def _estimate(
    method: str,
    data: DataMatrix,
    alpha: float,
    cfg: SweepConfig,
    rep_key: tuple[int, ...],
) -> RolledGraph:
    """One method on one series; returns the estimated rolled graph."""
    window, window_length = _search_window(method, cfg)
    midx = METHODS.index(method)
    if method.endswith("HS"):
        rows = calibration_rows(data, window, window_length)
        boot = BootstrapConfig(
            num_replicates=cfg.calibration_replicates,
            expected_block_length=cfg.calibration_block,
            quantile=1.0 - alpha,
            seed=derive_seed(*rep_key, midx, STREAM_CALIBRATE),
        )
        gamma = pair_gamma(rows[:, :2], boot, HsicConfig(max_rows=cfg.hsic_max_rows))
        pc_cfg = PcConfig(HsicConfig(gamma=gamma, max_rows=cfg.hsic_max_rows))
    else:
        pc_cfg = PcConfig(GaussianCiConfig(alpha=alpha))

    if window_length is None:
        return tpc(data, window, pc_cfg).rolled
    return tpcns(data, TpcnsConfig(
        window_length=window_length,
        num_subsamples=cfg.num_subsamples,
        freq_cutoff=cfg.freq_cutoff,
        pc=pc_cfg,
        window=window,
        seed=derive_seed(*rep_key, midx, STREAM_SUBSAMPLE),
    )).graph


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Execute the grid; series are generated once per (eta, repetition)."""
    pidx = PARADIGMS.index(cfg.paradigm)
    truth = ground_truth(cfg.paradigm)
    cells: list[CellResult] = []
    for eta in cfg.etas:
        series = []
        for rep in range(cfg.reps):
            data_seed = derive_seed(cfg.seed, pidx, _eta_key(eta), rep)
            series.append(
                generate(SimConfig(cfg.paradigm, eta=eta, n=cfg.n, seed=data_seed))
            )
        for alpha in cfg.alphas:
            for method in cfg.methods:
                estimates = []
                for rep, data in enumerate(series):
                    rep_key = (cfg.seed, pidx, _eta_key(eta), rep)
                    estimates.append(_estimate(method, data, alpha, cfg, rep_key))
                confusions = [
                    confusion(est, truth, cfg.include_self_loops) for est in estimates
                ]
                pooled = aggregate(confusions)
                reports = (
                    metrics(pooled, "condition-positives"),
                    metrics(pooled, "paper-formula"),
                )
                freqs = edge_frequency(estimates, truth.p)
                cells.append(
                    CellResult(
                        method, eta, alpha, pooled, reports, freqs, tuple(estimates)
                    )
                )
    return SweepResult(cfg, tuple(cells))


def config_text(cfg: SweepConfig) -> str:
    """Flat key=value rendering, one key per line, sorted."""
    pairs = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        pairs.append(f"{f.name}={value}")
    return "\n".join(sorted(pairs)) + "\n"


def _fingerprint(cfg: SweepConfig) -> str:
    return "# config: " + " ".join(config_text(cfg).split()) + "\n"


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(value)


def metrics_csv(result: SweepResult) -> str:
    """Pooled metrics, two rows per cell (one per TPR convention)."""
    lines = [_fingerprint(result.config).rstrip("\n"),
             "method,paradigm,eta,alpha,tpr,ifpr,cs,tpr_mode"]
    for cell in result.cells:
        for report in cell.reports:
            lines.append(
                f"{cell.method},{result.config.paradigm},{cell.eta!r},{cell.alpha!r},"
                f"{_fmt(report.tpr)},{_fmt(report.ifpr)},{_fmt(report.cs)},{report.tpr_mode}"
            )
    return "\n".join(lines) + "\n"


def frequency_csv(result: SweepResult) -> str:
    """Per-edge detection percentages over all candidate ordered pairs."""
    lines = [_fingerprint(result.config).rstrip("\n"),
             "method,paradigm,eta,alpha,from,to,percent"]
    for cell in result.cells:
        for (u, v), percent in sorted(cell.frequencies.items()):
            lines.append(
                f"{cell.method},{result.config.paradigm},{cell.eta!r},{cell.alpha!r},"
                f"{u + 1},{v + 1},{percent!r}"
            )
    return "\n".join(lines) + "\n"


def write_outputs(result: SweepResult, out_dir: str | Path) -> dict[str, Path]:
    """metrics.csv and frequencies.csv; both start with the config_text line."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"metrics": out / "metrics.csv", "frequencies": out / "frequencies.csv"}
    write_text_atomic(paths["metrics"], metrics_csv(result))
    write_text_atomic(paths["frequencies"], frequency_csv(result))
    return paths
