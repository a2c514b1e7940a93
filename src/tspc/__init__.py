"""Constraint-based causal structure discovery for time series.

The package covers the full pipeline: graph values and operations
(:mod:`tspc.graphs`), conditional-independence tests (:mod:`tspc.citests`),
the constraint-based search (:mod:`tspc.pc`), its window-unrolled time-series
variants (:mod:`tspc.tpc`), benchmark data generators (:mod:`tspc.simulate`),
edge-level scoring (:mod:`tspc.evaluate`), sweep orchestration
(:mod:`tspc.reproduce`), and a command-line front end (:mod:`tspc.cli`).
"""

from .citests import (
    BootstrapConfig,
    GaussianCiConfig,
    HsicConfig,
    decoupled_pair_gamma,
    pair_gamma,
)
from .data import DataMatrix, ingest_csv, write_csv
from .evaluate import confusion, metrics
from .graphs import Dag, Pdag, RolledGraph, graph_from_json, roll, to_dot, to_json
from .pc import PcConfig, PcResult, pc
from .reproduce import SweepConfig, run_sweep, write_outputs
from .simulate import PARADIGMS, SimConfig, generate, ground_truth
from .tpc import Method, TpcResult, TpcnsConfig, TpcnsResult, WindowConfig, tpc, tpcns

__version__ = "0.1.0"

__all__ = [
    "DataMatrix",
    "ingest_csv",
    "write_csv",
    "Dag",
    "Pdag",
    "RolledGraph",
    "roll",
    "to_dot",
    "to_json",
    "graph_from_json",
    "GaussianCiConfig",
    "HsicConfig",
    "BootstrapConfig",
    "pair_gamma",
    "decoupled_pair_gamma",
    "PcConfig",
    "PcResult",
    "pc",
    "WindowConfig",
    "Method",
    "TpcResult",
    "TpcnsConfig",
    "TpcnsResult",
    "tpc",
    "tpcns",
    "SimConfig",
    "PARADIGMS",
    "generate",
    "ground_truth",
    "confusion",
    "metrics",
    "SweepConfig",
    "run_sweep",
    "write_outputs",
]
