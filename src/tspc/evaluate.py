"""Directed-edge scoring of estimated rolled graphs against ground truth.

Counting is at the level of ordered pairs over the candidate universe (all
p^2 pairs when self-loops count, p^2 - p otherwise), so a reversed edge costs
both a false negative and a false positive.  Rates with zero denominators are
reported as undefined (None), never coerced to zero.

Two true-positive-rate conventions coexist on purpose: the default divides by
the condition positives TP + FN, which makes the combined score TPR - FPR a
Youden index; the alternative divides by TP + FP.  Pooled results should
state which one they used.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .graphs import RolledGraph

__all__ = [
    "TPR_MODES",
    "EdgeConfusion",
    "MetricsReport",
    "confusion",
    "metrics",
    "aggregate",
    "edge_frequency",
]

TPR_MODES = ("condition-positives", "paper-formula")


@dataclass(frozen=True)
class EdgeConfusion:
    """Ordered-pair counts; tp+fp+tn+fn equals the candidate-universe size."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "tn", "fn"):
            value = getattr(self, name)
            if int(value) != value or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value}")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class MetricsReport:
    """Percentages, None where the underlying ratio is undefined."""

    tpr: float | None
    ifpr: float | None
    fpr: float | None
    cs: float | None
    tpr_mode: str

    def __post_init__(self) -> None:
        if self.tpr_mode not in TPR_MODES:
            raise ValueError(f"tpr_mode must be one of {TPR_MODES}, got {self.tpr_mode!r}")
        if (self.ifpr is None) != (self.fpr is None):
            raise ValueError("ifpr and fpr must be defined together")
        if self.ifpr is not None and abs(self.ifpr - (100.0 - self.fpr)) > 1e-9:
            raise ValueError("ifpr must equal 100 - fpr")
        expect_cs = self.tpr is not None and self.fpr is not None
        if (self.cs is None) == expect_cs:
            raise ValueError("cs must be defined exactly when tpr and fpr are")


def confusion(est: RolledGraph, truth: RolledGraph, include_self_loops: bool = True) -> EdgeConfusion:
    """Count ordered pairs of the candidate universe by estimate vs truth."""
    if est.p != truth.p:
        raise ValueError(f"graphs disagree on p: {est.p} vs {truth.p}")
    p = est.p
    est_edges, true_edges = est.edges, truth.edges
    universe = p * p
    if not include_self_loops:
        est_edges = {(u, v) for u, v in est_edges if u != v}
        true_edges = {(u, v) for u, v in true_edges if u != v}
        universe -= p
    tp = len(est_edges & true_edges)
    fp = len(est_edges) - tp
    fn = len(true_edges) - tp
    return EdgeConfusion(tp, fp, universe - tp - fp - fn, fn)


def metrics(c: EdgeConfusion, tpr_mode: str = "condition-positives") -> MetricsReport:
    """Rates from counts: IFPR = (1 - FP/(FP+TN)) * 100, FPR its complement,
    TPR by the selected convention, CS = TPR - FPR.
    """
    negatives = c.fp + c.tn
    if negatives > 0:
        fpr = 100.0 * c.fp / negatives
        ifpr = 100.0 - fpr
    else:
        fpr = ifpr = None
    tpr_denom = (c.tp + c.fn) if tpr_mode == "condition-positives" else (c.tp + c.fp)
    tpr = 100.0 * c.tp / tpr_denom if tpr_denom > 0 else None
    cs = tpr - fpr if (tpr is not None and fpr is not None) else None
    return MetricsReport(tpr, ifpr, fpr, cs, tpr_mode)


def aggregate(runs: Sequence[EdgeConfusion]) -> EdgeConfusion:
    """Componentwise sum, i.e. micro-averaged pooling across runs.

    Feeding the sum to metrics() weights every candidate edge equally across
    runs, which differs from averaging per-run percentages when runs have
    undefined entries.
    """
    if not runs:
        raise ValueError("need at least one confusion to aggregate")
    return EdgeConfusion(
        sum(c.tp for c in runs),
        sum(c.fp for c in runs),
        sum(c.tn for c in runs),
        sum(c.fn for c in runs),
    )


def edge_frequency(runs: Sequence[RolledGraph], p: int) -> dict[tuple[int, int], float]:
    """Detection percentage per ordered pair (self-loops included), zeros kept."""
    if not runs:
        raise ValueError("need at least one run")
    for g in runs:
        if g.p != p:
            raise ValueError(f"run has p={g.p}, expected {p}")
    counts = Counter(e for g in runs for e in g.edges)
    return {(u, v): 100.0 * counts[(u, v)] / len(runs) for u in range(p) for v in range(p)}
