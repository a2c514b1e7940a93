"""Shared value types for conditional-independence testing."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CiQuery", "CiOutcome", "CiTestError"]


class CiTestError(ValueError):
    """Numerical failure inside a conditional-independence test."""


@dataclass(frozen=True)
class CiQuery:
    """Ask whether variable i and variable j are independent given set k.

    Indices are 0-based column positions.  i and j must differ and neither
    may appear in k; k must hold no duplicates.
    """

    i: int
    j: int
    k: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", tuple(int(c) for c in self.k))
        if self.i == self.j:
            raise ValueError("query variables must differ")
        if self.i in self.k or self.j in self.k:
            raise ValueError("conditioning set must exclude the tested pair")
        if len(set(self.k)) != len(self.k):
            raise ValueError("conditioning set contains duplicates")


@dataclass(frozen=True)
class CiOutcome:
    """One test decision: the statistic and the threshold it faced.

    The verdict is derived: independent exactly when |statistic| <= threshold,
    so a NaN statistic reads as dependent.
    """

    statistic: float
    threshold: float

    @property
    def independent(self) -> bool:
        return abs(self.statistic) <= self.threshold
