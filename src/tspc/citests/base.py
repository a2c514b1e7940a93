"""Shared value types for conditional-independence testing."""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

__all__ = ["CiQuery", "CiOutcome", "CiTestError"]


class CiTestError(ValueError):
    """Numerical failure inside a conditional-independence test."""


@dataclass(frozen=True, slots=True, init=False)
class CiQuery:
    """Ask whether variable i and variable j are independent given set k.

    Indices are 0-based column positions, taken through operator.index: a
    numpy integer is stored as an int and a float raises TypeError.  i and j
    must differ and neither may appear in k; k must hold no duplicates.
    """

    i: int
    j: int
    k: tuple[int, ...] = ()

    def __init__(self, i: int, j: int, k: tuple[int, ...] = ()) -> None:
        # Written out so each field is set once, after its check; a search
        # builds one query per test.
        i, j, k = index(i), index(j), tuple(map(index, k))
        if i == j:
            raise ValueError("query variables must differ")
        if i in k or j in k:
            raise ValueError("conditioning set must exclude the tested pair")
        if len(set(k)) != len(k):
            raise ValueError("conditioning set contains duplicates")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True, slots=True)
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
