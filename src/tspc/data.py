"""Tabular sample container and delimited-text input/output.

The on-disk format is plain CSV: one optional header row naming the columns,
then one row per observation, every cell a decimal float.  Column labels in
headers and error messages are 1-based (``X1 .. Xp``); in-memory indices are
0-based like everything else in Python.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["DataMatrix", "ingest_csv", "write_csv", "write_text_atomic"]


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


@dataclass(frozen=True)
class DataMatrix:
    """An n-by-p block of real-valued observations, rows in time order.

    Validation on construction: at least two rows, at least one column, every
    entry finite.  The underlying array is copied and frozen so a matrix can
    be shared between components without defensive copies.
    """

    values: np.ndarray
    column_names: tuple[str, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"data must be two-dimensional, got shape {arr.shape}")
        n, p = arr.shape
        if n < 2:
            raise ValueError(f"need at least 2 rows, got {n}")
        if p < 1:
            raise ValueError("need at least 1 column")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(
                f"non-finite value at row {bad[0] + 1}, column {bad[1] + 1}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if self.column_names is not None:
            names = tuple(str(c) for c in self.column_names)
            if len(names) != p:
                raise ValueError(
                    f"{len(names)} column names for {p} columns"
                )
            object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def names(self) -> tuple[str, ...]:
        """Column labels, defaulting to X1..Xp when none were supplied."""
        if self.column_names is not None:
            return self.column_names
        return tuple(f"X{i + 1}" for i in range(self.p))


def _is_empty(cells: list[str]) -> bool:
    """An empty line, or one that is a single blank cell (only whitespace)."""
    return not cells or (len(cells) == 1 and not cells[0].strip())


def _parse_row(cells: list[str]) -> list[float] | None:
    """All-float parse of one CSV row, or None if any cell is not a number."""
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except ValueError:
            return None
    return out


def ingest_csv(path: str | Path) -> DataMatrix:
    """Read a delimited numeric table, tolerating an optional header row.

    The first row is treated as a header exactly when at least one of its
    cells does not parse as a float.  Every later row must be fully numeric
    and finite and have the same width; violations raise ValueError naming
    the 1-based line and column.  Empty and whitespace-only lines are
    skipped.

    Two paths read the body.  The fast one hands it to a single np.loadtxt
    call.  When that call fails, or reads a width or row count that cannot be
    right, or a value that is not finite, the file goes to the row-by-row
    parser (csv cells, each through float()), which words every error and
    decides the inputs loadtxt rejects but float() accepts: quoted cells,
    underscores and non-ASCII digits.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="") as fh:
        try:
            first = next((cells for cells in csv.reader(fh) if not _is_empty(cells)), [])
            header = None
            if _parse_row(first) is None:
                header = tuple(cell.strip() for cell in first)
            else:
                fh.seek(0)
            with warnings.catch_warnings():
                # An empty body warns; the row count below sends it to the slow path.
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                    dtype=np.float64)
        except (ValueError, csv.Error):
            values = None
    if values is None or values.shape[1] != len(first) or len(values) < 2:
        return _ingest_rows(path)
    try:
        return DataMatrix(values, column_names=header)
    except ValueError:
        # A non-finite cell: the row parser names its line and column.
        return _ingest_rows(path)


def _ingest_rows(path: Path) -> DataMatrix:
    """ingest_csv one row at a time: csv cells, each converted by float()."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = [(lineno, cells) for lineno, cells in enumerate(reader, start=1)
                    if not _is_empty(cells)]
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty file")

    header: tuple[str, ...] | None = None
    first_line, first_cells = rows[0]
    first_values = _parse_row(first_cells)
    if first_values is None:
        header = tuple(cell.strip() for cell in first_cells)
        data_rows = rows[1:]
    else:
        data_rows = rows

    width = len(first_cells)
    parsed: list[list[float]] = []
    for lineno, cells in data_rows:
        if len(cells) != width:
            raise ValueError(
                f"{path}: line {lineno} has {len(cells)} cells, expected {width}"
            )
        values = _parse_row(cells)
        if values is None:
            for col, cell in enumerate(cells, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}, column {col}: "
                        f"not a number: {cell!r}"
                    ) from None
        for col, value in enumerate(values, start=1):  # type: ignore[arg-type]
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: line {lineno}, column {col}: non-finite value: {cells[col - 1]!r}"
                )
        parsed.append(values)  # type: ignore[arg-type]

    if len(parsed) < 2:
        raise ValueError(
            f"{path}: need at least 2 data rows, got {len(parsed)}"
        )
    return DataMatrix(np.asarray(parsed, dtype=np.float64), column_names=header)


def write_csv(data: DataMatrix, path: str | Path) -> None:
    """Write with a header row and full-precision floats (repr round-trips)."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.names())
        for row in data.values:
            writer.writerow([repr(float(x)) for x in row])
