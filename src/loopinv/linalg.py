"""Exact linear algebra over the rationals.

Matrices are dense with ``Fraction`` entries.  Row reduction first clears
denominators row by row and then eliminates with integer cross
multiplication, keeping rows gcd-reduced, so every result is exact; there
is no floating-point path anywhere in this module.  All operations are
pure functions on immutable values and safe to call concurrently.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible."""

    category = "DimensionMismatch"


class QMatrix:
    """Dense rows-by-cols matrix over Q, row-major ``Fraction`` entries.

    Empty shapes (0 x n, n x 0) are legal; they occur for cochain degrees
    with empty monomial bases.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        entries = tuple(Fraction(e) for e in entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatchError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence], cols: Optional[int] = None) -> "QMatrix":
        rows_data = [list(r) for r in rows_data]
        if cols is None:
            cols = len(rows_data[0]) if rows_data else 0
        for r in rows_data:
            if len(r) != cols:
                raise DimensionMismatchError("rows have varying lengths")
        flat = [e for r in rows_data for e in r]
        return cls(len(rows_data), cols, flat)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: Optional[int] = None) -> "QMatrix":
        columns = [list(c) for c in columns]
        if rows is None:
            if not columns:
                raise DimensionMismatchError("row count required for a matrix with no columns")
            rows = len(columns[0])
        for c in columns:
            if len(c) != rows:
                raise DimensionMismatchError("columns have varying lengths")
        flat = [columns[j][i] for i in range(rows) for j in range(len(columns))]
        return cls(rows, len(columns), flat)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "QMatrix":
        n = len(values)
        return cls(n, n, [values[i] if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, rc: tuple[int, int]) -> Fraction:
        r, c = rc
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> Vector:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def column(self, c: int) -> Vector:
        return tuple(self.entries[r * self.cols + c] for r in range(self.rows))

    def columns(self) -> list[Vector]:
        return [self.column(c) for c in range(self.cols)]

    def transpose(self) -> "QMatrix":
        return QMatrix.from_columns([self.row(r) for r in range(self.rows)], rows=self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        if not self.is_square():
            return False
        return all(
            self.entries[i * self.cols + j] == (1 if i == j else 0)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def matvec(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatchError(
                f"matvec: {self.rows}x{self.cols} matrix with length-{len(v)} vector"
            )
        v = [Fraction(x) for x in v]
        out = []
        for r in range(self.rows):
            row = self.row(r)
            out.append(sum((row[j] * v[j] for j in range(self.cols) if v[j]), Fraction(0)))
        return tuple(out)

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = [self.matvec(other.column(c)) for c in range(other.cols)]
        return QMatrix.from_columns(cols, rows=self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(e) for e in self.row(r)) for r in range(self.rows)
        )
        return f"QMatrix({self.rows}x{self.cols}: {body})"


def _reduce_row(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            return row
    if g > 1:
        return [x // g for x in row]
    return row


def _int_rows(m: QMatrix) -> list[list[int]]:
    """Rows of m scaled row-wise to integers (rank-preserving)."""
    out = []
    for r in range(m.rows):
        row = m.row(r)
        den = 1
        for e in row:
            d = e.denominator
            den = den * d // gcd(den, d)
        out.append(_reduce_row([int(e * den) for e in row]))
    return out


def _echelon(rows: list[list[int]], ncols: int) -> list[int]:
    """Forward elimination in place; returns the pivot columns.

    Pivot rows are chosen by largest absolute entry in the current column;
    columns are processed left to right so the pivot columns returned are
    the leftmost independent set.
    """
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        if r >= nrows:
            break
        best, best_val = -1, 0
        for k in range(r, nrows):
            v = abs(rows[k][c])
            if v > best_val:
                best, best_val = k, v
        if best < 0:
            continue
        if best != r:
            rows[r], rows[best] = rows[best], rows[r]
        pv = rows[r][c]
        prow = rows[r]
        for k in range(r + 1, nrows):
            v = rows[k][c]
            if v:
                rows[k] = _reduce_row([pv * a - v * b for a, b in zip(rows[k], prow)])
        pivots.append(c)
        r += 1
    return pivots


def rank(m: QMatrix) -> int:
    """Rank over Q, computed exactly."""
    return len(_echelon(_int_rows(m), m.cols))
