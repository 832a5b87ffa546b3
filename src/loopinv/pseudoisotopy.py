"""Involution eigenspace dimensions of the rational homotopy of the
stable pseudoisotopy space and of the algebraic K-theory of spaces.

For a simply-connected compact manifold with minimal model m, the
dimension formulas implemented here are, writing rel± for the eigenspace
dimensions of the reduced (basepoint-split-off) circle-equivariant
homology of the free loop space,

    dim Inv+ pi_i P(m)      = delta(i) + rel+(i+1)
    dim Inv- pi_i P(m)      = rel-(i+1) - dim H_{i+2}(m)
    dim Inv- pi_{i+2} A(m)  = dim Inv+ pi_i P(m)
    dim Inv+ pi_{i+2} A(m)  = rel-(i+1)

with delta(i) = 1 exactly when i = 3 mod 4 (the rational K-theory of the
integers contributes one class in those degrees).

The reduced eigenspaces are obtained by subtracting the one-point table
from the Borel-model table degree by degree; the one-point Borel model is
Lambda(alpha) with zero differential and T(alpha) = -alpha, so its table
is the closed form of ``_point_split``.  Homology dimensions are
read off the cohomology of the corresponding model (finite-type duality
over Q).  Everything is exact; a row is only reported when every input it
needs lies inside the computed range, which caps the table at
i <= cap - 3.  Compactness of the underlying manifold is the caller's
responsibility; the tables are meaningless for models of open manifolds.
"""

from __future__ import annotations

from itertools import chain
from operator import add, sub
from typing import Iterable, Sequence

from .algebra import Value
from .cohomology import eigen_table
from .models import MinimalModel, borel_model
from .series import TruncatedSeries


class NegativeDimensionError(ValueError):
    """A reported dimension came out negative: the input model cannot be
    the minimal model of a simply-connected compact manifold."""

    category = "NegativeDimension"


def _point_split(n: int) -> tuple[int, int]:
    """(inv_plus, inv_minus) of the one-point Borel table in degree n: the
    class alpha^(n/2) has sign (-1)^(n/2)."""
    return int(n % 4 == 0), int(n % 4 == 2)


def k_theory_correction(i: int) -> int:
    """1 if i = 3 mod 4, else 0."""
    if i < 0:
        raise ValueError("defined for i >= 0 only")
    return 1 if i % 4 == 3 else 0


class PseudoisotopyRow(Value):
    """Eigenspace dimensions at one degree: the P entries live in degree
    i, the A entries in degree i+2."""

    __slots__ = _fields = ("i", "invP_plus", "invP_minus", "invA_plus", "invA_minus")

    def __init__(self, i: int, invP_plus: int, invP_minus: int, invA_plus: int, invA_minus: int):
        if min(invP_plus, invP_minus, invA_plus, invA_minus) < 0:
            raise NegativeDimensionError(f"negative dimension in row i={i}")
        if invP_plus != invA_minus:
            raise ValueError(f"row i={i}: invP_plus must equal invA_minus")
        super().__init__(i, invP_plus, invP_minus, invA_plus, invA_minus)


class PseudoisotopyTable(Value):
    """Rows i = 0..cap-3 as columns, one entry per row: the Inv+ and Inv-
    dimensions of pi_i P and of pi_{i+2} A.  The columns are checked in
    bulk; at the first row that fails, the error is its
    ``PseudoisotopyRow``'s.  ``rows`` and ``row(i)`` build those row views
    on demand."""

    __slots__ = _fields = ("cap", "invP_plus", "invP_minus", "invA_plus", "invA_minus")

    def __init__(
        self,
        cap: int,
        invP_plus: Iterable[int],
        invP_minus: Iterable[int],
        invA_plus: Iterable[int],
        invA_minus: Iterable[int],
    ):
        columns = tuple(map(tuple, (invP_plus, invP_minus, invA_plus, invA_minus)))
        if any(len(column) != cap - 2 for column in columns):
            raise ValueError("need one row per i 0..cap-3")
        if min(chain(*columns), default=0) < 0 or columns[0] != columns[3]:
            for row in zip(range(cap - 2), *columns):
                PseudoisotopyRow(*row)  # raises the first failing row's error
        super().__init__(cap, *columns)

    @property
    def reliable_max_i(self) -> int:
        return self.cap - 3

    @property
    def rows(self) -> tuple[PseudoisotopyRow, ...]:
        return tuple(map(PseudoisotopyRow, range(self.cap - 2), *self._columns()))

    def row(self, i: int) -> PseudoisotopyRow:
        if not 0 <= i <= self.reliable_max_i:
            raise IndexError(f"i={i} outside the reliable range 0..{self.reliable_max_i}")
        return PseudoisotopyRow(i, *[column[i] for column in self._columns()])

    def _columns(self) -> tuple:
        return self.invP_plus, self.invP_minus, self.invA_plus, self.invA_minus

    def inv_plus_series(self) -> TruncatedSeries:
        return TruncatedSeries(self.invP_plus)

    def inv_minus_series(self) -> TruncatedSeries:
        return TruncatedSeries(self.invP_minus)

    def total_dimension(self, i: int) -> int:
        r = self.row(i)
        return r.invP_plus + r.invP_minus


def _assemble_rows(
    rel_plus: Sequence[int],
    rel_minus: Sequence[int],
    betti_base: Sequence[int],
    cap: int,
) -> PseudoisotopyTable:
    """The table for i = 0..cap-3 from the reduced eigenspace dimensions (per
    degree 0..cap-1) and the base-model betti numbers."""
    plus_p = list(map(add, map(k_theory_correction, range(cap - 2)), rel_plus[1 : cap - 1]))
    plus_a = rel_minus[1 : cap - 1]
    minus_p = list(map(sub, plus_a, betti_base[2:cap]))
    if min(minus_p, default=0) < 0:
        i = next(i for i, m in enumerate(minus_p) if m < 0)
        raise NegativeDimensionError(
            f"dim Inv- pi_{i} P = {minus_p[i]} < 0; the model violates the "
            "hypotheses of the dimension formulas (is it a compact manifold?)"
        )
    return PseudoisotopyTable(cap, plus_p, minus_p, plus_a, plus_p)


def pseudoisotopy_table(model: MinimalModel, cap: int) -> PseudoisotopyTable:
    """Eigenspace dimension table for degrees 0..cap-3.

    Builds the Borel model, splits its cohomology under the loop-reversal
    involution, forms the reduced eigenspaces by subtracting the
    one-point table's columns, and applies the dimension formulas
    together with the base model's betti numbers, column by column.
    """
    if cap < 3:
        raise ValueError("cap must be >= 3 for at least one reliable row")
    absolute = eigen_table(borel_model(model), cap)
    point_plus, point_minus = zip(*map(_point_split, range(cap)))
    rel_plus = list(map(sub, absolute.inv_plus, point_plus))
    rel_minus = list(map(sub, absolute.inv_minus, point_minus))
    if min(rel_plus) < 0 or min(rel_minus) < 0:
        n = next(n for n in range(cap) if rel_plus[n] < 0 or rel_minus[n] < 0)
        raise NegativeDimensionError(
            f"reduced eigenspace dimension negative at degree {n}; the "
            "one-point table failed to split off"
        )
    return _assemble_rows(rel_plus, rel_minus, eigen_table(model, cap).betti, cap)
