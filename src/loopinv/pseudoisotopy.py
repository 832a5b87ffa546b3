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

from typing import Sequence

from .algebra import Value
from .cohomology import eigen_table
from .models import MinimalModel, base_dga, borel_model
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
    __slots__ = _fields = ("cap", "rows")

    def __init__(self, cap: int, rows: tuple[PseudoisotopyRow, ...]):
        super().__init__(cap, rows)

    @property
    def reliable_max_i(self) -> int:
        return self.cap - 3

    def row(self, i: int) -> PseudoisotopyRow:
        if not 0 <= i <= self.reliable_max_i:
            raise IndexError(f"i={i} outside the reliable range 0..{self.reliable_max_i}")
        return self.rows[i]

    def inv_plus_series(self) -> TruncatedSeries:
        return TruncatedSeries(r.invP_plus for r in self.rows)

    def inv_minus_series(self) -> TruncatedSeries:
        return TruncatedSeries(r.invP_minus for r in self.rows)

    def total_dimension(self, i: int) -> int:
        r = self.row(i)
        return r.invP_plus + r.invP_minus


def _assemble_rows(
    rel_plus: Sequence[int],
    rel_minus: Sequence[int],
    betti_base: Sequence[int],
    cap: int,
) -> tuple[PseudoisotopyRow, ...]:
    """Rows for i = 0..cap-3 from the reduced eigenspace dimensions (per
    degree 0..cap-1) and the base-model betti numbers."""
    rows = []
    for i in range(cap - 2):
        plus_p = k_theory_correction(i) + rel_plus[i + 1]
        plus_a = rel_minus[i + 1]
        minus_p = plus_a - betti_base[i + 2]
        if minus_p < 0:
            raise NegativeDimensionError(
                f"dim Inv- pi_{i} P = {minus_p} < 0; the model violates the "
                "hypotheses of the dimension formulas (is it a compact manifold?)"
            )
        rows.append(PseudoisotopyRow(i, plus_p, minus_p, plus_a, plus_p))
    return tuple(rows)


def pseudoisotopy_table(model: MinimalModel, cap: int) -> PseudoisotopyTable:
    """Eigenspace dimension table for degrees 0..cap-3.

    Builds the Borel model, splits its cohomology under the loop-reversal
    involution, forms the reduced eigenspaces by subtracting the
    one-point table degree by degree, and applies the dimension formulas
    together with the base model's betti numbers.
    """
    if cap < 3:
        raise ValueError("cap must be >= 3 for at least one reliable row")
    absolute = eigen_table(borel_model(model), cap)
    rel_plus = []
    rel_minus = []
    for n in range(cap):
        point_plus, point_minus = _point_split(n)
        p = absolute.slice(n).inv_plus - point_plus
        q = absolute.slice(n).inv_minus - point_minus
        if p < 0 or q < 0:
            raise NegativeDimensionError(
                f"reduced eigenspace dimension negative at degree {n}; the "
                "one-point table failed to split off"
            )
        rel_plus.append(p)
        rel_minus.append(q)
    betti_base = [s.betti for s in eigen_table(base_dga(model), cap).slices]
    return PseudoisotopyTable(cap, _assemble_rows(rel_plus, rel_minus, betti_base, cap))

