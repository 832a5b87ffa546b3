"""Degree-by-degree cohomology of a DgaModel over Q and its involution
eigenspace split.

Cochain spaces use the canonical monomial bases; the matrix of the
differential in degree n sends coordinates at n to coordinates at n+1.
The construction gates of DgaModel make the differential preserve each
monomial's block, its (weight, involution sign) pair, so the cochain
complex is the direct sum of one subcomplex per block, and the involution
acts on a block's cohomology by the block's sign.  Betti numbers and
eigenspace dimensions are therefore sums of block betti numbers
dim C^n_k - rank D^n_k - rank D^{n-1}_k, which need matrix ranks only.
For the Borel model the weight is #bars - #alpha and the sign is
(-1)^weight: the Hodge decomposition of cyclic homology.

Each block matrix is assembled as sparse integer columns straight from
exponent tuples (``Derivation.integral_columns``), scaled by one common
nonzero integer that clears every denominator of the differential, and
ranked exactly by ``linalg.rank``; no polynomial or rational number is
built per column.

Degrees at or beyond the cap are never extrapolated: a table computed
with cap N answers for degrees 0..N-1 only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .models import Block, DgaModel
from .series import TruncatedSeries


class NoInvolutionError(ValueError):
    category = "NoInvolution"


@dataclass(frozen=True)
class DegreeSlice:
    degree: int
    cochain_dim: int
    betti: int
    inv_plus: Optional[int] = None
    inv_minus: Optional[int] = None

    def __post_init__(self):
        if not 0 <= self.betti <= self.cochain_dim:
            raise ValueError(f"betti {self.betti} out of range at degree {self.degree}")
        if (self.inv_plus is None) != (self.inv_minus is None):
            raise ValueError("eigen data must be all-or-nothing")
        if self.inv_plus is not None and self.inv_plus + self.inv_minus != self.betti:
            raise ValueError(
                f"eigen split {self.inv_plus}+{self.inv_minus} != betti {self.betti} "
                f"at degree {self.degree}"
            )


@dataclass(frozen=True)
class EigenTable:
    """Slices for degrees 0..cap-1."""

    cap: int
    slices: tuple[DegreeSlice, ...]

    def __post_init__(self):
        if len(self.slices) != self.cap:
            raise ValueError("need one slice per degree 0..cap-1")
        for n, s in enumerate(self.slices):
            if s.degree != n:
                raise ValueError("slices must be contiguous from degree 0")

    def slice(self, degree: int) -> DegreeSlice:
        return self.slices[degree]

    @property
    def has_eigen_data(self) -> bool:
        return bool(self.slices) and self.slices[0].inv_plus is not None

    def betti_series(self) -> TruncatedSeries:
        return TruncatedSeries(s.betti for s in self.slices)

    def cochain_series(self) -> TruncatedSeries:
        return TruncatedSeries(s.cochain_dim for s in self.slices)

    def inv_plus_series(self) -> TruncatedSeries:
        if not self.has_eigen_data:
            raise NoInvolutionError("table has no eigenspace data")
        return TruncatedSeries(s.inv_plus for s in self.slices)

    def inv_minus_series(self) -> TruncatedSeries:
        if not self.has_eigen_data:
            raise NoInvolutionError("table has no eigenspace data")
        return TruncatedSeries(s.inv_minus for s in self.slices)


def cochain_matrix(model: DgaModel, n: int, block: Optional[Block] = None) -> linalg.SparseMatrix:
    """Matrix of L * D from degree n to degree n+1, or of its restriction
    to one block of ``model.blocks``, as sparse integer columns: column j
    holds the coordinates of L * D(source[j]), where the source is the
    degree-n basis or the block's part of it and the nonzero integer L is
    the common denominator of the differential's generator values (so the
    rank is that of D)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if block is None:
        source, target = model.algebra.monomial_basis(n), model.algebra.monomial_basis(n + 1)
    else:
        source, target = model.blocks(n).get(block, ()), model.blocks(n + 1).get(block, ())
    index = {mono: i for i, mono in enumerate(target)}
    columns = model.differential.integral_columns(source, index)
    return linalg.SparseMatrix(len(target), tuple(columns))


def eigen_table(model: DgaModel, cap: int) -> EigenTable:
    """Per-degree cochain dimension, betti number and (when the model has
    an involution) the eigenspace split, for degrees 0..cap-1."""
    if cap < 2:
        raise ValueError("cap must be >= 2")
    with_eigen = model.involution is not None
    model.algebra.monomial_basis(cap)  # caches degrees 0..cap in one pass
    slices = []
    prev_ranks: dict[Block, int] = {}
    for n in range(cap):
        blocks = model.blocks(n)
        ranks = {key: linalg.rank(cochain_matrix(model, n, key)) for key in blocks}
        split = {1: 0, -1: 0}
        for key, monos in blocks.items():
            split[key[1]] += len(monos) - ranks[key] - prev_ranks.get(key, 0)
        eigen = (split[1], split[-1]) if with_eigen else (None, None)
        dim = len(model.algebra.monomial_basis(n))
        slices.append(DegreeSlice(n, dim, split[1] + split[-1], *eigen))
        prev_ranks = ranks
    return EigenTable(cap, tuple(slices))
