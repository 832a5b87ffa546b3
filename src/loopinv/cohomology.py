"""Degree-by-degree cohomology of a DgaModel over Q and its involution
eigenspace split.

The construction gate of DgaModel makes the differential preserve each
monomial's weight, so the cochain complex is the direct sum of one
subcomplex per weight (a block), and the involution, which acts on a
monomial by (-1)^weight, acts on a block's cohomology by that sign.
Betti numbers and eigenspace dimensions are therefore sums of block
betti numbers dim C^n_k - rank D^n_k - rank D^{n-1}_k, which need matrix
ranks only.  For the Borel model the weight is #bars - #alpha: the Hodge
decomposition of cyclic homology.

The ranks are taken along multiplication by g, the model's closed even
generator of lowest degree (alpha in a Borel model; see
``DgaModel.layout``).  Since D(g m) = g D(m), multiplication by g is an
injective chain map, and the columns of block k in degree n that carry a
factor g are g times the columns of its predecessor, the block
k - weight(g) in degree n - deg g.  Rows are keyed by the packed code of
the g-free part z of their monomial g^c z, with the degree of z in the
top field, which fixes c within one degree, so those columns are, row
for row, the predecessor's columns, and the pivots that ranked the
predecessor are already an echelon basis of their span.  Each z lies in
exactly one chain of blocks, so the chains' rows never meet and
``eigen_table`` keeps one pivot dict for them all.  It assembles only the
g-free columns of each block (``cochain_matrix``) and reduces them into
those pivots (rank D^n_k = carried pivots + new pivots).  As every block
of degree n - deg g continues into degree n, the summed dimension and
rank of the blocks of one weight parity in degree n are those of the
blocks of degree n - deg g (with the parity of g's weight added) plus
what the g-free monomials and columns of degree n add, so only blocks
with g-free monomials are visited, and the full monomial basis is never
enumerated.  A model without such a generator takes the same route with
nothing carried.

Each g-free column is assembled as sparse integer coordinates straight
from packed monomial codes (``Derivation.integral_columns``), scaled by
one common nonzero integer that clears every denominator of the
differential, and ranked exactly by ``linalg.rank``; no polynomial,
exponent tuple or rational number is built per column.

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

    def inv_plus_series(self) -> TruncatedSeries:
        if not self.has_eigen_data:
            raise NoInvolutionError("table has no eigenspace data")
        return TruncatedSeries(s.inv_plus for s in self.slices)

    def inv_minus_series(self) -> TruncatedSeries:
        if not self.has_eigen_data:
            raise NoInvolutionError("table has no eigenspace data")
        return TruncatedSeries(s.inv_minus for s in self.slices)


def cochain_matrix(model: DgaModel, n: int, block: Block) -> linalg.SparseMatrix:
    """Matrix of L * D on the g-free monomials of one block (weight) of
    degree n (the block's entry in ``model.layout(n + 1).free[n]``), as
    sparse integer columns: column j holds the coordinates of
    L * D(free[j]) in the block's basis of degree n+1, each row keyed by
    the layout code of the g-free part of its monomial (not a position in
    [0, rows)), and the nonzero integer L is the common denominator of the
    differential's generator values (so ranks are those of D).  The
    block's other columns, g^a times these for a >= 1, are the columns of
    its chain predecessors, row for row."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    layout = model.layout(n + 1)
    rows = layout.dims[n + 1].get(block, 0)
    source = layout.free[n].get(block, ())
    columns = model.differential.integral_columns(source, layout.fields)
    return linalg.SparseMatrix(rows, tuple(columns))


def eigen_table(model: DgaModel, cap: int) -> EigenTable:
    """Per-degree cochain dimension, betti number and (when the model has
    an involution) the eigenspace split, for degrees 0..cap-1."""
    if cap < 2:
        raise ValueError("cap must be >= 2")
    layout = model.layout(cap)  # one pass over the g-free bases through degree cap
    step, dw = layout.g_step
    # the echelon basis of every block's columns so far; a row key names
    # the g-free part of its monomial, which lies in one chain of blocks
    pivots: dict[int, dict[int, int]] = {}
    # per degree, the summed rank of D on the blocks of even and of odd
    # weight: every block of degree n - deg g continues into degree n
    ranks: list[list[int]] = []
    slices = []
    for n in range(cap):
        rank = [0, 0]
        if step and n >= step:
            for p in (0, 1):
                rank[(p + dw) % 2] = ranks[n - step][p]
        for w in layout.free[n]:
            before = len(pivots)
            rank[w % 2] += linalg.rank(cochain_matrix(model, n, w), pivots) - before
        dim = [0, 0]
        for w, size in layout.dims[n].items():
            dim[w % 2] += size
        prev = ranks[n - 1] if n else [0, 0]
        plus, minus = (dim[p] - rank[p] - prev[p] for p in (0, 1))
        eigen = (plus, minus) if model.involution else (None, None)
        slices.append(DegreeSlice(n, sum(dim), plus + minus, *eigen))
        ranks.append(rank)
    return EigenTable(cap, tuple(slices))
