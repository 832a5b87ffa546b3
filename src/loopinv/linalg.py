"""Exact rank of sparse integer matrices.

A matrix is stored by columns, each a dict from row key to a nonzero
Python int; cochain matrices are built this way (see
``cohomology.cochain_matrix``), because the differential of a monomial
has only a handful of terms.  ``rank`` eliminates fraction-free over the
integers, keeping every vector divided by the gcd of its entries, so the
result is exact; there is no floating-point or modular path anywhere in
this module.  ``rank`` changes nothing but the pivot dict it is handed, so
calls that do not share one are safe to run concurrently.

``rank`` can extend an echelon basis it built earlier instead of starting
from nothing.  The cohomology code uses this along multiplication by a
closed even generator g: the columns of a block that carry a factor g are,
row for row, the columns of an earlier block, so that block's pivots are
already an echelon basis of their span and only the g-free columns are
reduced (see ``cohomology``).
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional


class SparseMatrix(NamedTuple):
    """rows x len(columns) integer matrix; columns[j] maps a row key, any
    int that names the row (not necessarily in [0, rows)), to the nonzero
    entry there.  Empty shapes (0 x n, n x 0) are legal; they occur for
    cochain degrees with empty monomial bases."""

    rows: int
    columns: tuple[dict[int, int], ...]

    @property
    def cols(self) -> int:
        return len(self.columns)

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns))


def _primitive(v: dict[int, int]) -> dict[int, int]:
    g = gcd(*v.values())
    return v if g == 1 else {k: x // g for k, x in v.items()}


def rank(m: SparseMatrix, pivots: Optional[dict[int, dict[int, int]]] = None) -> int:
    """Rank over Q of the columns of m together with the vectors of
    ``pivots``, computed exactly.

    ``pivots`` maps a row key to a vector whose smallest row key it
    is: an echelon basis, as a previous call left it (empty by default).
    The columns are reduced one at a time against it: a pivot clears its
    key from the column by an integer combination, which introduces only
    larger keys, until the column vanishes or becomes a new pivot.  The
    dict is extended in place and its size returned; the columns of m are
    not changed.
    """
    if pivots is None:
        pivots = {}
    for v in m.columns:
        while v:
            lead = min(v)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = _primitive(v)
                break
            a, b = p[lead], v[lead]
            if b % a:
                v = {k: a * x for k, x in v.items()}
            else:
                b //= a
                v = dict(v)
            for k, x in p.items():
                y = v.get(k, 0) - b * x
                if y:
                    v[k] = y
                else:
                    del v[k]
            v = _primitive(v) if v else v
    return len(pivots)
