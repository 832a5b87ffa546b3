"""Exact rank of sparse integer columns.

A column is a dict from row key to a nonzero Python int; cochain columns
are built this way (see ``cohomology.integral_columns``), because the
differential of a monomial has only a handful of terms.  ``rank``
eliminates fraction-free over the integers, keeping every vector divided
by the gcd of its entries, so the result is exact; there is no
floating-point or modular path anywhere in this module.  ``rank``
changes nothing but the pivot dict it is handed, so calls that do not
share one are safe to run concurrently.

``rank`` can extend an echelon basis it built earlier instead of starting
from nothing.  The cohomology code uses this along multiplication by a
closed even generator g: the columns of a block that carry a factor g are,
row for row, the columns of an earlier block, so that block's pivots are
already an echelon basis of their span and only the g-free columns are
reduced (see ``cohomology``).  A pivot may also be an int (cohomology
stores an apparent pivot as its source code) that ``rank`` expands.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Iterable, Optional


def _primitive(v: dict[int, int]) -> dict[int, int]:
    g = gcd(*v.values())
    return v if g == 1 else {k: x // g for k, x in v.items()}


def rank(
    columns: Iterable[dict[int, int]],
    pivots: Optional[dict[int, dict[int, int] | int]] = None,
    expand: Optional[Callable[[int], dict[int, int]]] = None,
) -> int:
    """Rank over Q of the columns together with the vectors of
    ``pivots``, computed exactly.

    ``pivots`` maps a row key to a vector whose smallest row key it is:
    an echelon basis, as a previous call left it (empty by default), where
    an int stands for the vector ``expand`` makes of it, made primitive on
    first use.  The columns are reduced one at a time against it: a pivot
    clears its key from the column by an integer combination, which
    introduces only larger keys, until the column vanishes or becomes a
    new pivot.  The dict is extended in place and its size returned; the
    columns are not changed.
    """
    if pivots is None:
        pivots = {}
    for v in columns:
        while v:
            lead = min(v)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = _primitive(v)
                break
            if type(p) is int:
                p = pivots[lead] = _primitive(expand(p))
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
