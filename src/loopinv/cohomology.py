"""Degree-by-degree cohomology of a DgaModel over Q and its involution
eigenspace split.

The construction gate of DgaModel makes the differential preserve each
monomial's weight, and the involution acts on a monomial by (-1)^weight,
so the cochain complex is the direct sum of two subcomplexes (blocks),
one per weight parity p, on which the involution acts by +1 (p = 0) and
by -1 (p = 1).  Betti numbers and eigenspace dimensions are therefore
sums of block betti numbers dim C^n_p - rank D^n_p - rank D^{n-1}_p,
which need matrix ranks only.  For the Borel model the weight is
#bars - #alpha: the Hodge decomposition of cyclic homology.  Sparse
elimination never mixes columns of different weights, whose rows are
disjoint, so ranking a block whole costs no more than weight by weight.

The ranks are taken along multiplication by g, the model's closed even
generator of lowest degree (``DgaModel.closed``; alpha in a Borel
model).  Since D(g m) = g D(m), multiplication by g is an injective
chain map, and the columns of block p in degree n that carry a factor g
are g times the columns of its predecessor, the block p - weight(g)
(mod 2) in degree n - deg g.  Rows are keyed by the packed code of the
g-free part z of their monomial g^c z, with top - deg z in the top field
(top is the layout's last degree), which fixes c within one degree, so
those columns are, row for row, the predecessor's columns, and the
pivots that ranked the predecessor are already an echelon basis of
their span.  Each z lies in exactly one chain of blocks, so
``eigen_table`` keeps one pivot dict for them all.  It assembles only
the g-free columns of each block (``cochain_matrix``) and reduces them
into those pivots (rank D^n_p = carried pivots + new pivots), and the
full monomial basis is never enumerated.  A model without such a
generator takes the same route with nothing carried.

The descending degree field puts the g-free cells of highest degree
first, so a pivot R of D^{n-1} leads on a g-free cell c of degree n
whenever its vector has one.  R is c plus later rows and D^n R = 0, so
the column D^n(c) lies in the span of the columns of the later rows, and
``eigen_table`` skips it (the "clearing" of Chen and Kerber, Persistent
homology computation with a twist, 2011) without changing the rank or
the span of the pivots.  A g-multiple g^c z of degree n is a row only
from degree n - 1 + c deg g on, so the keys of degree n's g-free cells
in the pivot dict are exactly those leads: the dict is the clearing set.

This module owns the packed code format (``Layout``).  ``build_layout``
lays out the g-free monomials once per table, as integer codes with one
bit field per generator and the degree on top, and packs the
differential for those codes, so ``integral_columns`` assembles each
g-free column as sparse integer coordinates by shifts, masks and bit
counts, scaled by one common nonzero integer that clears every
denominator of the differential, for ``linalg.rank`` to rank exactly; no
polynomial, exponent tuple or rational number is built per column.

Degrees at or beyond the cap are never extrapolated: a table computed
with cap N answers for degrees 0..N-1 only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import TYPE_CHECKING, Container, Iterable, NamedTuple, Optional

from . import linalg
from .algebra import Polynomial, Value
from .series import TruncatedSeries

if TYPE_CHECKING:
    from .models import DgaModel


class NoInvolutionError(ValueError):
    category = "NoInvolution"


class DegreeSlice(Value):
    __slots__ = _fields = ("degree", "cochain_dim", "betti", "inv_plus", "inv_minus")

    def __init__(
        self,
        degree: int,
        cochain_dim: int,
        betti: int,
        inv_plus: Optional[int] = None,
        inv_minus: Optional[int] = None,
    ):
        if not 0 <= betti <= cochain_dim:
            raise ValueError(f"betti {betti} out of range at degree {degree}")
        if (inv_plus is None) != (inv_minus is None):
            raise ValueError("eigen data must be all-or-nothing")
        if inv_plus is not None and inv_plus + inv_minus != betti:
            raise ValueError(
                f"eigen split {inv_plus}+{inv_minus} != betti {betti} at degree {degree}"
            )
        super().__init__(degree, cochain_dim, betti, inv_plus, inv_minus)


class EigenTable(Value):
    """Slices for degrees 0..cap-1."""

    __slots__ = _fields = ("cap", "slices")

    def __init__(self, cap: int, slices: tuple[DegreeSlice, ...]):
        if len(slices) != cap:
            raise ValueError("need one slice per degree 0..cap-1")
        for n, s in enumerate(slices):
            if s.degree != n:
                raise ValueError("slices must be contiguous from degree 0")
        super().__init__(cap, slices)

    def slice(self, degree: int) -> DegreeSlice:
        if not 0 <= degree < self.cap:
            raise IndexError(f"degree {degree} outside the table's range 0..{self.cap - 1}")
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


class Layout(NamedTuple):
    """The g-free monomials of a DgaModel through degree ``top`` as packed
    integer codes, the block dimensions along multiplication by g, and
    the differential packed for those codes.

    Generator i's exponent sits in bits fields[i] .. fields[i + 1] - 1,
    wide enough for every exponent up to degree ``top`` (one bit for an
    odd generator); g's field is empty.  The bits from fields[-1] up hold
    top less the monomial's degree, so codes of one degree are contiguous
    and a higher degree comes first.  ``free[n]`` maps each block (weight
    parity) of degree n that has g-free monomials to their codes in basis
    order, and ``dims[n]`` maps every nonempty block of degree n to its
    dimension.  ``g_step`` is g's (degree, weight), or (0, 0) without g.
    ``terms`` is the differential as ``integral_columns`` reads it: for
    each generator g_i with a nonzero value, (fields[i], the mask of its
    field, one (step, coefficient, others, signs) per term t of
    L * D(g_i)), where L is the least common multiple of every
    coefficient denominator of the generator values, step is the code of
    t - g_i with the degree of t's power of g, less 1, in the degree field
    (the change of top less the g-free degree), others the bits of the
    odd generators of t other than g_i, and signs the odd bits whose
    count in a source fixes the term's sign."""

    top: int
    fields: tuple[int, ...]
    g_step: tuple[int, int]
    dims: tuple[dict[int, int], ...]
    free: tuple[dict[int, tuple[int, ...]], ...]
    terms: tuple[tuple[int, int, tuple[tuple[int, int, int, int], ...]], ...]


def build_layout(model: DgaModel, top: int) -> Layout:
    """The g-free layout of a model through degree ``top``, with g =
    ``model.closed``, and its packed differential.

    One pass over the generators other than g yields the g-free
    monomials of every degree in ascending lexicographic order, each as
    a packed code with its weight parity.  Multiplication by g is
    injective and maps block p of degree n into block p + weight(g)
    (mod 2) of degree n + deg g, so a block's dimension is its
    predecessor's plus its number of g-free monomials.  Without g every
    monomial is g-free and nothing is chained."""
    gens = model.algebra.generators
    g = model.closed
    fields = _fields(model, top)
    deg = fields[-1]
    # (code, parity) of every g-free monomial through degree top, with top
    # less its degree in the degree field; the first generator varies slowest
    monos = [(top << deg, 0)]
    for i in reversed([i for i in range(len(gens)) if i != g]):
        d, w = gens[i].degree, model.weights[i]
        unit = (1 << fields[i]) - (d << deg)
        monos = [
            (code + e * unit, (parity + e * w) % 2)
            for e in range(2 if d % 2 else top // d + 1)
            for code, parity in monos
            if e * d <= code >> deg
        ]
    found: list[dict[int, list[int]]] = [{} for _ in range(top + 1)]
    for code, parity in monos:
        found[top - (code >> deg)].setdefault(parity, []).append(code)
    g_step = (gens[g].degree, model.weights[g]) if g is not None else (0, 0)
    step, dw = g_step
    dims: list[dict[int, int]] = []
    for n, split in enumerate(found):
        level = {}
        if step and n >= step:
            level = {(p + dw) % 2: dim for p, dim in dims[n - step].items()}
        for p, codes in split.items():
            level[p] = level.get(p, 0) + len(codes)
        dims.append(level)
    free_codes = tuple({p: tuple(codes) for p, codes in split.items()} for split in found)
    return Layout(top, fields, g_step, tuple(dims), free_codes, _packed_terms(model, fields))


def _fields(model: DgaModel, top: int) -> tuple[int, ...]:
    """``Layout.fields`` for a layout through degree ``top``."""
    width = [
        0 if i == model.closed else 1 if d % 2 else max(1, (top // d).bit_length())
        for i, (_, d) in enumerate(model.algebra.generators)
    ]
    return tuple(accumulate(width, initial=0))


def _packed_terms(model: DgaModel, fields: tuple[int, ...]):
    """``Layout.terms`` for the given fields.  g, even and closed, has no
    entry, and its factors in a term change the g-free degree, not the code."""
    gens = model.algebra.generators
    g = model.closed
    values = [v.terms for v in model.differential.values()]
    odd = [x.degree % 2 == 1 for x in gens]
    scale = lcm(*(c.denominator for value in values for c in value.values()))
    odd_bits = sum(1 << fields[k] for k in range(len(gens)) if odd[k])
    below = [(1 << f) - 1 for f in fields]  # the bits of the generators before each
    table = []
    for i, value in enumerate(values):
        if not value:
            continue
        terms = []
        for t, c in value.items():
            others = [k for k, b in enumerate(t) if b and odd[k] and k != i]
            step = sum(b << fields[k] for k, b in enumerate(t) if k != g)
            dropped = t[g] * gens[g].degree if g is not None else 0
            step += ((dropped - 1) << fields[-1]) - (1 << fields[i])
            # 1 is D's degree shift in the Leibniz sign (-1)^(shift * P[i])
            signs = below[i] if (1 + len(others)) % 2 else 0
            for k in others:
                signs ^= below[k]
            c = int(c * scale) * (-1 if odd[i] and sum(k > i for k in others) % 2 else 1)
            terms.append((step, c, sum(1 << fields[k] for k in others), signs & odd_bits))
        table.append((fields[i], (1 << (fields[i + 1] - fields[i])) - 1, tuple(terms)))
    return tuple(table)


def integral_columns(table, sources: Iterable[int]) -> list[dict[int, int]]:
    """For each source code m, L * D(m) as a sparse integer column
    {code: coefficient}, with ``table`` and L as in ``Layout.terms``.

    The empty field of g makes a source stand for the g-free monomial m,
    and the term g^c * z of L * D(m) land on the code of z with its degree
    (within one degree, z fixes c).  As g is even and closed it
    contributes no term and no sign, so the coefficients are those of the
    full monomials.

    Its oracle is ``product_derivation`` in ``tests/support.py``, the
    Leibniz rule by Polynomial products.  With P[k] the number of
    odd factors of m before generator k, the Leibniz sign of the i-th
    term is (-1)^(shift * P[i]); reordering left * t * right into
    canonical order moves each odd factor j of t past the odd factors of
    m strictly between j and i, which is P[j] + P[i] (plus one when j > i
    and g_i is odd) modulo 2, and the product vanishes when t repeats an
    odd factor of m.  Each P is the bit count of m's odd bits below a
    field, and a sum of bit counts of m under several masks has the
    parity of the bit count under their exclusive or, so one bit count
    gives the sign.
    """
    columns = []
    for code in sources:
        col: dict[int, int] = {}
        for shift, mask, terms in table:
            e = code >> shift & mask
            if not e:
                continue
            for step, c, others, signs in terms:
                if code & others:
                    continue  # t repeats an odd factor of m: no term
                row = code + step
                v = col.get(row, 0) + (-c if (code & signs).bit_count() & 1 else c) * e
                if v:
                    col[row] = v
                else:
                    del col[row]
        columns.append(col)
    return columns


def square_zero_residual(model: DgaModel) -> Optional[tuple[str, Polynomial]]:
    """The first generator x with D(D(x)) != 0, with that residual, or
    None; D∘D is a derivation, so it vanishes once it does on generators.
    D is applied twice by ``integral_columns`` on codes through the largest
    generator degree + 2, so the residual carries L^2, and as it has degree
    deg x + 2, the degree field of a row gives the exponent of g."""
    gens = model.algebra.generators
    top = max((x.degree for x in gens), default=0) + 2
    fields = _fields(model, top)
    deg = fields[-1]
    table = _packed_terms(model, fields)
    values = [v.terms for v in model.differential.values()]
    square = lcm(*(c.denominator for value in values for c in value.values())) ** 2
    for i, x in enumerate(gens):
        if not values[i]:
            continue  # g, whose field is empty, is one of these
        (once,) = integral_columns(table, [(1 << fields[i]) + ((top - x.degree) << deg)])
        twice: dict[int, int] = {}
        for v, column in zip(once.values(), integral_columns(table, once)):
            for row, c in column.items():
                twice[row] = twice.get(row, 0) + v * c
        terms = {}
        for code, v in twice.items():
            g_degree = x.degree + 2 - (top - (code >> deg))  # less the g-free degree
            mono = [(code >> lo) & ((1 << (hi - lo)) - 1) for lo, hi in zip(fields, fields[1:])]
            if model.closed is not None:
                mono[model.closed] = g_degree // gens[model.closed].degree
            terms[tuple(mono)] = Fraction(v, square)
        residual = Polynomial(model.algebra, terms)
        if residual:
            return x.name, residual
    return None


def cochain_matrix(
    layout: Layout, n: int, block: int, cleared: Container[int] = ()
) -> linalg.SparseMatrix:
    """Matrix of L * D on the g-free monomials of one block (weight
    parity) of degree n (the block's entry in ``layout.free[n]``) that are
    not in ``cleared``, as sparse integer columns: column j holds the
    coordinates of L * D(free[j]) in the block's basis of degree n+1, each
    row keyed by the layout code of the g-free part of its monomial (not a
    position in [0, rows)), and the nonzero integer L is the common
    denominator of the differential's generator values (so ranks are those
    of D).  The block's other columns, g^a times these for a >= 1, are the
    columns of its chain predecessors, row for row.  Degree n + 1 must lie
    within the layout."""
    if not 0 <= n < layout.top:
        raise ValueError(f"degree {n} outside the layout's range 0..{layout.top - 1}")
    rows = layout.dims[n + 1].get(block, 0)
    source = [code for code in layout.free[n].get(block, ()) if code not in cleared]
    return linalg.SparseMatrix(rows, tuple(integral_columns(layout.terms, source)))


def eigen_table(model: DgaModel, cap: int) -> EigenTable:
    """Per-degree cochain dimension, betti number and (when the model has
    an involution) the eigenspace split, for degrees 0..cap-1."""
    if cap < 2:
        raise ValueError("cap must be >= 2")
    layout = build_layout(model, cap)  # one pass over the g-free bases through degree cap
    step, dw = layout.g_step
    # the echelon basis of every block's columns so far, which is also the
    # clearing set; a row key names the g-free part of its monomial
    pivots: dict[int, dict[int, int]] = {}
    # per degree, the rank of D on blocks 0 and 1, which carry on along g
    ranks: list[list[int]] = []
    slices = []
    for n in range(cap):
        carry = step and n >= step
        rank = [ranks[n - step][(p - dw) % 2] if carry else 0 for p in (0, 1)]
        for p in layout.free[n]:
            before = len(pivots)
            rank[p] += linalg.rank(cochain_matrix(layout, n, p, pivots), pivots) - before
        dim = [layout.dims[n].get(p, 0) for p in (0, 1)]
        prev = ranks[n - 1] if n else [0, 0]
        plus, minus = (dim[p] - rank[p] - prev[p] for p in (0, 1))
        eigen = (plus, minus) if model.involution else (None, None)
        slices.append(DegreeSlice(n, sum(dim), plus + minus, *eigen))
        ranks.append(rank)
    return EigenTable(cap, tuple(slices))
