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
generator of lowest degree, which ``build_layout`` picks (alpha in a
Borel model).  Since D(g m) = g D(m), multiplication by g is an
injective chain map, and the columns of block p in degree n that carry a
factor g are g times the columns of its predecessor, the block p -
weight(g) (mod 2) in degree n - deg g.  Rows are keyed by the packed
code of the g-free part z of their monomial g^c z, with top - deg z in
the top field (top is the cap, the degree of the last rows), which fixes
c within one degree, so those columns are, row for row, the
predecessor's columns, and the pivots that ranked the predecessor are
already an echelon basis of their span.  Each z lies in exactly one
chain of blocks, so ``eigen_table`` keeps one pivot dict for them all.
It assembles only the g-free columns of each block
(``integral_columns``) and reduces them into those pivots (rank D^n_p =
carried pivots + new pivots); in the same way dim C^n_p is the
predecessor's dimension plus the number of g-free monomials, and the
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

Most pivots are apparent (no reduction step): as in Ripser (Bauer 2021),
each is kept as its source code, and ``linalg.rank`` assembles it on
first use.  ``eigen_table`` sums each uncleared column, in basis order,
only up to its lead, and assembles and reduces at once one whose lead is
a key, so the assembled pivots are those of assembling every column.

This module owns the packed code format (``Layout``).  ``build_layout``
lays out the g-free monomials once per table, as bare integer codes with
one bit field per generator and the degree on top, each code's weight
parity read off its bits, and packs the differential for those codes,
grouped by row, so ``integral_columns`` assembles each g-free column as
sparse integer coordinates by shifts, masks and bit counts, scaled by
one common nonzero integer that clears every denominator of the
differential, for ``linalg.rank`` to rank exactly; no polynomial,
exponent tuple or rational number is built per monomial or per column.
``eigen_table`` keeps the block dimensions and ranks of every degree in
two flat int lists and builds one ``DegreeSlice`` per degree.

Degrees at or beyond the cap are never extrapolated: a table computed
with cap N answers for degrees 0..N-1 only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

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
        if inv_plus is not None and (inv_plus < 0 or inv_minus < 0):
            raise ValueError(f"negative eigen split {inv_plus}+{inv_minus} at degree {degree}")
        if inv_plus is not None and inv_plus + inv_minus != betti:
            raise ValueError(
                f"eigen split {inv_plus}+{inv_minus} != betti {betti} at degree {degree}"
            )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "cochain_dim", cochain_dim)
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "inv_plus", inv_plus)
        object.__setattr__(self, "inv_minus", inv_minus)


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
    """The g-free monomials of a DgaModel in degrees 0..top-1 as packed
    integer codes, and the differential packed for those codes.

    Generator i's exponent sits in bits fields[i] .. fields[i + 1] - 1,
    wide enough for every exponent up to degree ``top`` (one bit for an
    odd generator), so that the row codes of degree top fit; g's field is
    empty.  The bits from fields[-1] up hold top less the monomial's
    degree, so codes of one degree are contiguous and a higher degree
    comes first.  ``free[n]``, for n < top, maps each block (weight
    parity) of degree n that has g-free monomials to a list of their
    codes, bare ints, in basis order; a code's parity is that of its bits
    under the low bit of each odd-weight generator's field.  ``g_step`` is
    g's (degree, weight), or (0, 0) without g.
    ``terms`` is the differential as ``integral_columns`` reads it: by
    ascending step, one group (step, [(shift, mask, coefficient, others,
    signs), ...]), landing on the row source + step, of the terms t of
    every L * D(g_i), where L is the least common multiple of every
    coefficient denominator of the generator values, step is the code of
    t - g_i with the degree of t's power of g, less 1, in the degree field
    (the change of top less the g-free degree), shift and mask select g_i's
    field, others are the bits of the odd generators of t other than g_i,
    and signs the odd bits whose count in a source fixes the term's sign."""

    top: int
    fields: tuple[int, ...]
    g_step: tuple[int, int]
    free: tuple[dict[int, tuple[int, ...]], ...]
    terms: tuple[tuple[int, list[tuple[int, int, int, int, int]]], ...]


def build_layout(model: DgaModel, top: int) -> Layout:
    """The g-free layout of a model below degree ``top`` and its packed
    differential, where g is the even generator with zero differential of
    lowest degree (the first one on ties), or None.

    One pass over the generators other than g yields the g-free
    monomials of every degree below top in ascending lexicographic order,
    each as a bare packed code, which is then bucketed straight into its
    degree and block.  Without g every monomial is g-free."""
    gens = model.algebra.generators
    closed = [i for i, (x, v) in enumerate(zip(gens, model.differential.values()))
              if x.degree % 2 == 0 and not v]
    g = min(closed, key=lambda i: gens[i].degree, default=None)
    fields = _fields(model, top, g)
    deg = fields[-1]
    # the code of every g-free monomial below degree top, with top less its
    # degree in the degree field; the first generator varies slowest
    codes = [top << deg]
    for i in reversed([i for i in range(len(gens)) if i != g]):
        d = gens[i].degree
        unit = (1 << fields[i]) - (d << deg)
        # e factors of generator i keep a code below degree top only where its
        # degree field is at least e*d + 1: a floor on the code itself
        steps = [(e * unit, (e * d + 1) << deg) for e in range(2 if d % 2 else top // d + 1)]
        codes = [code + step for step, floor in steps for code in codes if code >= floor]
    # the weight parity of a code is the parity of its odd-weight exponents
    odd_weight = sum(1 << fields[i] for i, w in enumerate(model.weights) if w % 2 and i != g)
    free: tuple[dict[int, list[int]], ...] = tuple({} for _ in range(top))
    for code in codes:
        free[top - (code >> deg)].setdefault((code & odd_weight).bit_count() & 1, []).append(code)
    g_step = (gens[g].degree, model.weights[g]) if g is not None else (0, 0)
    return Layout(top, fields, g_step, free, _packed_terms(model, fields, g))


def _fields(model: DgaModel, top: int, g: Optional[int]) -> tuple[int, ...]:
    """``Layout.fields`` through degree ``top``, with an empty field for g."""
    width = [
        0 if i == g else 1 if d % 2 else max(1, (top // d).bit_length())
        for i, (_, d) in enumerate(model.algebra.generators)
    ]
    return tuple(accumulate(width, initial=0))


def _packed_terms(model: DgaModel, fields: tuple[int, ...], g: Optional[int]):
    """``Layout.terms`` for the given fields.  g, even and closed, has no
    entry, and its factors in a term change the g-free degree, not the code."""
    gens = model.algebra.generators
    values = [v.terms for v in model.differential.values()]
    odd = [x.degree % 2 == 1 for x in gens]
    scale = lcm(*(c.denominator for value in values for c in value.values()))
    odd_bits = sum(1 << fields[k] for k in range(len(gens)) if odd[k])
    below = [(1 << f) - 1 for f in fields]  # the bits of the generators before each
    groups: dict[int, list[tuple[int, ...]]] = {}
    for i, value in enumerate(values):
        mask = (1 << (fields[i + 1] - fields[i])) - 1
        for t, c in value.items():
            others = [k for k, b in enumerate(t) if b and odd[k] and k != i]
            step = sum(b << fields[k] for k, b in enumerate(t) if k != g)
            dropped = t[g] * gens[g].degree if g is not None else 0
            step += ((dropped - 1) << fields[-1]) - (1 << fields[i])
            # 1 is D's degree shift in the Leibniz sign (-1)^(shift * P[i])
            signs = below[i] if (1 + len(others)) % 2 else 0
            for k in others:
                signs ^= below[k]
            c = c.numerator * (scale // c.denominator)  # an integer, as scale clears c
            c = -c if odd[i] and sum(k > i for k in others) % 2 else c
            entry = (fields[i], mask, c, sum(1 << fields[k] for k in others), signs & odd_bits)
            groups.setdefault(step, []).append(entry)
    return tuple(sorted(groups.items()))


def integral_columns(table, sources: Iterable[int]) -> list[dict[int, int]]:
    """For each source code m, L * D(m) as a sparse integer column
    {code: coefficient} by ascending row, ``table`` and L as in ``Layout.terms``.

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
        for step, group in table:
            v = 0
            for shift, mask, c, others, signs in group:
                e = code >> shift & mask
                if e and not code & others:  # else t is absent from m or repeats an odd factor
                    v += (-c if (code & signs).bit_count() & 1 else c) * e
            if v:
                col[code + step] = v
        columns.append(col)
    return columns


def square_zero_residual(model: DgaModel) -> Optional[tuple[str, Polynomial]]:
    """The first generator x with D(D(x)) != 0, with that residual, or
    None; D∘D is a derivation, so it vanishes once it does on generators.
    D is applied twice by ``integral_columns`` on codes through the largest
    generator degree + 2 that pack every generator (no g), so the residual
    carries L^2 and each of its monomials is the fields of its code."""
    gens = model.algebra.generators
    top = max((x.degree for x in gens), default=0) + 2
    fields = _fields(model, top, None)
    deg = fields[-1]
    table = _packed_terms(model, fields, None)
    values = [v.terms for v in model.differential.values()]
    square = lcm(*(c.denominator for value in values for c in value.values())) ** 2
    for i, x in enumerate(gens):
        if not values[i]:
            continue
        (once,) = integral_columns(table, [(1 << fields[i]) + ((top - x.degree) << deg)])
        twice: dict[int, int] = {}
        for v, column in zip(once.values(), integral_columns(table, once)):
            for row, c in column.items():
                twice[row] = twice.get(row, 0) + v * c
        terms = {
            tuple(code >> lo & ((1 << (hi - lo)) - 1) for lo, hi in zip(fields, fields[1:])):
            Fraction(v, square)
            for code, v in twice.items()
        }
        residual = Polynomial(model.algebra, terms)
        if residual:
            return x.name, residual
    return None


def _reduce_block(table, codes: list[int], pivots: dict) -> None:
    """Rank one g-free block's uncleared columns into ``pivots``, in order."""
    for code in [code for code in codes if code not in pivots]:  # not cleared
        for step, group in table:  # integral_columns inline, up to the lead
            v = 0
            for shift, mask, c, others, signs in group:
                e = code >> shift & mask
                if e and not code & others:
                    v += (-c if (code & signs).bit_count() & 1 else c) * e
            if v:
                break
        else:
            continue  # D(code) = 0
        if code + step in pivots:
            expand = lambda m: integral_columns(table, (m,))[0]  # noqa: E731
            linalg.rank([expand(code)], pivots, expand)
        else:
            pivots[code + step] = code  # an apparent pivot, not assembled


def eigen_table(model: DgaModel, cap: int) -> EigenTable:
    """Per-degree cochain dimension, betti number and (when the model has
    an involution) the eigenspace split, for degrees 0..cap-1."""
    if cap < 2:
        raise ValueError("cap must be >= 2")
    layout = build_layout(model, cap)  # one pass over the g-free bases below degree cap
    step, dw = layout.g_step[0], layout.g_step[1] % 2
    # the echelon basis of every block's columns so far (an apparent pivot as
    # its source code), also the clearing set; a row key names a g-free part
    pivots: dict[int, dict[int, int] | int] = {}
    # the dimension of block p of degree n and the rank of D on it, at 2n + 2 + p
    # after two zeros for degree -1; both carry on along g
    dims, ranks = [0] * (2 * cap + 2), [0] * (2 * cap + 2)
    slices = []
    for n in range(cap):
        i = 2 * n + 2
        if step and n >= step:
            j = i - 2 * step + dw  # the predecessor of block 0; j ^ 1 is that of block 1
            dims[i], dims[i + 1] = dims[j], dims[j ^ 1]
            ranks[i], ranks[i + 1] = ranks[j], ranks[j ^ 1]
        for p, codes in layout.free[n].items():
            dims[i + p] += len(codes)  # cleared codes too
            before = len(pivots)
            _reduce_block(layout.terms, codes, pivots)
            ranks[i + p] += len(pivots) - before
        plus = dims[i] - ranks[i] - ranks[i - 2]
        minus = dims[i + 1] - ranks[i + 1] - ranks[i - 1]
        eigen = (plus, minus) if model.involution else ()
        slices.append(DegreeSlice(n, dims[i] + dims[i + 1], plus + minus, *eigen))
    return EigenTable(cap, tuple(slices))
