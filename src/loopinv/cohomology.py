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
generator of lowest degree, which ``_plan`` picks (alpha in a
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

This module owns the packed code format (``Layout``): bare integer
codes with one bit field per generator and the degree on top.  ``_plan``
counts a table's g-free codes by block (``_counts``); ``_layout`` lists
once the monomials of a head of the generators other than g, chosen
from the counts, and once the codes of the rest, the tail, by weight
parity and then degree (``_codes``), so that ``_block`` builds a block's
codes just before ``eigen_table`` ranks it.  It packs the differential
for those codes, grouped by row, so ``integral_columns`` assembles each
g-free column as sparse integer coordinates by shifts, masks and bit
counts (``_entry`` reads one row, also for the lead search), scaled by
one common nonzero integer that clears every denominator of the
differential, for ``linalg.rank`` to rank exactly; no polynomial,
exponent tuple or rational number is built per monomial or per column.
``eigen_table`` keeps the block dimensions and betti numbers of every
degree in two flat int lists, carries them along g, and hands their sums
and eigen halves to ``EigenTable`` as its columns: no object is built
per degree.

Products.  The generators other than g fall into the connected
components of the graph with an edge x - y wherever y appears in D(x)
(``_factors``).  With g, a component C spans the subcomplex
Q[g] (x) Lambda(C), and the table's complex is the tensor product of
these over Q[g] (over Q without g): D acts one factor at a time.  This
holds for base, loop and Borel models alike.  Each factor is free over
the graded PID Q[g], so by the Kunneth theorem the product's cohomology
follows from its factors' as Q[g]-modules, which are barcodes: the
column reduction that ranks a factor along g pairs its cells
(``_bars``).  ``eigen_table`` ranks each factor to the table's own cap
with no margin (``_fold`` proves it needs none), folds their barcodes
and takes ``cochain_dim`` from the table's count table.  Factors that
are one complex under a renaming of their generators (``_shape``), as
those of a power are, share one layout, ranked once.  ``_plan`` takes
this route where its price (``_PRICE``, ``_FOLD``) is the least.

Pure models.  Let Y be the odd generators whose values u_y are nonzero,
lie in the even generators and occur in no value, and C the sub-DGA on
the other generators.  When u is a regular sequence in C, the Koszul
complex resolves C/(u), so C (x) Lambda(Y) -> C/(u), y -> 0, is a
quasi-isomorphism that keeps the weights and the Q[g]-module structure.
u is regular, and so is g on C/(u), when the u_y at g = 0 lie in exactly
|Y| generators X with H = Q[X]/(u) finite, which a Groebner basis shows
by a pure power of each x among its leads.  With g last in a grevlex
order, the leads of (u) are those at g = 0 (Bayer and Stillman, 1987),
so C/(u) is free over Q[g] on the cells s w, s a standard monomial of H
and w a monomial in the other generators.  For the Borel model of a
positively elliptic pure model (Halperin, Finiteness in the minimal
models of Sullivan, 1977), g is alpha and C/(u) = H (x) Lambda(x_bar) (x)
Q[y_bar, alpha] (Vigue-Poirrier and Burghelea, 1985).  A loop or base
table, whose g lies in X, ranks C/(u) with no g (the base table is H
with D = 0).  ``_pure`` counts C/(u)'s cells from C's before any
Groebner basis, and ``_koszul`` lays C/(u) out, for a table or a
factor, where ``_plan``'s price puts it below C.

Degrees at or beyond the cap are never extrapolated: a table computed
with cap N answers for degrees 0..N-1 only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, compress, islice, repeat
from math import lcm
from operator import add, ge, itemgetter, lshift, mul, sub, xor
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from . import linalg
from .algebra import Polynomial, Value, _exact
from .series import TruncatedSeries

if TYPE_CHECKING:
    from .models import DgaModel


_set = object.__setattr__  # a Value's fields are set once, bypassing its __setattr__


# The price of a plan (``_plan``) in chain layout cells: by route, per predicted
# cell and per layout (listing, packing, a Groebner basis), fitted on 637 tables.
_PRICE = {"chain": (1, 40), "koszul": (3, 80), "koszul-no-g": (1.6, 80)}
_LEAST = tuple(map(min, *[p for r, p in _PRICE.items() if r != "chain"]))  # of a Koszul route
_FOLD = 3  # per fold of a product's factors, per degree of the cap: barcodes grow with it
# The largest cap a table takes.  A table holds lists of 2 * cap ints, so a
# larger cap is refused with BudgetExceededError before any of them is built.
MAX_CAP = 100_000


class NoInvolutionError(ValueError):
    category = "NoInvolution"


class BudgetExceededError(ValueError):
    category = "BudgetExceeded"


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
        _set(self, "degree", degree)
        _set(self, "cochain_dim", cochain_dim)
        _set(self, "betti", betti)
        _set(self, "inv_plus", inv_plus)
        _set(self, "inv_minus", inv_minus)


class EigenTable(Value):
    """Degrees 0..cap-1 as columns, one entry per degree: the cochain
    dimensions, the betti numbers and the eigenspace split, whose two
    columns are both None for a table without an involution.  The columns
    are checked in bulk; at the first degree that fails, the error is its
    ``DegreeSlice``'s.  ``slices`` and ``slice(n)`` build those row views
    on demand."""

    __slots__ = _fields = ("cap", "cochain_dim", "betti", "inv_plus", "inv_minus")

    def __init__(
        self,
        cap: int,
        cochain_dim: Iterable[int],
        betti: Iterable[int],
        inv_plus: Optional[Iterable[int]] = None,
        inv_minus: Optional[Iterable[int]] = None,
    ):
        if (inv_plus is None) != (inv_minus is None):
            raise ValueError("eigen data must be all-or-nothing")
        eigen = () if inv_plus is None else (tuple(inv_plus), tuple(inv_minus))
        columns = (tuple(cochain_dim), tuple(betti), *eigen)
        if any(len(column) != cap for column in columns):
            raise ValueError("need one slice per degree 0..cap-1")
        dims, betti = columns[:2]
        ok = min(betti, default=0) >= 0 and all(map(ge, dims, betti))
        if eigen and ok:
            plus, minus = eigen
            ok = min(plus, default=0) >= 0 and min(minus, default=0) >= 0
            ok = ok and tuple(map(add, plus, minus)) == betti
        if not ok:
            for row in zip(range(cap), *columns):
                DegreeSlice(*row)  # raises the first failing degree's error
        super().__init__(cap, dims, betti, *(eigen or (None, None)))

    @property
    def slices(self) -> tuple[DegreeSlice, ...]:
        return tuple(map(DegreeSlice, range(self.cap), *self._columns()))

    def slice(self, degree: int) -> DegreeSlice:
        if not 0 <= degree < self.cap:
            raise IndexError(f"degree {degree} outside the table's range 0..{self.cap - 1}")
        return DegreeSlice(degree, *[column[degree] for column in self._columns()])

    def _columns(self) -> tuple:
        eigen = (self.inv_plus, self.inv_minus) if self.has_eigen_data else ()
        return (self.cochain_dim, self.betti, *eigen)

    @property
    def has_eigen_data(self) -> bool:
        return self.inv_plus is not None

    def betti_series(self) -> TruncatedSeries:
        return TruncatedSeries(self.betti)

    def inv_plus_series(self) -> TruncatedSeries:
        if not self.has_eigen_data:
            raise NoInvolutionError("table has no eigenspace data")
        return TruncatedSeries(self.inv_plus)

    def inv_minus_series(self) -> TruncatedSeries:
        if not self.has_eigen_data:
            raise NoInvolutionError("table has no eigenspace data")
        return TruncatedSeries(self.inv_minus)


class Layout(NamedTuple):
    """The g-free monomials of a DgaModel in degrees 0..top-1, counted by
    block and split for enumeration one block at a time as packed integer
    codes, and the differential packed for those codes.

    Generator i's exponent sits in bits fields[i] .. fields[i + 1] - 1,
    wide enough for every exponent up to degree ``top`` (one bit for an
    odd generator), so that the row codes of degree top fit; g's field is
    empty.  The bits from fields[-1] up hold top less the monomial's
    degree, so codes of one degree are contiguous and a higher degree
    comes first.  ``g_step`` is g's (degree, weight), or (0, 0) without g.
    ``counts[2n + p]`` is the number of g-free monomials of degree n < top
    and weight parity p (block p), counted before any code is listed.  The
    generators other than g split into the first few (the head) and the
    rest (the tail), each listed once: ``head`` lists the
    head's monomials below degree top as (offset, degree, parity), with
    the degree field of the offset less that degree, and ``tail[2n + p]``
    lists the codes of the tail's monomials of degree n and parity p; each
    list is in ascending lexicographic order, so a block's codes in basis
    order are those of ``_block``.  A code's parity is that of its
    bits under the low bit of each odd-weight generator's field.
    ``terms`` is the differential as ``integral_columns`` reads it: by
    ascending step, one group (step, required, forbidden, [(shift, mask,
    coefficient, others, signs), ...]), landing on the row source + step,
    of the terms t of every L * D(g_i), where L is the least common
    multiple of every coefficient denominator of the generator values,
    step is the code of t - g_i with the degree of t's power of g, less 1,
    in the degree field (the change of top less the g-free degree), shift
    and mask select g_i's field, others are the bits of the odd generators
    of t other than g_i, and signs the odd bits whose count in a source
    fixes the term's sign.  A source without any of the required bits
    (the fields of the group's generators) or with a forbidden one (for a
    group of one term, its others) has no entry on the group's row."""

    top: int
    fields: tuple[int, ...]
    g_step: tuple[int, int]
    counts: list[int]
    head: list[tuple[int, int, int]]
    tail: list[list[int]]
    terms: tuple[tuple[int, int, int, list[tuple[int, int, int, int, int]]], ...]


def build_layout(model: DgaModel, top: int) -> tuple[list[int], list[tuple[Layout, int]]]:
    """The count table and distinct chain layouts (with multiplicity) of
    the table's cheapest plan by one price (``_plan``); a Koszul layout of
    u not regular falls back to the chain layout it was priced against."""
    counts, g, planned = _plan(model, top)
    layouts = []
    for part, _, k, _, counted, pure in planned:
        if not (layout := pure and _koszul(model, top, *pure)):
            layout = _layout(model, top, g, part, counted)
            counts = counted[0] if pure and pure[0] != g else counts  # a whole table, along g
        layouts.append((layout, k))
    return counts, layouts


def _plan(model: DgaModel, top: int):
    """The route of a table below degree ``top``, from count tables and
    the model's structure alone: the table's count table (of every
    monomial when laid out with no g), g (the first closed even generator
    of lowest degree, or None) and each distinct layout as (generators,
    route, multiplicity, predicted cells, chain count table and totals,
    ``_koszul``'s arguments or None), the route "chain", "koszul" (C/(u)
    along g) or "koszul-no-g" (a whole table's C/(u), its u in g too).
    The whole table and its factors, each layout by its cheaper route, are
    priced by ``_PRICE`` and ``_FOLD``: the cheapest wins, on ties the
    whole chain layout, then the product.  ``_pure`` runs only where the
    least cells of C/(u) could win: one, or each factor's, the unit once."""
    gens = model.algebra.generators
    closed = [i for i, (x, v) in enumerate(zip(gens, model.differential.values()))
              if x.degree % 2 == 0 and not v]
    g = min(closed, key=lambda i: gens[i].degree, default=None)
    rest = [i for i in range(len(gens)) if i != g]
    tables: dict[tuple, tuple] = {}

    def chain(part):  # part's chain layout as a plan: (price, count table, [layout])
        key = tuple([(gens[i].degree, model.weights[i] % 2) for i in part])
        counted = tables[key] if key in tables else tables.setdefault(key, _counts(key, top))
        n = counted[1][-1]
        return n + _PRICE["chain"][1], counted[0], [(part, "chain", 1, n, counted, None)]

    def koszul(part, counted):  # the same of its C/(u), () without Y, or None
        if not (pure := _pure(model, top, g, part, counted[0])):
            return pure
        h, whole, xs, ys, counts, reduced = pure
        route, n = "koszul" if h == g else "koszul-no-g", sum(reduced)
        return (_PRICE[route][0] * n + _PRICE[route][1], counts,
                [(part, route, 1, n, counted, (h, whole, xs, ys, reduced))])

    best = whole = chain(rest)
    least = 1  # the least cells of the whole table's C/(u)
    room = 1 + (whole[0] - sum(_PRICE["chain"])) / (_FOLD * top)  # k < room factors may pay
    if room > 2 and 1 < len(parts := _factors(model, g, rest)) < room:
        shapes = [_shape(model, part) for part in parts]
        price, layouts = _FOLD * top * (len(parts) - 1), []
        for s, part in dict(zip(shapes, parts)).items():
            plan, k = chain(part), shapes.count(s)
            reduced = koszul(part, plan[2][0][4]) if plan[0] > sum(_LEAST) else None
            least += k * ((reduced or plan)[2][0][3] if reduced is not None else 1) - k
            plan = min(plan, reduced or plan, key=itemgetter(0))
            price += plan[0]
            layouts.append((*plan[2][0][:2], k, *plan[2][0][3:]))
        if price < best[0]:
            best = (price, whole[1], layouts)
    if best[0] > _LEAST[0] * least + _LEAST[1] and (reduced := koszul(rest, whole[2][0][4])):
        best = min(best, reduced, key=itemgetter(0))
    return best[1], g, best[2]


def _layout(model: DgaModel, top: int, g: Optional[int], rest: list[int], counted, split=None):
    """The chain layout of g and the generators ``rest``, from their count
    table and totals (``_counts``); any other generator has an empty
    field, as g has.

    The head is the first ``split`` generators of ``rest``.  By default
    the split is read off the count table: of N g-free monomials in all,
    a head of k monomials leaves at least N / k to the tail and has each
    of its entries visited once per block, twice per degree, so the split
    is the one of least N / k + 2 top k, or of N alone without a head,
    where nothing is visited.  A table of N <= 8 top thus takes no head
    (for a head of k >= 2 monomials, N / k + 2 top k >= 2 sqrt(2 top N)
    >= N), and a large one about a degree's worth of tail.  The head and
    the tail are each listed once."""
    counts, heads = counted
    fields = _fields(model, top, rest)
    deg = fields[-1]
    if split is None:
        cost = [heads[-1] // k + 2 * top * k for k in heads]
        cost[0] = heads[-1]
        split = cost.index(min(cost))
    # a head code's weight parity is that of its odd-weight exponents
    odd_bits = sum(1 << fields[i] for i in rest if model.weights[i] % 2)
    codes, _ = _codes(model, fields, rest[:split], top, ())
    head = [(c - (top << deg), top - (c >> deg), (c & odd_bits).bit_count() & 1) for c in codes]
    return _chain(model, top, g, fields, counts, head, rest[split:], _pieces(model, fields, rest))


def _chain(model: DgaModel, top: int, g: Optional[int], fields, counts, head, tail, pieces,
           seeds=None):
    """The chain layout of the given fields, count table and head: the
    codes of the generators ``tail`` (times ``seeds``, see ``_codes``)
    listed once as its tail, by parity and then degree, and the
    differential packed from ``pieces``."""
    deg = fields[-1]
    odd = [i for i in tail if model.weights[i] % 2]
    listed: list[list[int]] = [[] for _ in range(2 * top)]
    for p, codes in enumerate(_codes(model, fields, tail, top, odd, seeds)):
        for code in codes:
            listed[2 * (top - (code >> deg)) + p].append(code)
    g_step = (model.algebra.generators[g].degree, model.weights[g]) if g is not None else (0, 0)
    terms = _packed_terms(model, fields, g, pieces)
    return Layout(top, fields, g_step, counts, head, listed, terms)


def _pure(model: DgaModel, top: int, g: Optional[int], part: list[int], counts):
    """Koszul's test for the generators ``part`` and g, of count table
    ``counts``: (g, or None for the whole table, ``part`` every generator
    but g, whose u lies in |Y| generators only with g; the generators; X;
    Y; the table's count table; C/(u)'s), () if Y is empty, or None
    (module docstring)."""
    gens = model.algebra.generators
    values = [v.terms for v in model.differential.values()]
    index = range(len(gens))
    seen = set().union(*[compress(index, t) for i in part for t in values[i]])
    ys = [i for i in part if gens[i].degree % 2 and values[i] and i not in seen]
    u = [values[y] for y in ys]
    if not ys or any(gens[k].degree % 2 for v in u for t in v for k in compress(index, t)):
        return None if ys else ()
    xs = sorted({k for v in u for t in v if g is None or not t[g] for k in compress(index, t)})
    if len(xs) != len(ys) and g is not None and len(part) == len(gens) - 1:
        xs = sorted({k for v in u for t in v for k in compress(index, t)})
        if len(xs) == len(ys):  # with no g: count g's powers, not carried
            counts, d, w = list(counts), gens[g].degree, model.weights[g] % 2
            for i in range(2 * d, 2 * top):
                counts[i] += counts[(i - 2 * d) ^ w]
            part, g = sorted([*part, g]), None
    if len(xs) != len(ys):
        return None
    # if u is regular, C/(u) has C's g-free cells less y's factor 1 + t^deg y,
    # times 1 - t^deg u_y, of y's weight, for each y
    reduced = list(counts)
    for y in ys:
        d, w = gens[y].degree, model.weights[y] % 2
        for i in range(2 * d, 2 * top):
            reduced[i] -= reduced[(i - 2 * d) ^ w]
        lower = reduced[: max(2 * (top - d - 1), 0)]
        if w:
            lower[::2], lower[1::2] = lower[1::2], lower[::2]
        reduced[2 * d + 2 :] = map(sub, reduced[2 * d + 2 :], lower)
    return g, part, xs, ys, counts, reduced


def _koszul(model: DgaModel, top: int, g: Optional[int], part: list[int], xs, ys, counts):
    """The chain layout of C/(u) for ``_pure``'s g, generators, X, Y and
    count table of C/(u), or None where the Groebner basis shows u not
    regular.  A cell s w's code is w's plus one bit for s in X[0]'s field,
    one per standard monomial (none for H = Q); H's codes seed the listing.
    A term of D(s w) goes through the normal form of its X-part, which
    moves that bit: an entry whose term has an X-part reads w's field only
    for the source whose bit it forbids none of the others, and one of
    D(x), x in X, reads the bit itself."""
    gens = model.algebra.generators
    values = [v.terms for v in model.differential.values()]
    index = range(len(gens))
    rest = [i for i in part if i not in xs and i not in ys]
    # every polynomial here is homogeneous, so its lead in the grevlex order
    # with g last is its term of least exponent of g, then of the last one, ...
    order = itemgetter(*[g] * (g is not None), *[k for k in reversed(index) if k != g])
    basis = _groebner([values[y] for y in ys], order)
    leads = [m for m, _ in basis]
    powers = [min((m[x] for m in leads if m[x] == sum(m)), default=0) for x in xs]
    if not all(powers):
        return None
    std = [(0,) * len(gens)]
    for x, e in zip(xs, powers):
        std = [s[:x] + (k,) + s[x + 1 :] for s in std for k in range(e)]
    std = [s for s in std if not any(all(map(ge, s, m)) for m in leads)]
    wide = len(std) if len(std) > 1 else 0
    fields = tuple(f + wide * (k > xs[0]) for k, f in enumerate(_fields(model, top, rest)))
    deg = fields[-1]
    bit = [1 << (fields[xs[0]] + j) if wide else 0 for j in range(len(std))]
    degrees = [x.degree for x in gens]
    seeds: tuple[list[int], list[int]] = ([], [])  # the codes of H, by weight parity
    for b, s in zip(bit, std):
        if (d := sum(map(mul, s, degrees))) < top:
            seeds[sum(map(mul, s, model.weights)) % 2].append(b + ((top - d) << deg))
    xpart = itemgetter(*xs)
    notx = [int(k not in xs) for k in index]
    where = {xpart(s): j for j, s in enumerate(std)}
    merged: dict[tuple, object] = {}  # pieces of one entry and row summed
    for i in rest + xs:
        mask = (1 << (fields[i + 1] - fields[i])) - 1
        for t, c in values[i].items():
            r = tuple(map(mul, t, notx))  # t less its X-part
            if notx[i] and r == t:  # t leaves s as it is
                key = (i, t, fields[i], mask, -(1 << fields[i]), 0)
                merged[key] = merged.get(key, 0) + c
                continue
            for j, s in enumerate(std):
                if notx[i]:  # read w_i's exponent, of the source s w only
                    read, mult = (fields[i], mask, -(1 << fields[i]) - bit[j], sum(bit) ^ bit[j]), 1
                elif s[i]:  # s[i] (s / x_i) D(x_i), read at the bit of s
                    read, mult = (fields[xs[0]] + j, 1, -bit[j], 0), s[i]
                    s = s[:i] + (s[i] - 1,) + s[i + 1 :]
                else:
                    continue
                shift, width, change, forbid = read
                m = {tuple(map(add, s, map(sub, t, r))): c}  # s times t's X-part
                for n, a in (m if xpart(*m) in where else _normal_form(m, basis, order)).items():
                    key = (i, tuple(map(add, r, map(mul, n, notx))), shift, width,
                           change + bit[where[xpart(n)]], forbid)
                    merged[key] = merged.get(key, 0) + mult * a
    pieces = [(i, t, c, *read) for (i, t, *read), c in merged.items() if c]
    return _chain(model, top, g, fields, counts, [(0, 0, 0)], rest, pieces, seeds)


def _groebner(polys, order) -> list:
    """A Groebner basis of the ideal of the homogeneous polynomials
    ``polys`` ({exponent tuple: coefficient}), as (lead, monic polynomial)
    pairs, where the lead is the term of least ``order``: Buchberger's
    algorithm (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms,
    ch. 2), which skips a pair of coprime leads."""
    basis: list = []
    todo = list(polys)
    while todo:
        p = _normal_form(todo.pop(), basis, order) if basis else todo.pop()
        if p:
            lead = min(p, key=order)
            if p[lead] != 1:
                c = Fraction(p[lead])
                p = {t: _exact(a / c) for t, a in p.items()}
            for m, q in basis:
                if any(map(min, lead, m)):
                    both = tuple(map(max, lead, m))
                    spoly: dict = {}
                    _subtract(spoly, p, tuple(map(sub, both, lead)), -1)
                    _subtract(spoly, q, tuple(map(sub, both, m)), 1)
                    todo.append(spoly)
            basis.append((lead, p))
    return basis


def _normal_form(p: dict, basis: list, order) -> dict:
    """The remainder of the polynomial p on division by ``basis``
    (``_groebner``): no term of it is a multiple of a lead."""
    p, out = dict(p), {}
    while p:
        n = min(p, key=order)
        for m, q in basis:
            if all(map(ge, n, m)):
                _subtract(p, q, tuple(map(sub, n, m)), p[n])
                break
        else:
            out[n] = p.pop(n)
    return out


def _subtract(p: dict, q: dict, shift: tuple, f) -> None:
    """p -= f x^shift q, in place."""
    for t, c in q.items():
        t = tuple(map(add, t, shift))
        v = p.get(t, 0) - f * c
        if v:
            p[t] = v
        else:
            del p[t]


def _factors(model: DgaModel, g: Optional[int], rest: list[int]) -> list[list[int]]:
    """The generators ``rest`` (all but g) as the connected components of
    the graph with an edge x - y wherever y appears in D(x), each in
    generator order, ordered by their first generators."""
    index = range(len(model.algebra.generators))
    parts: list[int] = []  # disjoint sets of generators, as bits
    for i, value in zip(index, model.differential.values()):
        if i == g:
            continue
        part = 1 << i
        for t in value.terms:
            for k in compress(index, t):
                if k != g:
                    part |= 1 << k
        for p in [p for p in parts if p & part]:
            parts.remove(p)
            part |= p
        parts.append(part)
    return sorted([i for i in rest if p >> i & 1] for p in parts)


def _shape(model: DgaModel, part: list[int]) -> tuple:
    """The key of a factor's complex: for each generator of ``part``, in
    order, its degree, its weight and its value's terms on the exponents
    of the part's generators, with their coefficients.  A term lies in
    the part and g, and its degree fixes its exponent of g.  Every other
    generator has an empty field (``_fields``), so the codes, the Koszul
    signs, the masks and the scale L of two parts of one key agree, and
    so do their complexes; ``_bars`` reads no field position."""
    gens = model.algebra.generators
    values = [v.terms for v in model.differential.values()]
    pick = itemgetter(*part)
    # a coefficient as two ints: hashing a Fraction costs more than the rest
    terms = [{(pick(t), c.numerator, c.denominator) for t, c in values[i].items()} for i in part]
    return tuple((gens[i].degree, model.weights[i], frozenset(ts)) for i, ts in zip(part, terms))


def _counts(shape: list[tuple[int, int]], top: int) -> tuple[list[int], list[int]]:
    """The count table of the monomials below degree ``top`` in generators
    of the given (degree, weight parity), at 2 * degree + parity, and the
    number of those monomials in the first k generators, for k = 0, 1, ..."""
    counts = [1] + [0] * (2 * top - 1)
    totals = [1]
    for d, w in shape:
        if d % 2:  # times 1 + t^d of parity w: each count takes the lower one once
            lower = counts[: max(2 * (top - d), 0)]
            if w:
                lower[::2], lower[1::2] = lower[1::2], lower[::2]
            counts[2 * d :] = map(add, counts[2 * d :], lower)
        else:  # times 1 / (1 - t^d) of parity w: upward, each takes the updated lower one
            for i in range(2 * d, 2 * top):
                counts[i] += counts[(i - 2 * d) ^ w]
        totals.append(sum(counts))
    return counts, totals


def _codes(model: DgaModel, fields: tuple[int, ...], which: list[int], top: int, odd, seeds=None):
    """The codes of the monomials below degree ``top`` in the generators
    ``which``, each with top less its degree in the degree field, in two
    lists by the parity of their exponents of the generators ``odd`` (the
    first holds them all when ``odd`` is empty), each in ascending
    lexicographic order.  The codes with e factors of a generator are
    those with e - 1 that have room for one more, so no code is read
    twice for one exponent.  ``seeds``, two lists of codes by parity,
    multiplies them all (by default the unit alone)."""
    gens = model.algebra.generators
    deg = fields[-1]
    even, other = seeds or ([top << deg], [])
    for i in reversed(which):  # the first generator varies slowest
        d = gens[i].degree
        unit = (1 << fields[i]) - (d << deg)
        floor = (d + 1) << deg  # the least code with room for a factor of degree d
        flip = int(i in odd)
        k0, k1 = even, other
        even, other = even[:], other[:]
        for e in range(1, 2 if d % 2 else top // d + 1):
            k0 = [code + unit for code in k0 if code >= floor]
            k1 = [code + unit for code in k1 if code >= floor]
            if not (k0 or k1):
                break
            if e & flip:
                even += k1
                other += k0
            else:
                even += k0
                other += k1
    return even, other


def _block(layout: Layout, n: int, p: int) -> list[int]:
    """The codes of the g-free monomials of block p of degree n < top, in
    basis order: each head monomial's offset on the tail's codes of the
    remaining degree and parity."""
    head, tail = layout.head, layout.tail
    return [hc + tc for hc, dh, ph in head if dh <= n for tc in tail[2 * (n - dh) + (p ^ ph)]]


def _fields(model: DgaModel, top: int, keep) -> tuple[int, ...]:
    """``Layout.fields`` through degree ``top``, with an empty field for
    each generator not in ``keep``."""
    width = [
        0 if i not in keep else 1 if d % 2 else max(1, (top // d).bit_length())
        for i, (_, d) in enumerate(model.algebra.generators)
    ]
    return tuple(accumulate(width, initial=0))


def _pieces(model: DgaModel, fields: tuple[int, ...], which) -> list[tuple]:
    """The terms of the values of the generators ``which`` as
    ``_packed_terms`` takes them: each term c t of D(g_i) read at g_i's
    field, and landing on the source less g_i times t."""
    values = [v.terms for v in model.differential.values()]
    return [
        (i, t, c, fields[i], (1 << (fields[i + 1] - fields[i])) - 1, -(1 << fields[i]), 0)
        for i in which
        for t, c in values[i].items()
    ]


def _packed_terms(model: DgaModel, fields: tuple[int, ...], g: Optional[int], pieces):
    """``Layout.terms`` for the given fields, from ``pieces``: each
    (i, t, c, shift, mask, change, forbid) is a term of D(g_i), entered as
    e c t for a source whose bits at (shift, mask) read e and that has no
    bit of ``forbid``, on the row of the source plus the fields of t plus
    ``change`` (by the Leibniz rule, e is g_i's exponent and the change
    takes one g_i away).  g, even and closed, has no entry, and its factors
    in a term change the g-free degree, not the code."""
    gens, odd = model.algebra.generators, model.algebra._odd
    scale = lcm(*[piece[2].denominator for piece in pieces])
    odd_bits = sum(1 << f for f, end, o in zip(fields, fields[1:], odd) if o and end > f)
    below = [(1 << f) - 1 for f in fields]  # the bits of the generators before each
    down = -1 << fields[-1]  # D raises the degree by one, so the degree field falls
    # a factor of g is read off its empty field and raises the degree field
    g_step = 0 if g is None else (gens[g].degree << fields[-1]) - (1 << fields[g])
    groups: dict[int, list[tuple[int, ...]]] = {}
    required: dict[int, int] = {}  # of each group, the fields its entries read
    for i, t, c, shift, mask, change, forbid in pieces:
        others = list(map(mul, t, odd))  # t's odd factors but g_i, as 0 or 1 each
        others[i] = 0
        step = sum(map(lshift, t, fields)) + down + change
        if g_step:
            step += t[g] * g_step
        # 1 is D's degree shift in the Leibniz sign (-1)^(shift * P[i])
        signs = reduce(xor, compress(below, others), below[i] if (1 + sum(others)) % 2 else 0)
        c = c.numerator * (scale // c.denominator)  # an integer, as scale clears c
        c = -c if odd[i] and sum(others[i:]) % 2 else c
        entry = (shift, mask, c, forbid | sum(map(lshift, others, fields)), signs & odd_bits)
        groups.setdefault(step, []).append(entry)
        required[step] = required.get(step, 0) | mask << shift
    return tuple([
        (step, required[step], group[0][3] if len(group) == 1 else 0, group)
        for step, group in sorted(groups.items())
    ])


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
    return [_column(table, code) for code in sources]


def _column(table, code: int) -> dict[int, int]:
    """L * D(code), one column of ``integral_columns``."""
    col: dict[int, int] = {}
    for step, required, forbidden, group in table:
        if code & required and not code & forbidden and (v := _entry(group, code)):
            col[code + step] = v
    return col


def _entry(group, code: int) -> int:
    """The entry of L * D(code) on the row of one group of ``Layout.terms``,
    for a code that passes the group's mask test."""
    v = 0
    for shift, mask, c, others, signs in group:
        e = code >> shift & mask
        if e and not code & others:  # else t is absent from m or repeats an odd factor
            v += (-c if (code & signs).bit_count() & 1 else c) * e
    return v


def square_zero_residual(model: DgaModel) -> Optional[tuple[str, Polynomial]]:
    """The first generator x with D(D(x)) != 0, with that residual, or
    None; D∘D is a derivation, so it vanishes once it does on generators.

    Only the generators whose value has a term with a live factor (one of
    nonzero value) are checked, in generator order: for any other x, each
    term t of D(x) is a product of closed generators, so D(t) = 0 by the
    Leibniz rule and D(D(x)) = sum c_t * D(t) = 0.  D is applied twice by
    ``integral_columns`` on codes through the largest generator degree + 2
    that pack every generator (no g), so the residual carries L^2 and each
    of its monomials is the fields of its code.  The sign masks still span
    every odd generator, closed ones too: a closed odd factor of D(x)
    signs the Leibniz terms of the live factors after it."""
    gens = model.algebra.generators
    values = [v.terms for v in model.differential.values()]
    live = list(map(bool, values))  # check the values with a term with a live factor
    check = [i for i, v in enumerate(values) if any(map(any, map(compress, v, repeat(live))))]
    if not check:
        return None
    top = max(model.algebra._degrees) + 2
    every = range(len(gens))
    fields = _fields(model, top, every)
    deg = fields[-1]
    table = _packed_terms(model, fields, None, _pieces(model, fields, every))
    for i in check:
        (once,) = integral_columns(table, [(1 << fields[i]) + ((top - gens[i].degree) << deg)])
        twice: dict[int, int] = {}
        for v, column in zip(once.values(), integral_columns(table, once)):
            for row, c in column.items():
                twice[row] = twice.get(row, 0) + v * c
        if any(twice.values()):
            square = lcm(*[c.denominator for value in values for c in value.values()]) ** 2
            terms = {
                tuple(code >> lo & ((1 << (hi - lo)) - 1) for lo, hi in zip(fields, fields[1:])):
                Fraction(v, square)
                for code, v in twice.items()
            }
            return gens[i].name, Polynomial(model.algebra, terms)
    return None


def _reduce_block(leads, codes: list[int], pivots: dict, expand) -> None:
    """Rank one g-free block's uncleared columns into ``pivots``, in order.
    ``leads`` is ``Layout.terms`` with None for the terms of a group of
    one term, and ``expand`` assembles one column."""
    for code in codes:
        if code in pivots:
            continue  # cleared
        for step, required, forbidden, group in leads:  # _column, up to the lead
            if code & required and not code & forbidden and (group is None or _entry(group, code)):
                break
        else:
            continue  # D(code) = 0
        if code + step in pivots:
            linalg.rank([expand(code)], pivots, expand)
        else:
            pivots[code + step] = code  # an apparent pivot, not assembled


def _rank(layout: Layout) -> tuple[list[int], dict]:
    """Rank the g-free blocks of a chain layout in degree order, block 0
    first, into one pivot dict: the number of new pivots of block p of
    degree n at 2n + p, and the dict, which holds an apparent pivot as its
    source code and is also the clearing set; a row key names a g-free
    part."""
    terms = layout.terms
    # a group of one term that passes its mask test is a nonzero entry
    leads = [(at, req, forb, None if len(group) == 1 else group) for at, req, forb, group in terms]
    expand = partial(_column, terms)
    pivots: dict[int, dict[int, int] | int] = {}
    new = [0] * (2 * layout.top)
    tail = layout.tail if len(layout.head) == 1 else None  # each block one list of it
    for i, count in enumerate(layout.counts):
        if count:
            before = len(pivots)
            _reduce_block(leads, tail[i] if tail else _block(layout, i >> 1, i & 1), pivots, expand)
            new[i] = len(pivots) - before
    return new, pivots


def _bars(layout: Layout) -> dict[tuple[int, int, int], int]:
    """The cohomology of a chain layout's complex below degree top as a
    Q[g]-module, a barcode {(degree, parity, length): multiplicity} read
    off ``_rank``'s pivots (Zomorodian and Carlsson, Computing persistent
    homology, 2005).  Bar (d, p, a) is Q[g]/g^a z for a class z of degree
    d and weight parity p, so g^j z lies in degree d + j deg g with parity
    p + j weight(g); a free bar has length top.  A key z of degree d set by
    a column of degree n is the bar of length (n + 1 - d) / deg g (none
    when that is 0), and a cell that is neither a key nor the source of a
    new pivot a free bar.  So a cell whose killing column lies in degree
    top or more reads free: a bar that ends past top, in degree top + 1 or
    more."""
    top, deg = layout.top, layout.fields[-1]
    step, dw = layout.g_step[0], layout.g_step[1] % 2
    new, pivots = _rank(layout)
    free = list(map(sub, layout.counts, new))
    bars: dict[tuple[int, int, int], int] = {}
    keys = iter(pivots)  # in insertion order, block by block
    for i, k in enumerate(new):
        for z in islice(keys, k):
            d = top - (z >> deg)
            if d == top:
                continue  # a row of degree top, not a cell
            a = (i // 2 + 1 - d) // step if step else 0
            j = 2 * d + (i & 1 ^ a & dw)  # g^a z lies in the column's block
            free[j] -= 1
            if a:
                bars[d, j & 1, a] = bars.get((d, j & 1, a), 0) + 1
    for j, m in enumerate(free):
        if m:
            bars[j >> 1, j & 1, top] = m
    return bars


def _fold(top: int, step: int, dw: int, xs: dict, ys: dict) -> dict[tuple[int, int, int], int]:
    """The barcode of the tensor product over Q[g] of two complexes of free
    Q[g]-modules, from theirs (``_bars``), below degree top: by the Kunneth
    theorem over the graded PID Q[g] (Weibel 3.6.3), bars x (d, p, a) and
    y (e, q, b) give a tensor bar of length min(a, b) at degree d + e, and
    when both are finite a Tor bar of length min(a, b) at degree
    d + e + max(a, b) deg g - 1, whose parity also adds max(a, b) weight(g).
    Without g (step 0) every bar is free and this is the plain Kunneth
    theorem over Q.  A bar whose end d + a deg g lies past top is kept as
    free: it has the same classes below top.

    So no factor needs a margin past the cap N = top.  Ranked to N, a
    factor sets exactly the bars of its columns of degree below N, and a
    bar whose column lies in degree N or more ends past N and reads free:
    every bar that starts below N is exact or ends past N, both in the
    truncated barcode and in the exact one.  Folding keeps that.  The
    tensor bar of x and y ends at the lesser of end(x) + e and end(y) + d,
    exact or past N as those are, and the Tor bar starts at the greater
    of the two less 1, which is N or more once either end is past N (and
    does not exist when either bar is free).  So the classes below N, which
    ``_ends`` counts, are those of the exact fold."""
    out: dict[tuple[int, int, int], int] = {}
    items = sorted(ys.items())
    if xs is ys:  # each unordered pair once, twice over off the diagonal
        twice = [(bar, 2 * k) for bar, k in items]
        rows = ((x, items[n : n + 1] + twice[n + 1 :]) for n, x in enumerate(items))
    else:
        rows = ((x, items) for x in xs.items())
    for ((dx, px, a), m), ys in rows:
        for (dy, py, b), k in ys:
            d = dx + dy
            if d >= top:
                break
            lo, hi = (a, b) if a < b else (b, a)
            bar = (d, px ^ py, lo if d + lo * step <= top else top)
            out[bar] = out.get(bar, 0) + m * k
            d += hi * step - 1
            if hi < top and d < top:  # both finite: the Tor term
                bar = (d, px ^ py ^ hi & dw, lo if d + lo * step <= top else top)
                out[bar] = out.get(bar, 0) + m * k
    return out


def _power(fold, bars: dict, k: int) -> dict:
    """The barcode of k factors of one barcode, by squaring: ``fold`` of
    a barcode with itself visits each unordered pair of bars once."""
    if k == 1:
        return bars
    half = _power(fold, fold(bars, bars), k // 2)
    return fold(half, bars) if k % 2 else half


def _ends(bars: dict, top: int, step: int, dw: int) -> list[int]:
    """At 2n + p, the bars of a barcode that start in degree n < top with
    parity p, less those that end there: carried along g, the dimension of
    the cohomology there."""
    out = [0] * (2 * top)
    for (d, p, a), m in bars.items():
        out[2 * d + p] += m
        if a < top and d + a * step < top:
            out[2 * (d + a * step) + (p ^ a & dw)] -= m
    return out


def eigen_table(model: DgaModel, cap: int) -> EigenTable:
    """Per-degree cochain dimension, betti number and (when the model has
    an involution) the eigenspace split, for degrees 0..cap-1, as the
    table's columns: by the chain formula on ``build_layout``'s one layout
    of multiplicity 1, else off their folded barcodes.  A cap over MAX_CAP
    is refused."""
    if cap < 2:
        raise ValueError("cap must be >= 2")
    if cap > MAX_CAP:
        raise BudgetExceededError(f"cap {cap} is over the largest cap, {MAX_CAP}")
    counts, layouts = build_layout(model, cap)
    step, dw = layouts[0][0].g_step[0], layouts[0][0].g_step[1] % 2
    # block p of degree n at 2n + p: its g-free monomials, and its cohomology's gain over its
    # predecessor's along g (by the chain formula, cells less new pivots on it and the one before)
    dims = list(counts)
    if len(layouts) > 1 or layouts[0][1] > 1:
        fold = partial(_fold, cap, step, dw)
        bars = reduce(fold, [_power(fold, _bars(layout), k) for layout, k in layouts])
        betti = _ends(bars, cap, step, dw)
    else:  # one chain layout: of the table, or of C/(u) for the Koszul route
        ((chain, _),) = layouts
        new, _ = _rank(chain)
        betti = list(map(sub, chain.counts, map(add, new, [0, 0, *new])))
    if step:  # carry along g: each block adds its predecessor's
        for i in range(2 * step, 2 * cap):
            j = (i - 2 * step) ^ dw
            dims[i] += dims[j]
            betti[i] += betti[j]
    plus, minus = betti[::2], betti[1::2]
    eigen = (plus, minus) if model.involution else ()
    return EigenTable(cap, map(add, dims[::2], dims[1::2]), map(add, plus, minus), *eigen)
