"""Shared helpers for the test suite: bundled-model loading, random
minimal model generation, and independent oracle code paths that the main
library must agree with."""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from loopinv import cohomology
from loopinv.algebra import GradedAlgebra, Monomial, Polynomial
from loopinv.cohomology import (
    EigenTable,
    Layout,
    NoInvolutionError,
    _block,
    eigen_table,
    integral_columns,
)
from loopinv.linalg import rank as sparse_rank
from loopinv.models import DgaModel, MinimalModel, loop_model, parse_model
from loopinv.series import parse_expr

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
Vector = tuple[Fraction, ...]


def load_model(name: str) -> MinimalModel:
    return parse_model((MODELS_DIR / name).read_text(encoding="utf-8"))


def sphere_bundle_model(d: int) -> MinimalModel:
    """Unit tangent bundle of S^{2d}: one exterior generator of degree
    4d-1, zero differential."""
    alg = GradedAlgebra([("x", 4 * d - 1)])
    return MinimalModel(alg, {})


# ---------------------------------------------------------------------
# independent oracles (used only by tests)


@dataclass(frozen=True)
class Derivation:
    """A graded derivation of degree ``shift`` by its values on generators:
    a model's differential (shift +1, see ``differential``) or the
    suspension s of the loop model (shift -1).  ``values`` ends up holding
    every generator, in generator order; a missing value is zero."""

    algebra: GradedAlgebra
    shift: int
    values: Mapping[str, Polynomial]

    def __post_init__(self):
        alg = self.algebra
        for name, p in self.values.items():
            target = alg.degree_of(name) + self.shift
            if p.algebra != alg or not p.is_homogeneous_of(target):
                raise ValueError(f"value for {name} is not homogeneous of degree {target}")
        object.__setattr__(self, "values", {x: self.values.get(x) or alg.zero() for x in alg.names})


def differential(model: DgaModel) -> Derivation:
    """The differential of a model as a shift +1 Derivation."""
    return Derivation(model.algebra, 1, model.differential)


class AlgebraMap:
    """Degree-preserving algebra endomorphism, determined by generator
    values and extended multiplicatively through Polynomial products.
    Generators missing from ``values`` are fixed.  The general form of
    the involution, which loopinv keeps as the sign (-1)^weight."""

    __slots__ = ("algebra", "_values")

    def __init__(self, algebra: GradedAlgebra, values: Mapping[str, Polynomial]):
        self.algebra = algebra
        clean: dict[str, Polynomial] = {}
        for name, poly in values.items():
            target = algebra.degree_of(name)
            if poly.algebra != algebra:
                raise ValueError(f"value for {name} lives in a different algebra")
            if not poly.is_homogeneous_of(target):
                raise ValueError(
                    f"value for {name} must be homogeneous of degree {target}, got {poly}"
                )
            clean[name] = poly
        self._values = clean

    def of_generator(self, name: str) -> Polynomial:
        self.algebra.index(name)
        value = self._values.get(name)
        return value if value is not None else self.algebra.gen(name)

    def __call__(self, p: Polynomial) -> Polynomial:
        if p.algebra != self.algebra:
            raise ValueError("polynomial lives in a different algebra")
        alg = self.algebra
        out = alg.zero()
        for mono, coeff in p.terms.items():
            term = alg.unit()
            for i, e in enumerate(mono):
                if e:
                    img = self.of_generator(alg.generators[i].name)
                    for _ in range(e):
                        term = term * img
                    if not term:
                        break
            out = out + term.scale(coeff)
        return out


def involution_map(model: DgaModel) -> Optional[AlgebraMap]:
    """The model's involution as an algebra map built from its generator
    weights (each generator of odd weight goes to minus itself), or None."""
    if not model.involution:
        return None
    alg = model.algebra
    return AlgebraMap(
        alg,
        {g.name: alg.gen(g.name).scale(-1) for g, w in zip(alg.generators, model.weights) if w % 2},
    )


def product_derivation(d: Derivation, p: Polynomial) -> Polynomial:
    """d(p) by the Polynomial-product route, the oracle of the Leibniz rule
    that ``cohomology.integral_columns`` applies on packed codes and of the
    suspension written out in ``models._free_loop``: each Leibniz term of
    each monomial is the product of three Polynomials, sign * mult * left,
    d(g_i) and right, and the terms are added as Polynomials."""
    alg = d.algebra
    gens = alg.generators
    odd_shift = d.shift % 2 == 1
    out = alg.zero()
    for mono, coeff in p.terms.items():
        prefix_degree = 0
        for i, e in enumerate(mono):
            if e:
                g = gens[i]
                dg = d.values[g.name]
                if dg:
                    sign = -1 if odd_shift and prefix_degree % 2 else 1
                    mult = e if g.degree % 2 == 0 else 1
                    left = tuple(
                        (mono[j] if j < i else e - 1 if j == i else 0) for j in range(len(mono))
                    )
                    right = tuple((mono[j] if j > i else 0) for j in range(len(mono)))
                    out = out + alg.poly({left: sign * mult * coeff}) * dg * alg.poly({right: 1})
                prefix_degree += e * g.degree
    return out


def check_differential(d: Derivation) -> Optional[tuple[str, Polynomial]]:
    """The first generator g, in generator order, with d(d(g)) != 0 and
    that residual, or None, by ``product_derivation``: the oracle of
    ``cohomology.square_zero_residual``."""
    if d.shift != 1:
        raise ValueError(f"differential must have degree shift +1, got {d.shift}")
    for name, value in d.values.items():
        residual = product_derivation(d, value)
        if residual:
            return name, residual
    return None


# The general eigen route: dense matrices over Q assembled through
# product_derivation (Polynomial products with Fraction coefficients),
# Gauss-Jordan elimination over Fractions, kernel bases, cohomology
# representatives, and the matrix of the induced involution on them.  It
# shares neither assembly nor elimination with loopinv.cohomology and
# loopinv.linalg, and assumes nothing about how the involution acts on
# monomials or which grading the differential preserves, so the
# block-rank tables of loopinv.cohomology must agree with it.


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


# Dense fraction-free integer elimination: the rank loopinv computed
# before its sparse elimination, kept as a second reference.


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


def echelon_rank(m: QMatrix) -> int:
    """Rank over Q, computed exactly."""
    return len(_echelon(_int_rows(m), m.cols))


def _coords(poly: Polynomial, index: dict[Monomial, int], dim: int) -> list:
    v = [0] * dim
    for mono, coeff in poly.terms.items():
        v[index[mono]] = coeff
    return v


def weight(model: DgaModel, mono: Monomial) -> int:
    """The exponent-weighted sum of the generator weights of a monomial."""
    return sum(e * w for e, w in zip(mono, model.weights))


def blocks(model: DgaModel, n: int) -> dict[int, tuple[Monomial, ...]]:
    """The whole degree-n monomial basis split by weight parity (the
    involution's eigenvalue (-1)^weight), each block in basis order."""
    split: dict[int, list[Monomial]] = {}
    for mono in per_degree_monomial_basis(model.algebra, n):
        split.setdefault(weight(model, mono) % 2, []).append(mono)
    return {k: tuple(v) for k, v in split.items()}


def cochain_matrix(model: DgaModel, n: int, block: Optional[int] = None) -> QMatrix:
    """Dense matrix of D from degree n to degree n+1 (or on one block),
    column j holding the coordinates of D(source[j]) computed by
    ``product_derivation``."""
    alg = model.algebra
    if block is None:
        source = per_degree_monomial_basis(alg, n)
        target = per_degree_monomial_basis(alg, n + 1)
    else:
        source, target = blocks(model, n).get(block, ()), blocks(model, n + 1).get(block, ())
    index = {mono: i for i, mono in enumerate(target)}
    d = differential(model)
    images = (product_derivation(d, alg.poly({mono: 1})) for mono in source)
    cols = [_coords(image, index, len(target)) for image in images]
    return QMatrix.from_columns(cols, rows=len(target))


def algebra_generating_function(algebra, cap: int) -> tuple[int, ...]:
    """Expansion of prod_even 1/(1-t^deg) * prod_odd (1+t^deg): the
    coefficient at n equals the number of degree-n monomials."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    coeffs = [0] * cap
    coeffs[0] = 1
    for g in algebra.generators:
        d = g.degree
        if d % 2 == 0:
            for n in range(d, cap):
                coeffs[n] += coeffs[n - d]
        else:
            for n in range(cap - 1, d - 1, -1):
                coeffs[n] += coeffs[n - d]
    return tuple(coeffs)


def closed_form(text: str, cap: int) -> tuple[int, ...]:
    """Coefficients 0..cap-1 of a closed form written as the ``series``
    command reads it, e.g. ``"t^3/(1-t^4) + t^11/(1-t^12)"``."""
    return parse_expr(text).expand(cap).coeffs


class OracleLayout(NamedTuple):
    """``cohomology.Layout`` as it was while it listed every g-free code of
    a table: ``free[n]`` maps each block (weight parity) of degree n < top
    that has g-free monomials to the list of their codes, in basis order.
    The other fields are those of ``build_layout``."""

    top: int
    fields: tuple[int, ...]
    g_step: tuple[int, int]
    free: tuple[dict[int, list[int]], ...]
    terms: tuple


def oracle_layout(model: DgaModel, top: int) -> OracleLayout:
    """The g-free codes of every degree below ``top``, in one pass over
    the generators other than g, each bucketed into its degree and block
    by its bits: ``cohomology.build_layout`` as it was before it counted
    blocks and enumerated them one at a time, with its fields, g and
    packed differential."""
    layout = chain_layout(model, top)
    fields, g = layout.fields, closed_index(layout)
    gens = model.algebra.generators
    deg = fields[-1]
    codes = [top << deg]
    for i in reversed([i for i in range(len(gens)) if i != g]):
        d = gens[i].degree
        unit = (1 << fields[i]) - (d << deg)
        steps = [(e * unit, (e * d + 1) << deg) for e in range(2 if d % 2 else top // d + 1)]
        codes = [code + step for step, floor in steps for code in codes if code >= floor]
    odd_weight = sum(1 << fields[i] for i, w in enumerate(model.weights) if w % 2 and i != g)
    free: tuple[dict[int, list[int]], ...] = tuple({} for _ in range(top))
    for code in codes:
        free[top - (code >> deg)].setdefault((code & odd_weight).bit_count() & 1, []).append(code)
    return OracleLayout(top, fields, layout.g_step, free, layout.terms)


def enumerated_layout(model: DgaModel, top: int, split: Optional[int] = None) -> OracleLayout:
    """``chain_layout`` at the given split, each nonempty block enumerated
    by ``cohomology._block`` as eigen_table enumerates it, in the form of
    ``oracle_layout``."""
    layout = chain_layout(model, top, split)
    free = tuple(
        {p: codes for p in (0, 1) if (codes := list(_block(layout, n, p)))} for n in range(top)
    )
    return OracleLayout(top, layout.fields, layout.g_step, free, layout.terms)


def closed_index(layout: Layout | OracleLayout) -> Optional[int]:
    """The index of g, the one generator whose field in the layout is
    empty, or None."""
    fields = layout.fields
    return min((i for i, (lo, hi) in enumerate(zip(fields, fields[1:])) if lo == hi), default=None)


def decode(layout: Layout | OracleLayout, code: int, degree: Optional[int] = None) -> Monomial:
    """The g-free monomial z with the given packed code, as a full
    exponent tuple read through the fields of the layout that made the
    code, or with a degree, g^c * z for the c that makes up the
    difference to the degree of z, which the code's top field holds as
    the layout's top less that degree."""
    fields = layout.fields
    mono = [code >> lo & ((1 << (hi - lo)) - 1) for lo, hi in zip(fields, fields[1:])]
    g = closed_index(layout)
    if degree is not None and g is not None:
        c, rest = divmod(degree - layout.top + (code >> fields[-1]), layout.g_step[0])
        if c < 0 or rest:
            raise AssertionError(f"code {code} has no g-power of degree {degree}")
        mono[g] = c
    return tuple(mono)


def _predecessor(layout: Layout | OracleLayout, n: int, block: int) -> Optional[tuple[int, int]]:
    """The (degree, block) that multiplication by g maps onto (n, block),
    empty or not, or None; a block is a weight parity."""
    step, dw = layout.g_step
    if not step or n < step:
        return None
    return n - step, (block - dw) % 2


def chain_basis(layout: OracleLayout, n: int, block: int) -> tuple[Monomial, ...]:
    """The basis of one block of degree n < layout.top as full monomials,
    as loopinv lays it out along g: g times the basis of the predecessor
    block, then the block's own g-free monomials; () for an empty block."""
    head: tuple[Monomial, ...] = ()
    prev = _predecessor(layout, n, block)
    if prev is not None:
        g = closed_index(layout)
        head = tuple(m[:g] + (m[g] + 1,) + m[g + 1 :] for m in chain_basis(layout, *prev))
    return head + tuple(decode(layout, z) for z in layout.free[n].get(block, ()))


def chain_block_entries(model: DgaModel, layout: OracleLayout, n: int, block: int) -> dict:
    """{(target monomial, source monomial): entry} of L * D on one whole
    block of degree n, read off loopinv's integral_columns: the block's
    g-free columns y, and as the column of each g^a * y the g-free column
    y of the a-th predecessor along the chain, all with each row key
    decoded into the monomial of degree n+1 that it names, which must lie
    in the block of degree n+1 (from ``blocks``, since the layout holds no
    code of degree top)."""
    rows = set(blocks(model, n + 1).get(block, ()))
    out = {}
    at = (n, block)
    while at is not None:
        free = layout.free[at[0]].get(at[1], ())
        for y, col in zip(free, integral_columns(layout.terms, free), strict=True):
            for key, v in col.items():
                target = decode(layout, key, n + 1)
                if target not in rows:
                    raise AssertionError(f"row key {key} of {at} leaves the block")
                out[target, decode(layout, y, n)] = v
        at = _predecessor(layout, *at)
    return out


def eager_pivots(model: DgaModel, cap: int) -> dict[int, dict[int, int]]:
    """The pivot dict that ranks a table along g, by the eager route that
    ``cohomology.eigen_table`` took before it held apparent pivots as
    source codes: block by block in degree order, every g-free column whose
    code is not a key of the dict (not cleared) is assembled in full, and
    then the block's columns are reduced by ``linalg.rank``, so that every
    pivot is held as its primitive vector."""
    layout = oracle_layout(model, cap)
    pivots: dict[int, dict[int, int]] = {}
    for level in layout.free:
        for codes in level.values():
            uncleared = [code for code in codes if code not in pivots]
            sparse_rank(integral_columns(layout.terms, uncleared), pivots)
    return pivots


def product_model(*models: MinimalModel) -> MinimalModel:
    """The minimal model of a product of spaces, the tensor product of
    their models, with generator x of the k-th model renamed x_k."""
    width = sum(len(m.algebra.generators) for m in models)
    alg = GradedAlgebra(
        [(f"{x.name}_{k}", x.degree) for k, m in enumerate(models) for x in m.algebra.generators]
    )
    values, before = {}, 0
    for k, m in enumerate(models):
        n = len(m.algebra.generators)
        for x, v in zip(m.algebra.generators, m.differential.values()):
            pad = (0,) * (width - before - n)
            values[f"{x.name}_{k}"] = Polynomial(
                alg, {(0,) * before + t + pad: c for t, c in v.terms.items()}
            )
        before += n
    return MinimalModel(alg, values)


def _g_and_counts(model: DgaModel, top: int):
    """g by ``cohomology._plan``'s rule (the closed even generator of
    lowest degree, the first on ties, or None) and a function that counts
    a list of generators (``cohomology._counts``) below ``top``."""
    gens = model.algebra.generators
    values = model.differential.values()
    closed = [i for i, (x, v) in enumerate(zip(gens, values)) if x.degree % 2 == 0 and not v]
    g = min(closed, key=lambda i: gens[i].degree, default=None)

    def count(which: list[int]):
        return cohomology._counts([(gens[i].degree, model.weights[i] % 2) for i in which], top)

    return g, count


def chain_layout(model: DgaModel, top: int, split: Optional[int] = None) -> Layout:
    """The chain layout of the whole table below ``top``, whatever
    ``cohomology._plan`` says, at the given split of the generators other
    than g (``cohomology._layout``'s own choice by default)."""
    g, count = _g_and_counts(model, top)
    rest = [i for i in range(len(model.algebra.generators)) if i != g]
    return cohomology._layout(model, top, g, rest, count(rest), split)


def factor_layout(model: DgaModel, top: int) -> tuple[list[int], list[tuple[Layout, int]]]:
    """The table below ``top`` laid out by factors
    (``cohomology._factors``), whatever ``cohomology._plan`` says, also
    for a model of one factor, as ``build_layout`` returns it: the table's
    count table and one chain layout per factor, each of multiplicity 1
    (one of g alone for a model with no other generator).  It lays out
    every factor, isomorphic ones too, so it stays the unshared oracle for
    ``build_layout``'s shared factors."""
    g, count = _g_and_counts(model, top)
    rest = [i for i in range(len(model.algebra.generators)) if i != g]
    parts = cohomology._factors(model, g, rest) or [rest]
    return count(rest)[0], [(cohomology._layout(model, top, g, p, count(p)), 1) for p in parts]


def product_layout(model: DgaModel, top: int) -> tuple[list[int], list[tuple[Layout, int]]]:
    """The table below ``top`` by the product route, whatever
    ``cohomology._plan`` says, as ``build_layout`` returns it: the table's
    count table and one chain layout per ``cohomology._shape`` of its
    factors, with the number of factors of that shape."""
    g, count = _g_and_counts(model, top)
    rest = [i for i in range(len(model.algebra.generators)) if i != g]
    parts = cohomology._factors(model, g, rest) or [rest]
    shapes = [cohomology._shape(model, p) for p in parts]
    distinct = dict(zip(shapes, parts))  # one part per shape
    layouts = [cohomology._layout(model, top, g, p, count(p)) for p in distinct.values()]
    return count(rest)[0], list(zip(layouts, map(shapes.count, distinct)))


def koszul_layout(model: DgaModel, top: int) -> Optional[tuple[list[int], list]]:
    """The whole table below ``top`` by the Koszul route
    (``cohomology._koszul``), whatever ``cohomology._plan`` says, as
    ``build_layout`` returns it: the table's count table and the one chain
    layout of C/(u), with no g where u lies in g too (then the count table
    counts every monomial); None where the route does not apply or u is
    not regular."""
    g, count = _g_and_counts(model, top)
    rest = [i for i in range(len(model.algebra.generators)) if i != g]
    pure = cohomology._pure(model, top, g, rest, count(rest)[0])
    if not pure:
        return None
    h, whole, xs, ys, counts, reduced = pure
    reduced_layout = cohomology._koszul(model, top, h, whole, xs, ys, reduced)
    return None if reduced_layout is None else (counts, [(reduced_layout, 1)])


def ranked(model: DgaModel, layout: Layout | tuple) -> EigenTable:
    """``eigen_table`` of the model at the layout's top, with
    ``cohomology.build_layout`` patched for this one call to return the
    given chain layout of the whole table, or (counts, layouts) as
    ``build_layout`` returns them: the table by whichever route the
    layout takes."""
    table = (layout.counts, [(layout, 1)]) if isinstance(layout, Layout) else layout
    real = cohomology.build_layout
    cohomology.build_layout = lambda model, top: table
    try:
        return eigen_table(model, table[1][0][0].top)
    finally:
        cohomology.build_layout = real


def folded_barcode(model: DgaModel, top: int) -> dict:
    """The barcode of a table below ``top`` by the product route: each
    factor's barcode (``cohomology._bars``), folded by
    ``cohomology._fold`` into that of Q[g] (one free bar at degree 0)."""
    _, layouts = factor_layout(model, top)
    step, dw = layouts[0][0].g_step[0], layouts[0][0].g_step[1] % 2
    return functools.reduce(
        functools.partial(cohomology._fold, top, step, dw),
        [cohomology._bars(layout) for layout, _ in layouts],
        {(0, 0, top): 1},
    )


def gysin_betti(bars: dict, top: int) -> list[int]:
    """The betti numbers below ``top`` of a loop model from the barcode of
    its Borel model over Q[alpha], alpha of degree 2, by the Gysin
    sequence 0 -> BM -(alpha)-> BM -> M -> 0: dim H^n(M) is the number of
    bars that start in degree n plus the number of finite bars whose last
    class alpha^(a-1) x lies in degree n - 1.  A bar of length ``top`` is
    free, as in ``cohomology._bars``."""
    out = [0] * top
    for (d, _, a), m in bars.items():
        out[d] += m
        if a < top and d + 2 * a - 1 < top:
            out[d + 2 * a - 1] += m
    return out


def _tuple_terms(d: Derivation, drop: Optional[int]):
    """(odd, table, live), with every index and exponent tuple leaving out
    the coordinate of ``drop``: the parity of each generator; per
    generator, one (step, coefficient, others, flips) per term t of
    L * D(g_i), where L is the least common multiple of every coefficient
    denominator of the generator values, step is the exponent change
    t - g_i, others the odd generators of t other than g_i, and flips the
    number of those after g_i when g_i is odd; and the generators with a
    nonzero value."""
    gens = d.algebra.generators
    values = {name: p for name, p in d.values.items() if p}
    if drop is not None and (gens[drop].degree % 2 or gens[drop].name in values):
        raise ValueError(f"cannot drop {gens[drop].name}: it is not even and closed")
    scale = lcm(*(c.denominator for p in values.values() for c in p.terms.values()))
    keep = [j for j in range(len(gens)) if j != drop]
    odd = [gens[j].degree % 2 == 1 for j in keep]
    table = []
    for i, j in enumerate(keep):
        terms = []
        for full, c in (values[gens[j].name].terms.items() if gens[j].name in values else ()):
            t = [full[k] for k in keep]
            others = tuple(k for k, b in enumerate(t) if b and odd[k] and k != i)
            step = tuple(b - (k == i) for k, b in enumerate(t))
            flips = sum(1 for k in others if k > i) if odd[i] else 0
            terms.append((step, int(c * scale), others, flips))
        table.append(tuple(terms))
    live = tuple(i for i, terms in enumerate(table) if terms)
    return tuple(odd), tuple(table), live


def tuple_columns(
    d: Derivation, sources: Iterable[Monomial], index: dict[Monomial, int], drop: Optional[int]
) -> list[dict[int, int]]:
    """The exponent-tuple route of cochain assembly, the oracle of
    ``cohomology.integral_columns``: for each source monomial m, L * D(m)
    as a sparse integer column {index[monomial]: coefficient}.

    With ``drop`` the index of an even generator g with zero differential,
    sources and keys are exponent tuples without g's coordinate, and the
    term g^c * z of L * D(m) lands on the key z.  With P[k] the number of
    odd factors of m before generator k, the Leibniz sign of the i-th term
    is (-1)^(shift * P[i]); reordering left * t * right into canonical
    order moves each odd factor j of t past the odd factors of m strictly
    between j and i, which is P[j] + P[i] (plus one when j > i and g_i is
    odd) modulo 2, and the product vanishes when t repeats an odd factor
    of m."""
    odd, table, live = _tuple_terms(d, drop)
    odd_shift = d.shift % 2
    columns = []
    for mono in sources:
        prefix = []
        p = 0
        for e, o in zip(mono, odd):
            prefix.append(p)
            if e and o:
                p += 1
        col: dict[int, int] = {}
        for i in live:
            e = mono[i]
            if not e:
                continue
            mult = 1 if odd[i] else e
            for step, c, others, flips in table[i]:
                parity = (odd_shift + len(others)) * prefix[i] + flips
                for j in others:
                    if mono[j]:
                        break  # t repeats an odd factor of m: no term
                    parity += prefix[j]
                else:
                    row = index[tuple(a + b for a, b in zip(mono, step))]
                    v = col.get(row, 0) + (-c if parity & 1 else c) * mult
                    if v:
                        col[row] = v
                    else:
                        del col[row]
        columns.append(col)
    return columns


def sparse(m: QMatrix) -> tuple[dict[int, int], ...]:
    """The columns of m, each scaled by the common denominator of its
    entries (which keeps the rank), as sparse integer columns keyed by
    row index."""
    columns = []
    for col in m.columns():
        den = lcm(*(e.denominator for e in col))
        columns.append({r: int(e * den) for r, e in enumerate(col) if e})
    return tuple(columns)


class NotAnInvolutionError(ValueError):
    """A matrix passed as an involution does not square to the identity."""


def _rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce the rows in place to reduced row echelon form, with pivots
    searched in the first ncols columns only (later columns are carried
    along, which is how solve_in_span augments); returns the pivots."""
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pick = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        inv = 1 / rows[r][c]
        prow = rows[r] = [x * inv for x in rows[r]]
        for k, row in enumerate(rows):
            f = row[c]
            if k != r and f:
                rows[k] = [a - f * b if b else a for a, b in zip(row, prow)]
        pivots.append(c)
    return pivots


def _rows(m: QMatrix) -> list[list[Fraction]]:
    return [list(m.row(r)) for r in range(m.rows)]


def rank(m: QMatrix) -> int:
    return len(_rref(_rows(m), m.cols))


def pivot_columns(m: QMatrix) -> tuple[int, ...]:
    """Leftmost column indices forming a basis of the column span."""
    return tuple(_rref(_rows(m), m.cols))


def _primitive(x: list[Fraction]) -> tuple[Fraction, ...]:
    """The integer multiple of x with coprime entries and a positive first
    nonzero entry."""
    den = 1
    for e in x:
        den = den * e.denominator // gcd(den, e.denominator)
    ints = [int(e * den) for e in x]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    if next((v for v in ints if v), 0) < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def kernel_basis(m: QMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of {v : m . v = 0}: one primitive integer vector per free
    column, in ascending free-column order."""
    rows = _rows(m)
    pivots = _rref(rows, m.cols)
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        x = [Fraction(0)] * m.cols
        x[f] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = -rows[i][f]
        basis.append(_primitive(x))
    return basis


def solve_in_span(basis: QMatrix, targets) -> list:
    """For each target vector, coefficients over the columns of `basis`
    reproducing it exactly, or None when the target is outside the span
    (a basis with no columns spans only 0, with the witness ())."""
    k = basis.cols
    targets = [[Fraction(v) for v in t] for t in targets]
    for t in targets:
        if len(t) != basis.rows:
            raise DimensionMismatchError(
                f"target length {len(t)} does not match {basis.rows} rows"
            )
    rows = [list(basis.row(r)) + [t[r] for t in targets] for r in range(basis.rows)]
    pivots = _rref(rows, k)
    results: list = []
    for j in range(len(targets)):
        col = k + j
        if any(row[col] for row in rows[len(pivots) :]):
            results.append(None)
            continue
        x = [Fraction(0)] * k
        for i, c in enumerate(pivots):
            x[c] = rows[i][col]
        results.append(tuple(x))
    return results


def column_span_contains(basis: QMatrix, v):
    """Witness coefficients with basis . w == v, or None if v is outside
    the column span."""
    return solve_in_span(basis, [v])[0]


def involution_eigen_dims(t: QMatrix) -> tuple[int, int]:
    """(dim of the +1 eigenspace, dim of the -1 eigenspace) of a matrix
    with t . t == identity."""
    if not t.is_square():
        raise NotAnInvolutionError(f"{t.rows}x{t.cols} matrix is not square")
    if not (t * t).is_identity():
        raise NotAnInvolutionError("matrix squared is not the identity")
    n = t.cols

    def shifted(s):
        return QMatrix(
            n, n, [e + (s if i % (n + 1) == 0 else 0) for i, e in enumerate(t.entries)]
        )

    return n - rank(shifted(-1)), n - rank(shifted(1))


def _representatives(model: DgaModel, n: int):
    """(columns spanning the coboundaries in degree n, cocycles whose
    classes form a basis of H^n): the pivot columns of D_{n-1}, and the
    kernel vectors of D_n, in canonical order, that stay independent
    modulo them."""
    dim_n = len(per_degree_monomial_basis(model.algebra, n))
    kernel = kernel_basis(cochain_matrix(model, n))
    if n > 0:
        prev = cochain_matrix(model, n - 1)
        image = [prev.column(c) for c in pivot_columns(prev)]
    else:
        image = []
    stacked = QMatrix.from_columns(image + kernel, rows=dim_n)
    reps = [kernel[p - len(image)] for p in pivot_columns(stacked) if p >= len(image)]
    return image, reps


def induced_involution(model: DgaModel, n: int) -> QMatrix:
    """Matrix of the involution on the representative basis of H^n."""
    involution = involution_map(model)
    if involution is None:
        raise NoInvolutionError("model has no involution")
    alg = model.algebra
    basis = per_degree_monomial_basis(alg, n)
    image, reps = _representatives(model, n)
    if not reps:
        return QMatrix.zero(0, 0)
    index = {mono: i for i, mono in enumerate(basis)}
    t_cols = []
    for mono in basis:
        col = [Fraction(0)] * len(basis)
        for m, c in involution(alg.poly({mono: 1})).terms.items():
            col[index[m]] = c
        t_cols.append(col)
    t = QMatrix.from_columns(t_cols, rows=len(basis))
    spanning = QMatrix.from_columns(image + reps, rows=len(basis))
    solved = solve_in_span(spanning, [t.matvec(r) for r in reps])
    if any(sol is None for sol in solved):
        raise AssertionError(f"an involution image left the cocycles in degree {n}")
    return QMatrix.from_columns([sol[len(image) :] for sol in solved], rows=len(reps))


def oracle_split(model: DgaModel, n: int) -> tuple[int, Optional[int], Optional[int]]:
    """(betti, inv_plus, inv_minus) in degree n by the general route; the
    split is (None, None) for a model without an involution."""
    if not model.involution:
        return len(_representatives(model, n)[1]), None, None
    induced = induced_involution(model, n)
    return (induced.cols, *involution_eigen_dims(induced))


def oracle_betti(model: DgaModel, n: int) -> int:
    """Brute-force betti: stack the previous differential's columns with
    a kernel basis of the current one and row-reduce the stack.  The
    kernel spans the cocycles and contains the coboundaries, so

        betti = rank [D_{n-1} | kernel] - rank D_{n-1}.

    This is a different identity from the production formula
    dim ker(D_n) - rank(D_{n-1})."""
    d_n = cochain_matrix(model, n)
    kernel = kernel_basis(d_n)
    if n > 0:
        prev = cochain_matrix(model, n - 1)
        prev_cols = prev.columns()
        rank_prev = rank(prev)
    else:
        prev_cols, rank_prev = [], 0
    stacked = QMatrix.from_columns(prev_cols + kernel, rows=d_n.cols)
    return rank(stacked) - rank_prev


# The reduced Borel split from ker s on the loop model.  The Borel complex
# is (Q[alpha] (x) M, delta + alpha s), with M the loop model, delta its
# differential and s the suspension v -> v_bar, a de Rham differential,
# exact except on the constants.  So Q[alpha] + (ker s in M^+, delta)
# includes quasi-isomorphically into it (Vigué-Poirrier and Burghelea,
# J. Differential Geom. 22, 1985; Burghelea and Vigué-Poirrier, Cyclic
# homology of commutative algebras I, 1988), commuting with the
# involution, which acts on ker s by (-1)^w for w bars.  With M^n_w the
# monomials of degree n with w bars and K^n_w = ker s = s(M^{n+1}_{w-1})
# for w >= 1, the reduced class count of degree n with w bars is
#
#     dim K^n_w - rank(delta s on M^{n+1}_{w-1}) - rank(delta s on M^n_{w-1}).
#
# No Borel model, alpha, g-chain or packed code is involved: every map is
# applied by product_derivation, and only the ranks are taken by
# linalg.rank, on the Polynomials' coefficients scaled to integers.


def _rank_of(vectors: Iterable[Mapping[Monomial, Fraction]]) -> int:
    index: dict[Monomial, int] = {}
    columns = []
    for v in vectors:
        den = lcm(*(c.denominator for c in v.values()))
        columns.append({index.setdefault(m, len(index)): int(c * den) for m, c in v.items() if c})
    return sparse_rank(columns)


def ker_s_split(model: MinimalModel, cap: int) -> list[tuple[int, int]]:
    """(inv_plus, inv_minus) of the reduced Borel table of a minimal model
    (its Borel table less the point's) in degrees 0..cap-1, from ker s."""
    loop = loop_model(model)
    alg, gens = loop.algebra, loop.algebra.generators
    # v_bar sits right after v, and the loop weight of a monomial is its number of bars
    s = Derivation(alg, -1, {v.name: alg.gen(bar.name) for v, bar in zip(gens[::2], gens[1::2])})
    d = differential(loop)

    @functools.cache
    def delta(mono: Monomial) -> dict[Monomial, Fraction]:
        return product_derivation(d, alg.poly({mono: 1})).terms

    def delta_of(p: Polynomial) -> dict[Monomial, Fraction]:
        out: dict[Monomial, Fraction] = {}
        for mono, c in p.terms.items():
            for t, x in delta(mono).items():
                out[t] = out.get(t, 0) + c * x
        return out

    # ranks[n][w] = (rank s, rank delta s) on M^n_w
    ranks: list[dict[int, tuple[int, int]]] = []
    for n in range(cap + 1):
        images: dict[int, list[Polynomial]] = {}
        for mono in per_degree_monomial_basis(alg, n):
            image = product_derivation(s, alg.poly({mono: 1}))
            images.setdefault(weight(loop, mono), []).append(image)
        ranks.append(
            {
                w: (_rank_of(x.terms for x in xs), _rank_of(delta_of(x) for x in xs))
                for w, xs in images.items()
            }
        )
    split = []
    for n in range(cap):
        out = [0, 0]
        for w, (dim_k, rank_ds) in ranks[n + 1].items():  # K^n_{w+1} = s(M^{n+1}_w)
            out[(w + 1) % 2] += dim_k - rank_ds - ranks[n].get(w, (0, 0))[1]
        split.append((out[0], out[1]))
    return split


def brute_force_monomial_count(algebra: GradedAlgebra, degree: int) -> int:
    """Count degree-n monomials by raw exponent enumeration, independent
    of the recursive basis builder."""
    ranges = []
    for g in algebra.generators:
        top = 1 if g.degree % 2 else degree // g.degree
        ranges.append(range(top + 1))
    count = 0
    for expo in itertools.product(*ranges):
        if sum(e * g.degree for e, g in zip(expo, algebra.generators)) == degree:
            count += 1
    return count


@functools.cache
def per_degree_monomial_basis(algebra: GradedAlgebra, degree: int) -> tuple[Monomial, ...]:
    """The degree-n monomials in ascending lexicographic order, by a
    search of that one degree, cached per algebra and degree.  loopinv
    itself never enumerates a whole degree (see ``cohomology._block``)."""
    n = len(algebra.generators)
    out: list[Monomial] = []
    mono = [0] * n

    def rec(i: int, remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(mono))
            return
        if i == n:
            return
        d = algebra.generators[i].degree
        top = min(1, remaining // d) if d % 2 else remaining // d
        for e in range(top + 1):
            mono[i] = e
            rec(i + 1, remaining - e * d)
        mono[i] = 0

    rec(0, degree)
    return tuple(out)


# ---------------------------------------------------------------------
# random valid minimal models


def random_minimal_model(rng: random.Random, max_generators: int = 4) -> MinimalModel:
    """A random valid minimal model: generator degrees in 2..9 and each
    nonzero differential value a combination of word-length >= 2
    monomials in *closed* generators, which forces d^2 = 0."""
    n = rng.randint(1, max_generators)
    degrees = sorted(rng.randint(2, 9) for _ in range(n))
    names = [f"g{k}" for k in range(n)]
    alg = GradedAlgebra(list(zip(names, degrees)))
    closed: list[int] = []
    values = {}
    for k in range(n):
        target = degrees[k] + 1
        candidates = []
        if closed and rng.random() < 0.7:
            sub = GradedAlgebra([(names[j], degrees[j]) for j in closed])
            for mono in per_degree_monomial_basis(sub, target):
                if sum(mono) >= 2:
                    full = [0] * n
                    for pos, j in enumerate(closed):
                        full[j] = mono[pos]
                    candidates.append(tuple(full))
        if candidates:
            picked = rng.sample(candidates, k=rng.randint(1, min(3, len(candidates))))
            terms = {mono: rng.choice([-2, -1, 1, 2, 3]) for mono in picked}
            values[names[k]] = alg.poly(terms)
        else:
            closed.append(k)
    return MinimalModel(alg, values)


def random_models_within_budget(
    seed: int, count: int, cap: int = 24, max_cochain_dim: int = 140
) -> list[MinimalModel]:
    """Deterministic stream of random models whose Borel cochain spaces
    stay desk-sized (at most max_cochain_dim monomials per degree up to
    cap), so exact elimination stays fast."""
    rng = random.Random(seed)
    out: list[MinimalModel] = []
    while len(out) < count:
        model = random_minimal_model(rng)
        borel_gens = [("alpha", 2)]
        for g in model.algebra.generators:
            borel_gens.append((g.name, g.degree))
            borel_gens.append((g.name + "_bar", g.degree - 1))
        gf = algebra_generating_function(GradedAlgebra(borel_gens), cap + 1)
        if max(gf) <= max_cochain_dim:
            out.append(model)
    return out
