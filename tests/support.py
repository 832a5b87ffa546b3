"""Shared helpers for the test suite: bundled-model loading, random
minimal model generation, and independent oracle code paths that the main
library must agree with."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Optional

from loopinv import linalg
from loopinv.algebra import Derivation, GradedAlgebra
from loopinv.cohomology import NoInvolutionError, cochain_matrix
from loopinv.models import DgaModel, MinimalModel, parse_model
from loopinv.series import algebra_generating_function

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def load_model(name: str) -> MinimalModel:
    return parse_model((MODELS_DIR / name).read_text(encoding="utf-8"))


def sphere_bundle_model(d: int) -> MinimalModel:
    """Unit tangent bundle of S^{2d}: one exterior generator of degree
    4d-1, zero differential."""
    alg = GradedAlgebra([("x", 4 * d - 1)])
    return MinimalModel(alg, Derivation(alg, 1, {}))


# ---------------------------------------------------------------------
# independent oracles (used only by tests)
#
# The general eigen route: Gauss-Jordan elimination over Fractions (its
# own code, sharing nothing with loopinv.linalg), kernel bases,
# cohomology representatives, and the matrix of the induced involution on
# them.  It assumes nothing about how the involution acts on monomials or
# which grading the differential preserves, so the block-rank tables of
# loopinv.cohomology must agree with it.


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


def _rows(m: linalg.QMatrix) -> list[list[Fraction]]:
    return [list(m.row(r)) for r in range(m.rows)]


def rank(m: linalg.QMatrix) -> int:
    return len(_rref(_rows(m), m.cols))


def pivot_columns(m: linalg.QMatrix) -> tuple[int, ...]:
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


def kernel_basis(m: linalg.QMatrix) -> list[tuple[Fraction, ...]]:
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


def solve_in_span(basis: linalg.QMatrix, targets) -> list:
    """For each target vector, coefficients over the columns of `basis`
    reproducing it exactly, or None when the target is outside the span
    (a basis with no columns spans only 0, with the witness ())."""
    k = basis.cols
    targets = [[Fraction(v) for v in t] for t in targets]
    for t in targets:
        if len(t) != basis.rows:
            raise linalg.DimensionMismatchError(
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


def column_span_contains(basis: linalg.QMatrix, v):
    """Witness coefficients with basis . w == v, or None if v is outside
    the column span."""
    return solve_in_span(basis, [v])[0]


def involution_eigen_dims(t: linalg.QMatrix) -> tuple[int, int]:
    """(dim of the +1 eigenspace, dim of the -1 eigenspace) of a matrix
    with t . t == identity."""
    if not t.is_square():
        raise NotAnInvolutionError(f"{t.rows}x{t.cols} matrix is not square")
    if not (t * t).is_identity():
        raise NotAnInvolutionError("matrix squared is not the identity")
    n = t.cols

    def shifted(s):
        return linalg.QMatrix(
            n, n, [e + (s if i % (n + 1) == 0 else 0) for i, e in enumerate(t.entries)]
        )

    return n - rank(shifted(-1)), n - rank(shifted(1))


def _representatives(model: DgaModel, n: int):
    """(columns spanning the coboundaries in degree n, cocycles whose
    classes form a basis of H^n): the pivot columns of D_{n-1}, and the
    kernel vectors of D_n, in canonical order, that stay independent
    modulo them."""
    dim_n = len(model.algebra.monomial_basis(n))
    kernel = kernel_basis(cochain_matrix(model, n))
    if n > 0:
        prev = cochain_matrix(model, n - 1)
        image = [prev.column(c) for c in pivot_columns(prev)]
    else:
        image = []
    stacked = linalg.QMatrix.from_columns(image + kernel, rows=dim_n)
    reps = [kernel[p - len(image)] for p in pivot_columns(stacked) if p >= len(image)]
    return image, reps


def induced_involution(model: DgaModel, n: int) -> linalg.QMatrix:
    """Matrix of the involution on the representative basis of H^n."""
    if model.involution is None:
        raise NoInvolutionError("model has no involution")
    alg = model.algebra
    basis = alg.monomial_basis(n)
    image, reps = _representatives(model, n)
    if not reps:
        return linalg.QMatrix.zero(0, 0)
    index = {mono: i for i, mono in enumerate(basis)}
    t_cols = []
    for mono in basis:
        col = [Fraction(0)] * len(basis)
        for m, c in model.involution(alg.poly({mono: 1})).terms.items():
            col[index[m]] = c
        t_cols.append(col)
    t = linalg.QMatrix.from_columns(t_cols, rows=len(basis))
    spanning = linalg.QMatrix.from_columns(image + reps, rows=len(basis))
    solved = solve_in_span(spanning, [t.matvec(r) for r in reps])
    if any(sol is None for sol in solved):
        raise AssertionError(f"an involution image left the cocycles in degree {n}")
    return linalg.QMatrix.from_columns([sol[len(image) :] for sol in solved], rows=len(reps))


def oracle_split(model: DgaModel, n: int) -> tuple[int, Optional[int], Optional[int]]:
    """(betti, inv_plus, inv_minus) in degree n by the general route; the
    split is (None, None) for a model without an involution."""
    if model.involution is None:
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
    stacked = linalg.QMatrix.from_columns(prev_cols + kernel, rows=d_n.cols)
    return rank(stacked) - rank_prev


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
            for mono in sub.monomial_basis(target):
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
    return MinimalModel(alg, Derivation(alg, 1, values))


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
        if max(gf.coeffs) <= max_cochain_dim:
            out.append(model)
    return out
