"""Minimal models, their free-loop and circle-equivariant Borel models.

The model DSL is line oriented (``#`` starts a comment):

    gen <name> <degree>          declare a generator; declaration order
                                 is the canonical monomial order
    d <name> = <poly>            differential value; generators without a
                                 d line have differential zero

with <poly> ::= [sign] term (sign term)*, sign ::= '+' | '-',
term ::= [sign] rational ['*' factors] | factors, factors ::= factor ('*'
factor)*, factor ::= name ['^' posint] and rational ::= int ['/' posint].
Tokens may be spaced apart.  A bare rational term passes the degree check
only as 0.  Factors come in any order, with the Koszul sign, and an odd
square or a repeated odd factor is zero.  A coefficient is read as an int,
and a ``/`` whose denominator is not 1 makes it a Fraction, so an
integral model and its loop and Borel models hold ints only.

A model is a ``DgaModel``, whose differential is the read-only mapping of
its generator values.  From a minimal model (all generator degrees >= 2,
square-zero decomposable differential d) this module builds, with one builder,

* the free loop model on generators {v} u {v_bar}, deg v_bar = deg v - 1,
  with differential delta(v) = d(v), delta(v_bar) = -s(d(v)), where s is
  the degree -1 derivation v -> v_bar, v_bar -> 0, written out on monomials;
* the Borel model, which adds a degree 2 polynomial generator and uses
  D = delta + alpha * s, together with the loop-reversal involution
  T(alpha) = -alpha, T(v) = v, T(v_bar) = -v_bar.

Both carry generator weights (v 0, v_bar 1 and, in the Borel model,
alpha -1) that their differentials preserve.  The involution acts on a
monomial by (-1)^weight, so it is diagonal by construction and commutes
with any differential that preserves the weight.  A model is only
returned after the square-zero check on packed codes and the weight
check pass on every generator, so a sign-convention mismatch surfaces as
a hard error instead of a wrong table.
"""

from __future__ import annotations

import re
import warnings
from fractions import Fraction
from itertools import compress
from operator import mul
from types import MappingProxyType
from typing import Mapping

from .algebra import GradedAlgebra, Polynomial, Scalar, Value
from .cohomology import square_zero_residual


class ModelError(Exception):
    category = "ModelError"


class ModelSyntaxError(ModelError):
    category = "SyntaxError"

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DegreeMismatchError(ModelError):
    category = "DegreeMismatch"


class NotSquareZeroError(ModelError):
    category = "NotSquareZero"


class SimpleConnectivityError(ModelError):
    category = "SimpleConnectivity"


class BorelSquareZeroError(ModelError):
    category = "BorelSquareZeroFailure"


class InvolutionIncompatibleError(ModelError):
    category = "InvolutionIncompatible"


class NotMinimalWarning(UserWarning):
    category = "NotMinimal"


class DgaModel(Value):
    """Free graded-commutative algebra with a square-zero degree +1
    differential, an integer weight per generator (all zero unless given)
    and, when ``involution`` is true, the involution that acts on each
    monomial by (-1)^weight, where the weight of a monomial is the
    exponent-weighted sum of generator weights.

    ``differential`` maps generator names to values of degree deg + 1 (a
    missing one is zero); the model keeps it read-only, with every
    generator, in generator order.  D extends it by the Leibniz rule.

    The differential must preserve the weight, so it commutes with the
    involution, and the cochain complex is the direct sum of the
    subcomplexes spanned by the monomials of one block, keyed by weight.
    == and repr read all four fields; ``cohomology.build_layout`` picks
    the generator g that the cohomology is ranked along.
    """

    __slots__ = _fields = ("algebra", "differential", "involution", "weights")

    def __init__(
        self,
        algebra: GradedAlgebra,
        differential: Mapping[str, Polynomial],
        involution: bool = False,
        weights: tuple[int, ...] = (),
    ):
        for name, value in differential.items():
            target = algebra.degree_of(name) + 1
            if value.algebra is not algebra and value.algebra != algebra:
                raise ValueError(f"value for {name} lives in a different algebra")
            if not value.is_homogeneous_of(target):
                raise ValueError(
                    f"value for {name} must be homogeneous of degree {target}, got {value}"
                )
        d = dict.fromkeys(algebra.names, algebra.zero())
        d.update(differential)  # every generator, in generator order
        gens = algebra.generators
        weights = tuple(weights) or (0,) * len(gens)
        if len(weights) != len(gens):
            raise ValueError(f"need {len(gens)} generator weights, got {len(weights)}")
        super().__init__(algebra, MappingProxyType(d), involution, weights)
        violation = square_zero_residual(self)
        if violation is not None:
            name, residual = violation
            try:
                message = f"d^2({name}) = {residual} != 0"
            except ValueError:  # a coefficient with more digits than Python prints
                message = f"d^2({name}) != 0, with a coefficient too long to print"
            raise NotSquareZeroError(message)
        for g, weight, value in zip(gens, weights, d.values()):
            for mono in value.terms:
                w = sum(map(mul, mono, weights))
                if w != weight:
                    raise InvolutionIncompatibleError(
                        f"differential of {g.name} (weight {weight}) has the term "
                        f"{algebra.monomial_str(mono)} of weight {w}"
                    )


class MinimalModel(DgaModel):
    """A DgaModel on generators of degree >= 2, with no involution and
    zero weights: ``MinimalModel(algebra, differential)``.

    A differential with a linear term (a word-length-1 monomial) is
    accepted with a NotMinimalWarning; generator degrees below 2 are
    rejected outright, before the square-zero gate runs.
    """

    __slots__ = ()

    def __init__(self, algebra: GradedAlgebra, differential: Mapping[str, Polynomial]):
        for g in algebra.generators:
            if g.degree < 2:
                raise SimpleConnectivityError(
                    f"generator {g.name} has degree {g.degree}; "
                    "a simply-connected model needs all degrees >= 2"
                )
        super().__init__(algebra, differential)
        for name, value in self.differential.items():
            wl = value.min_word_length()
            if wl is not None and wl < 2:
                warnings.warn(
                    NotMinimalWarning(
                        f"d({name}) = {value} has a linear term; "
                        "the model is valid but not minimal"
                    ),
                    stacklevel=2,
                )


# ---------------------------------------------------------------------
# model DSL parser


_NAME_RE = r"[A-Za-z_][A-Za-z0-9_]*"
# every character but whitespace starts a token, or is the first bad one
_TOKEN_RE = re.compile(rf"(?P<name>{_NAME_RE})|(?P<int>[0-9]+)|(?P<op>[\^*/+\-=])")
_BAD_RE = re.compile(r"[^\sA-Za-z0-9_^*/+\-=]")


def _tokenize(body: str, line_no: int) -> list[tuple[str, str, int]]:
    if bad := _BAD_RE.search(body):
        raise ModelSyntaxError(f"unexpected character {bad.group()!r}", line_no, bad.start() + 1)
    return [(m.lastgroup, m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(body)]


def _int(token: tuple[str, str, int], line_no: int) -> int:
    """The value of an integer token.  A number longer than Python converts
    (4300 digits by default) is a syntax error at its column."""
    try:
        return int(token[1])
    except ValueError:
        raise ModelSyntaxError(
            f"number with {len(token[1])} digits is too long", line_no, token[2]
        ) from None


def _parse_value(algebra: GradedAlgebra, tokens, line_no: int) -> Polynomial:
    """The value of a d line, read in one pass.  A term is one exponent list
    and one coefficient, an int unless a ``/`` makes it a Fraction.  Each
    factor is multiplied in with its Koszul sign: an odd one moves left past
    the odd factors after it, and makes the term 0 if it repeats one.  The
    terms sum into one dict, whose Polynomial drops zero sums and odd
    squares."""
    last = tokens[-1]
    tokens = [*tokens, ("end", "", last[2] + len(last[1]))]

    def take(kind: str) -> tuple[str, str, int]:
        nonlocal pos
        tok = tokens[pos]
        if tok[0] != kind:
            what = "end of line" if tok[0] == "end" else f"token {tok[1]!r}"
            raise ModelSyntaxError(f"unexpected {what}", line_no, tok[2])
        pos += 1
        return tok

    def posint(op: str, error: str) -> int:
        """The posint after ``op``, or 1 when ``op`` does not come next."""
        if tokens[pos][1] != op:
            return 1
        take("op")
        tok = take("int")
        value = _int(tok, line_no)
        if value < 1:
            raise ModelSyntaxError(error, line_no, tok[2])
        return value

    width, odd = len(algebra.generators), algebra._odd
    terms: dict[tuple[int, ...], Scalar] = {}
    op = tokens[0][1] if tokens[0][1] in ("+", "-") else ""
    pos = len(op)
    while True:
        coeff = -1 if op == "-" else 1
        if tokens[pos][1] in ("+", "-") and tokens[pos + 1][0] == "int":  # as in "a + -2*b"
            coeff = -coeff if tokens[pos][1] == "-" else coeff
            pos += 1
        has_coeff = tokens[pos][0] == "int"
        if has_coeff:
            coeff *= _int(take("int"), line_no)
            if (den := posint("/", "zero denominator")) != 1:
                coeff = Fraction(coeff, den)
        more = not has_coeff or tokens[pos][1] == "*"  # else a bare rational term
        pos += has_coeff and more
        exponents = [0] * width
        while more:
            tok = take("name")
            try:
                i = algebra.index(tok[1])
            except KeyError:
                raise ModelSyntaxError(f"unknown generator {tok[1]!r}", line_no, tok[2]) from None
            if odd[i]:  # past the odd factors after it, or 0 if it repeats
                after = sum(compress(exponents[i + 1 :], odd[i + 1 :]))
                coeff *= 0 if exponents[i] else (-1) ** after
            exponents[i] += posint("^", "exponent must be >= 1")
            more = tokens[pos][1] == "*"
            pos += more
        mono = tuple(exponents)
        tok = tokens[pos]
        if not has_coeff and tok[0] in ("name", "int"):
            raise ModelSyntaxError(f"missing '*' before {tok[1]!r}", line_no, tok[2])
        terms[mono] = terms.get(mono, 0) + coeff
        op = tok[1]
        if op not in ("+", "-"):
            take("end")  # anything else is an unexpected token
            return Polynomial(algebra, terms)
        pos += 1


def parse_model(text: str) -> MinimalModel:
    """Parse the model DSL into a validated MinimalModel."""
    gen_specs: list[tuple[str, int]] = []
    seen: dict[str, int] = {}
    d_lines: list[tuple[int, str, int, list]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = _tokenize(body, line_no)
        if not tokens:
            continue
        kind, value, col = tokens[0]
        if kind == "name" and value == "gen":
            if len(tokens) != 3 or tokens[1][0] != "name" or tokens[2][0] != "int":
                raise ModelSyntaxError("expected: gen <name> <degree>", line_no, col)
            name, degree = tokens[1][1], _int(tokens[2], line_no)
            if name in seen:
                raise ModelSyntaxError(
                    f"generator {name!r} already declared on line {seen[name]}",
                    line_no,
                    tokens[1][2],
                )
            if degree < 2:
                raise SimpleConnectivityError(
                    f"line {line_no}: generator {name} has degree {degree}; "
                    "a simply-connected model needs all degrees >= 2"
                )
            seen[name] = line_no
            gen_specs.append((name, degree))
        elif kind == "name" and value == "d":
            if len(tokens) < 4 or tokens[1][0] != "name" or tokens[2][1] != "=":
                raise ModelSyntaxError("expected: d <name> = <poly>", line_no, col)
            d_lines.append((line_no, tokens[1][1], tokens[1][2], tokens[3:]))
        else:
            raise ModelSyntaxError(
                f"expected 'gen' or 'd', got {value!r}", line_no, col
            )
    algebra = GradedAlgebra(gen_specs)
    diff_values: dict[str, Polynomial] = {}
    diff_lines: dict[str, int] = {}
    for line_no, name, name_col, tokens in d_lines:
        if name not in seen:
            raise ModelSyntaxError(f"unknown generator {name!r}", line_no, name_col)
        if name in diff_values:
            raise ModelSyntaxError(
                f"d {name} already given on line {diff_lines[name]}", line_no, 1
            )
        poly = _parse_value(algebra, tokens, line_no)
        for mono, c in poly.terms.items():
            try:
                str(c)  # terms that each parsed can sum past what Python prints
            except ValueError:
                raise ModelSyntaxError(
                    f"the terms of {algebra.monomial_str(mono)} sum to a coefficient "
                    "with too many digits",
                    line_no,
                    tokens[0][2],
                ) from None
        target = algebra.degree_of(name) + 1
        if not poly.is_homogeneous_of(target):
            try:
                message = (
                    f"d({name}) = {poly} is not homogeneous of degree {target} "
                    f"(= degree({name}) + 1); term degrees are {sorted(poly.degrees())}"
                )
            except ValueError:  # a degree with more digits than Python prints
                message = (
                    f"d({name}) is not homogeneous of degree degree({name}) + 1, "
                    "with a degree too long to print"
                )
            raise DegreeMismatchError(f"line {line_no}: {message}")
        diff_values[name] = poly
        diff_lines[name] = line_no
    return MinimalModel(algebra, diff_values)


# ---------------------------------------------------------------------
# loop and Borel models


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def _free_loop(model: MinimalModel, equivariant: bool) -> DgaModel:
    """The loop model, or with ``equivariant`` the Borel model, of a
    minimal model: generators [alpha,] v_1, v_1_bar, v_2, v_2_bar, ...
    with D(v) = d(v) [+ alpha * v_bar] and D(v_bar) = -s(d(v)), where s
    is the degree -1 derivation sending v to v_bar and v_bar to 0.

    alpha comes first and is even, so alpha * v_bar is one monomial with
    coefficient +1, and each v_bar sits right after its v, so a monomial
    of the minimal model lifts by putting a zero after each exponent (and
    one before them all for alpha).  Such an m has no bars, so s(m) is the
    sum over its factors v_j^e_j of (-1)^(degree before v_j) * (e_j if v_j
    is even, else 1) * m / v_j * v_j_bar, with no reordering sign.  The
    weights are -1 on alpha, 0 on v and +1 on v_bar; the Borel involution
    acts by (-1)^weight, which is -1 on alpha and on every v_bar."""
    base = model.algebra.generators
    taken = set(model.algebra.names)
    gens = []  # v_1, v_1_bar, v_2, v_2_bar, ...
    for g in base:
        taken.add(bar := _fresh_name(g.name + "_bar", taken))
        gens += [g, (bar, g.degree - 1)]
    head = [(_fresh_name("alpha", taken), 2)] if equivariant else []
    algebra = GradedAlgebra(head + gens)
    names = algebra.names[len(head) :]
    lift = [0] * len(algebra.generators)
    degrees, index = model.algebra._degrees, range(len(base))
    values: dict[str, Polynomial] = {}
    for k, value in enumerate(model.differential.values()):
        dv, dbar = {}, {}  # D(v) and D(v_bar) = -s(d(v))
        for mono, c in value.terms.items():
            lift[len(head) :: 2] = mono
            dv[lifted := tuple(lift)] = c
            before = 0  # the degree of the factors before v_j
            for j in compress(index, mono):
                e, d = mono[j], degrees[j]
                i = len(head) + 2 * j  # v_j's position; v_j_bar sits at i + 1
                term = lifted[:i] + (e - 1, 1) + lifted[i + 2 :]
                dbar[term] = dbar.get(term, 0) - (-c if before % 2 else c) * (1 if d % 2 else e)
                before += e * d
        values[names[2 * k + 1]] = Polynomial(algebra, dbar)
        if equivariant:  # + alpha * v_bar, with v_bar at position 2k + 2
            dv[(1,) + (0,) * (2 * k + 1) + (1,) + (0,) * (len(gens) - 2 * k - 2)] = 1
        values[names[2 * k]] = Polynomial(algebra, dv)
    if not equivariant:
        return DgaModel(algebra, values, False, (0, 1) * len(base))
    try:
        return DgaModel(algebra, values, True, (-1,) + (0, 1) * len(base))
    except NotSquareZeroError as exc:
        raise BorelSquareZeroError(f"Borel differential does not square to zero: {exc}") from exc


def loop_model(model: MinimalModel) -> DgaModel:
    """Free loop model: generators {v} u {v_bar} with deg v_bar =
    deg v - 1, differential delta(v) = d(v), delta(v_bar) = -s(d(v))."""
    return _free_loop(model, False)


def borel_model(model: MinimalModel) -> DgaModel:
    """Circle-equivariant Borel model with its loop-reversal involution.

    Generators are {alpha} u {v} u {v_bar} with deg alpha = 2, and
    D = delta + alpha * s, with weights -1 on alpha, 0 on v and +1 on
    v_bar, so that D preserves the weight #bars - #alpha, and the
    involution acts on a monomial by (-1)^weight (-1 on alpha and v_bar,
    +1 on v).  The construction gates of DgaModel run on every
    generator; a failed square-zero check raises BorelSquareZeroError
    instead of returning a corrupt model.
    """
    return _free_loop(model, True)
