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
square or a repeated odd factor is zero.

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
from types import MappingProxyType
from typing import Mapping

from .algebra import GradedAlgebra, Polynomial, Value
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
            if value.algebra != algebra:
                raise ValueError(f"value for {name} lives in a different algebra")
            if not value.is_homogeneous_of(target):
                raise ValueError(
                    f"value for {name} must be homogeneous of degree {target}, got {value}"
                )
        d = MappingProxyType({x: differential.get(x) or algebra.zero() for x in algebra.names})
        gens = algebra.generators
        weights = tuple(weights) or (0,) * len(gens)
        if len(weights) != len(gens):
            raise ValueError(f"need {len(gens)} generator weights, got {len(weights)}")
        super().__init__(algebra, d, involution, weights)
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
                w = sum(e * x for e, x in zip(mono, weights))
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
_TOKEN_RE = re.compile(
    rf"(?P<ws>\s+)|(?P<name>{_NAME_RE})|(?P<int>[0-9]+)|(?P<op>[\^*/+\-=])|(?P<bad>.)"
)


def _tokenize(body: str, line_no: int) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(body):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ModelSyntaxError(f"unexpected character {m.group()!r}", line_no, m.start() + 1)
        tokens.append((kind, m.group(), m.start() + 1))
    return tokens


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
    """The value of a d line, read in one pass.  A term is one exponent tuple
    and one Fraction; ``multiply_monomials`` multiplies each factor in with
    its Koszul sign, or gives None (so 0) for a repeated odd factor.  The
    terms sum into one dict, whose Polynomial drops odd squares."""
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

    width = len(algebra.generators)
    terms: dict[tuple[int, ...], Fraction] = {}
    op = tokens[0][1] if tokens[0][1] in ("+", "-") else ""
    pos = len(op)
    while True:
        coeff = Fraction(-1 if op == "-" else 1)
        if tokens[pos][1] in ("+", "-") and tokens[pos + 1][0] == "int":  # as in "a + -2*b"
            coeff = -coeff if tokens[pos][1] == "-" else coeff
            pos += 1
        has_coeff = tokens[pos][0] == "int"
        if has_coeff:
            coeff *= _int(take("int"), line_no)
            coeff /= posint("/", "zero denominator")
        more = not has_coeff or tokens[pos][1] == "*"  # else a bare rational term
        pos += has_coeff and more
        mono = (0,) * width
        while more:
            tok = take("name")
            try:
                i = algebra.index(tok[1])
            except KeyError:
                raise ModelSyntaxError(f"unknown generator {tok[1]!r}", line_no, tok[2]) from None
            factor = (0,) * i + (posint("^", "exponent must be >= 1"),) + (0,) * (width - i - 1)
            sign, mono = algebra.multiply_monomials(mono, factor) or (0, mono)
            coeff *= sign
            more = tokens[pos][1] == "*"
            pos += more
        tok = tokens[pos]
        if not has_coeff and tok[0] in ("name", "int"):
            raise ModelSyntaxError(f"missing '*' before {tok[1]!r}", line_no, tok[2])
        c = terms.get(mono, 0) + coeff
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)
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


def _barred_names(model: MinimalModel) -> dict[str, str]:
    taken = set(model.algebra.names)
    bars: dict[str, str] = {}
    for g in model.algebra.generators:
        bar = _fresh_name(g.name + "_bar", taken | set(bars.values()))
        bars[g.name] = bar
    return bars


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
    bars = _barred_names(model)
    head = []
    if equivariant:
        head = [(_fresh_name("alpha", set(model.algebra.names) | set(bars.values())), 2)]
    gens = head + [p for g in base for p in ((g.name, g.degree), (bars[g.name], g.degree - 1))]
    algebra = GradedAlgebra(gens)
    pad = (0,) * len(head)
    values: dict[str, Polynomial] = {}
    for k, (g, value) in enumerate(zip(base, model.differential.values())):
        dv, s_dv = {}, {}
        for mono, c in value.terms.items():
            lifted = pad + tuple(x for e in mono for x in (e, 0))
            dv[lifted] = c
            before = 0  # the degree of the factors before v_j
            for j, (e, v) in enumerate(zip(mono, base)):
                if e:
                    i = len(pad) + 2 * j  # v_j's position; v_j_bar sits at i + 1
                    term = lifted[:i] + (e - 1, 1) + lifted[i + 2 :]
                    s_dv[term] = s_dv.get(term, 0) + (-1) ** before * (1 if v.degree % 2 else e) * c
                    before += e * v.degree
        values[bars[g.name]] = Polynomial(algebra, {m: -c for m, c in s_dv.items()})
        if equivariant:  # + alpha * v_bar, with v_bar at position 2k + 2
            dv[tuple(int(j in (0, 2 * k + 2)) for j in range(len(gens)))] = 1
        values[g.name] = Polynomial(algebra, dv)
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
