"""Free graded-commutative algebras over Q on finitely many generators.

A monomial is a tuple of exponents aligned with the algebra's generator
order (declaration order is canonical order).  Odd-degree generators are
exterior: their exponents never exceed one and their squares vanish.
Reordering a product into canonical order accumulates the Koszul sign,
one factor of -1 for every transposition of two odd generators, and that
single rule is the source of truth for every sign in the package:
a derivation is extended from its generator values through monomial
multiplication (``Derivation.__call__`` sums each Leibniz term's signed
coefficient into one dictionary and builds one Polynomial at the end).

``Derivation.integral_columns``, the cochain assembly, applies the same
rule to packed monomial codes, with integer coefficients and no
Polynomial or tuple per monomial.  A code holds generator i's exponent in
a fixed bit field (bits fields[i] .. fields[i + 1] - 1) wide enough that
no exponent carries into the next field, so multiplying by a monomial is
adding its code, an exponent is one shift and mask, and, as an odd
generator's field is one bit, counting the odd factors of a monomial
below a generator is one bit count.  An empty field leaves out the
coordinate of one even generator g with zero differential: then
D(g^a y) = g^a D(y), so it assembles D on g-free monomials y only and
keys each term g^c z of the result by its g-free part z, which is how the
cohomology code reuses one block's pivots for the next block along
multiplication by g.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Optional, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


class Generator(NamedTuple):
    name: str
    degree: int


class WrongDegreeShiftError(ValueError):
    """check_differential got a derivation whose shift is not +1."""

    category = "WrongDegreeShift"


class GradedAlgebra:
    """Lambda(g_1, ..., g_l): polynomial on even generators tensor
    exterior on odd generators."""

    __slots__ = ("generators", "_index", "_degrees", "_odd")

    def __init__(self, generators: Iterable):
        gens = []
        for g in generators:
            name, degree = g
            if not isinstance(name, str) or not name:
                raise ValueError(f"generator name must be a nonempty string, got {name!r}")
            if degree < 1:
                raise ValueError(f"generator {name} has degree {degree}; degrees must be >= 1")
            gens.append(Generator(name, int(degree)))
        self.generators = tuple(gens)
        self._index = {g.name: i for i, g in enumerate(self.generators)}
        if len(self._index) != len(self.generators):
            raise ValueError("generator names must be unique")
        self._degrees = tuple(g.degree for g in self.generators)
        self._odd = tuple(g.degree % 2 == 1 for g in self.generators)

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedAlgebra) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self) -> str:
        inner = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"GradedAlgebra({inner})"

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def degree_of(self, name: str) -> int:
        return self._degrees[self.index(name)]

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(e * d for e, d in zip(mono, self._degrees))

    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.generators)

    def multiply_monomials(self, m1: Monomial, m2: Monomial) -> Optional[tuple[int, Monomial]]:
        """(koszul sign, product monomial), or None when an odd generator
        repeats and the product is zero."""
        odd = self._odd
        n = len(m1)
        # suffix[j] = number of odd factors of m1 at indices >= j
        suffix = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] + (1 if odd[i] and m1[i] else 0)
        # Each odd factor of m2 moves left past the odd factors of m1
        # sitting at strictly larger generator indices.
        sign_exp = 0
        for j, b in enumerate(m2):
            if b and odd[j]:
                if m1[j]:
                    return None
                sign_exp += suffix[j + 1]
        prod = tuple(a + b for a, b in zip(m1, m2))
        return (-1 if sign_exp % 2 else 1, prod)

    def monomial_str(self, mono: Monomial) -> str:
        parts = []
        for g, e in zip(self.generators, mono):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"

    # -- polynomial constructors ------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def unit(self) -> "Polynomial":
        return Polynomial(self, {self.unit_monomial(): Fraction(1)})

    def gen(self, name: str) -> "Polynomial":
        i = self.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(self.generators)))
        return Polynomial(self, {mono: Fraction(1)})

    def poly(self, terms: Mapping[Monomial, Scalar]) -> "Polynomial":
        return Polynomial(self, dict(terms))


class Polynomial:
    """Finite Q-linear combination of monomials of one algebra.

    ``terms`` maps monomials to nonzero Fractions; treat it as immutable.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GradedAlgebra, terms: Mapping[Monomial, Scalar]):
        clean: dict[Monomial, Fraction] = {}
        width = len(algebra.generators)
        for mono, coeff in terms.items():
            c = Fraction(coeff)
            if not c:
                continue
            if len(mono) != width:
                raise ValueError(f"monomial {mono} has wrong width for {algebra!r}")
            mono = tuple(mono)
            if any(e > 1 and algebra._odd[i] for i, e in enumerate(mono)):
                continue  # squares of odd generators vanish
            clean[mono] = c
        self.algebra = algebra
        self.terms = clean

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.algebra, frozenset(self.terms.items())))

    def _require_same_algebra(self, other: "Polynomial") -> None:
        if self.algebra != other.algebra:
            raise ValueError("polynomials live in different algebras")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_algebra(other)
        acc = dict(self.terms)
        for mono, c in other.terms.items():
            s = acc.get(mono, 0) + c
            if s:
                acc[mono] = s
            else:
                acc.pop(mono, None)
        return Polynomial(self.algebra, acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_algebra(other)
        acc: dict[Monomial, Fraction] = {}
        mult = self.algebra.multiply_monomials
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                hit = mult(m1, m2)
                if hit is None:
                    continue
                sign, mono = hit
                s = acc.get(mono, 0) + sign * c1 * c2
                if s:
                    acc[mono] = s
                else:
                    acc.pop(mono, None)
        return Polynomial(self.algebra, acc)

    def __rmul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, scalar: Scalar) -> "Polynomial":
        c = Fraction(scalar)
        if not c:
            return self.algebra.zero()
        return Polynomial(self.algebra, {m: c * v for m, v in self.terms.items()})

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def degrees(self) -> set[int]:
        return {self.algebra.monomial_degree(m) for m in self.terms}

    def is_homogeneous_of(self, degree: int) -> bool:
        """True when every term has the given degree (vacuously for 0)."""
        return all(self.algebra.monomial_degree(m) == degree for m in self.terms)

    def min_word_length(self) -> Optional[int]:
        if not self.terms:
            return None
        return min(sum(m) for m in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(
            self.terms.items(), key=lambda kv: (self.algebra.monomial_degree(kv[0]), kv[0])
        )
        chunks = []
        for mono, coeff in items:
            mono_s = self.algebra.monomial_str(mono)
            if mono_s == "1":
                body = str(coeff)
            elif coeff == 1:
                body = mono_s
            elif coeff == -1:
                body = f"-{mono_s}"
            else:
                body = f"{coeff}*{mono_s}"
            chunks.append(body)
        out = chunks[0]
        for chunk in chunks[1:]:
            out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return out

    __repr__ = __str__


class Derivation:
    """Graded derivation with a fixed degree shift, determined by its
    values on generators and extended by the graded Leibniz rule

        D(ab) = D(a) b + (-1)^(shift * deg a) a D(b).

    Every value must be zero or homogeneous of degree(generator) + shift.
    Generators missing from ``values`` map to zero.
    """

    __slots__ = ("algebra", "degree_shift", "_values", "_integral")

    def __init__(self, algebra: GradedAlgebra, degree_shift: int, values: Mapping[str, Polynomial]):
        self.algebra = algebra
        self.degree_shift = int(degree_shift)
        clean: dict[str, Polynomial] = {}
        for name, poly in values.items():
            target = algebra.degree_of(name) + self.degree_shift
            if poly.algebra != algebra:
                raise ValueError(f"value for {name} lives in a different algebra")
            if not poly.is_homogeneous_of(target):
                raise ValueError(
                    f"value for {name} must be homogeneous of degree {target}, got {poly}"
                )
            if poly:
                clean[name] = poly
        self._values = clean
        self._integral: dict = {}

    def of_generator(self, name: str) -> Polynomial:
        self.algebra.index(name)
        value = self._values.get(name)
        return value if value is not None else self.algebra.zero()

    def __call__(self, p: Polynomial) -> Polynomial:
        if p.algebra != self.algebra:
            raise ValueError("polynomial lives in a different algebra")
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in p.terms.items():
            self._apply_monomial(mono, coeff, acc)
        return Polynomial(self.algebra, acc)

    def _apply_monomial(self, mono: Monomial, coeff: Fraction, acc: dict) -> None:
        """Add coeff * D(mono) into acc, term by term: the i-th Leibniz term
        is sign * mult * left * D(g_i) * right, where left is mono up to
        and including g_i^(e-1), right the rest of mono, sign
        (-1)^(shift * degree of the factors before g_i) and mult the
        exponent e of an even g_i (1 for an odd one).  The two products
        are monomial products with their Koszul signs; no Polynomial is
        built per term, and zero sums are dropped by the caller's
        Polynomial."""
        gens = self.algebra.generators
        mult_monos = self.algebra.multiply_monomials
        odd_shift = self.degree_shift % 2 == 1
        width = len(mono)
        prefix_degree = 0
        for i, e in enumerate(mono):
            if not e:
                continue
            g = gens[i]
            dg = self._values.get(g.name)
            if dg is not None:
                sign = -1 if odd_shift and prefix_degree % 2 else 1
                scale = sign * (e if g.degree % 2 == 0 else 1) * coeff
                left = mono[:i] + (e - 1,) + (0,) * (width - i - 1)
                right = (0,) * (i + 1) + mono[i + 1 :]
                for t, c in dg.terms.items():
                    hit = mult_monos(left, t)
                    if hit is None:
                        continue
                    s1, lt = hit
                    hit = mult_monos(lt, right)
                    if hit is None:
                        continue
                    s2, prod = hit
                    acc[prod] = acc.get(prod, 0) + s1 * s2 * scale * c
            prefix_degree += e * g.degree

    def _packed_terms(self, fields: tuple[int, ...]):
        """For each generator g_i with a nonzero value and a nonempty
        field: (shift, mask, terms) with one (step, coefficient, others,
        signs) per term t of L * D(g_i), where L is the least common
        multiple of every coefficient denominator of the generator values,
        step is the code of t - g_i, others the bits of the odd generators
        of t other than g_i, and signs the odd bits whose count in a
        source fixes the term's sign.  Computed once per field layout."""
        cached = self._integral.get(fields)
        if cached is None:
            gens = self.algebra.generators
            odd = self.algebra._odd
            values = self._values
            width = [fields[i + 1] - fields[i] for i in range(len(gens))]
            for g, w in zip(gens, width):
                if not w and (g.degree % 2 or g.name in values):
                    raise ValueError(f"cannot drop {g.name}: it is not even and closed")
            scale = lcm(*(c.denominator for p in values.values() for c in p.terms.values()))
            odd_bits = sum(1 << fields[k] for k in range(len(gens)) if odd[k])
            below = [(1 << f) - 1 for f in fields]  # the bits of the generators before each
            cached = []
            for i, g in enumerate(gens):
                if g.name not in values or not width[i]:
                    continue
                terms = []
                for t, c in values[g.name].terms.items():
                    others = [k for k, b in enumerate(t) if b and odd[k] and k != i]
                    step = sum(b << fields[k] for k, b in enumerate(t) if width[k])
                    step -= 1 << fields[i]
                    signs = below[i] if (self.degree_shift + len(others)) % 2 else 0
                    for k in others:
                        signs ^= below[k]
                    c = int(c * scale) * (-1 if odd[i] and sum(k > i for k in others) % 2 else 1)
                    terms.append((step, c, sum(1 << fields[k] for k in others), signs & odd_bits))
                cached.append((fields[i], (1 << width[i]) - 1, tuple(terms)))
            cached = self._integral[fields] = tuple(cached)
        return cached

    def integral_columns(
        self, sources: Iterable[int], index: Mapping[int, int], fields: tuple[int, ...]
    ) -> list[dict[int, int]]:
        """For each source monomial m, L * D(m) as a sparse integer column
        {index[code]: coefficient}, with L as in ``_packed_terms``.

        Sources and keys are packed codes with the given fields (see the
        module docstring).  The empty field of g makes a source stand for
        the g-free monomial m, and the term g^c * z of L * D(m) land on
        the code of z (within one degree, z fixes c).  As g is even and
        closed it contributes no term and no sign, so the coefficients are
        those of the full monomials.

        This is ``_apply_monomial`` on codes.  With P[k] the number of odd
        factors of m before generator k, the Leibniz sign of the i-th term
        is (-1)^(shift * P[i]); reordering left * t * right into canonical
        order moves each odd factor j of t past the odd factors of m
        strictly between j and i, which is P[j] + P[i] (plus one when
        j > i and g_i is odd) modulo 2, and the product vanishes when t
        repeats an odd factor of m.  Each P is the bit count of m's odd
        bits below a field, and a sum of bit counts of m under several
        masks has the parity of the bit count under their exclusive or,
        so one bit count gives the sign.
        """
        table = self._packed_terms(fields)
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
                    row = index[code + step]
                    v = col.get(row, 0) + (-c if (code & signs).bit_count() & 1 else c) * e
                    if v:
                        col[row] = v
                    else:
                        del col[row]
            columns.append(col)
        return columns


class DifferentialViolation(NamedTuple):
    generator: str
    residual: Polynomial

    def __str__(self) -> str:
        try:
            return f"d^2({self.generator}) = {self.residual} != 0"
        except ValueError:  # a coefficient with more digits than Python prints
            return f"d^2({self.generator}) != 0, with a coefficient too long to print"


def check_differential(d: Derivation, max_degree: int) -> Optional[DifferentialViolation]:
    """Verify d(d(g)) == 0 for every generator g with degree(g) + 2 <=
    max_degree; returns the first violation in generator order, or None.

    Since d∘d is itself a derivation, vanishing on generators is
    equivalent to vanishing everywhere.
    """
    if d.degree_shift != 1:
        raise WrongDegreeShiftError(
            f"differential must have degree shift +1, got {d.degree_shift}"
        )
    alg = d.algebra
    for g in alg.generators:
        if g.degree + 2 <= max_degree:
            residual = d(d.of_generator(g.name))
            if residual:
                return DifferentialViolation(g.name, residual)
    return None
