"""Free graded-commutative algebras over Q on finitely many generators.

A monomial is a tuple of exponents aligned with the algebra's generator
order (declaration order is canonical order).  Odd-degree generators are
exterior: their exponents never exceed one and their squares vanish.
Reordering a product into canonical order accumulates the Koszul sign,
one factor of -1 for every transposition of two odd generators.

A model's differential is its values on generators (``models.DgaModel``).
The package applies the Leibniz rule with these signs in one place, on
packed monomial codes (``cohomology.integral_columns``, which also runs
the square-zero gate of every model); the suspension of the loop model,
the one other derivation, is written out in ``models._free_loop``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


class Generator(NamedTuple):
    name: str
    degree: int


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

    def scale(self, scalar: Scalar) -> "Polynomial":
        c = Fraction(scalar)
        if not c:
            return self.algebra.zero()
        return Polynomial(self.algebra, {m: c * v for m, v in self.terms.items()})

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

