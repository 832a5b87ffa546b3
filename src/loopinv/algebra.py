"""Free graded-commutative algebras over Q on finitely many generators.

A monomial is a tuple of exponents aligned with the algebra's generator
order (declaration order is canonical order).  Odd-degree generators are
exterior: their exponents never exceed one and their squares vanish.
Reordering a product into canonical order accumulates the Koszul sign,
one factor of -1 for every transposition of two odd generators.
Coefficients are exact: a ``Polynomial`` holds each as an int where it
is integral and as a Fraction only where it is not, so integral models
compute on ints.

A model's differential is its values on generators (``models.DgaModel``).
The package applies the Leibniz rule with these signs in one place, on
packed monomial codes (``cohomology.integral_columns``, which also runs
the square-zero gate of every model); the suspension of the loop model,
the one other derivation, is written out in ``models._free_loop``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import add, mul
from typing import Iterable, Mapping, NamedTuple, Optional, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


class Generator(NamedTuple):
    name: str
    degree: int


class Value:
    """Fields named in ``_fields`` (and listed in ``__slots__``), set once
    by ``__init__``; ==, hash and repr go field by field, as in a frozen
    dataclass, and assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._fields)

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self._fields))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle restore every slot
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class GradedAlgebra:
    """Lambda(g_1, ..., g_l): polynomial on even generators tensor
    exterior on odd generators."""

    __slots__ = ("generators", "_index", "_degrees", "_odd", "_zero")

    def __init__(self, generators: Iterable):
        names, degrees = [], []
        for name, degree in generators:
            if not isinstance(name, str) or not name:
                raise ValueError(f"generator name must be a nonempty string, got {name!r}")
            if degree < 1:
                raise ValueError(f"generator {name} has degree {degree}; degrees must be >= 1")
            names.append(name)
            degrees.append(int(degree))
        self.generators = tuple(map(Generator, names, degrees))
        self._index = dict(zip(names, range(len(names))))
        if len(self._index) != len(names):
            raise ValueError("generator names must be unique")
        self._degrees = tuple(degrees)
        self._odd = tuple(d % 2 == 1 for d in degrees)
        self._zero = Polynomial(self, {})

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedAlgebra) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self) -> str:
        inner = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"GradedAlgebra({inner})"

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._index)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def degree_of(self, name: str) -> int:
        return self._degrees[self.index(name)]

    def monomial_degree(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self._degrees))

    def multiply_monomials(self, m1: Monomial, m2: Monomial) -> Optional[tuple[int, Monomial]]:
        """(koszul sign, product monomial), or None when an odd generator
        repeats and the product is zero: each odd factor of m2 moves left
        past the odd factors of m1 after it."""
        o1, o2 = [*compress(m1, self._odd)], [*compress(m2, self._odd)]
        return None if any(map(mul, o1, o2)) else (
            (-1) ** sum(b * sum(o1[k + 1 :]) for k, b in enumerate(o2)), tuple(map(add, m1, m2))
        )

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
        return self._zero

    def unit(self) -> "Polynomial":
        return Polynomial(self, {(0,) * len(self.generators): 1})

    def gen(self, name: str) -> "Polynomial":
        i = self.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(self.generators)))
        return Polynomial(self, {mono: 1})

    def poly(self, terms: Mapping[Monomial, Scalar]) -> "Polynomial":
        return Polynomial(self, dict(terms))


def _exact(c: Scalar) -> Scalar:
    """A rational as an int where it is one, which computes faster."""
    return c.numerator if c.denominator == 1 else c


class Polynomial:
    """Finite Q-linear combination of monomials of one algebra.

    ``terms`` maps monomials to nonzero coefficients, each an int where
    it is integral, else a Fraction; treat it as immutable.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: GradedAlgebra, terms: Mapping[Monomial, Scalar]):
        clean: dict[Monomial, Scalar] = {}
        width, odd = len(algebra.generators), algebra._odd
        for mono, c in terms.items():
            if type(c) is not int:
                c = _exact(c if isinstance(c, Fraction) else Fraction(c))
            if not c:
                continue
            if len(mono) != width:
                raise ValueError(f"monomial {mono} has wrong width for {algebra!r}")
            mono = tuple(mono)
            if max(compress(mono, odd), default=0) > 1:
                continue  # squares of odd generators vanish
            clean[mono] = c
        self.algebra = algebra
        self.terms = clean

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and (self.algebra is other.algebra or self.algebra == other.algebra)
            and self.terms == other.terms
        )

    def _require_same_algebra(self, other: "Polynomial") -> None:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValueError("polynomials live in different algebras")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_algebra(other)
        acc = dict(self.terms)
        for mono, c in other.terms.items():
            acc[mono] = acc.get(mono, 0) + c
        return Polynomial(self.algebra, acc)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_algebra(other)
        acc: dict[Monomial, Scalar] = {}
        mult = self.algebra.multiply_monomials
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                hit = mult(m1, m2)
                if hit is not None:
                    sign, mono = hit
                    acc[mono] = acc.get(mono, 0) + sign * c1 * c2
        return Polynomial(self.algebra, acc)

    def scale(self, scalar: Scalar) -> "Polynomial":
        c = scalar if isinstance(scalar, (int, Fraction)) else Fraction(scalar)
        return Polynomial(self.algebra, {m: c * v for m, v in self.terms.items()})

    def degrees(self) -> set[int]:
        degrees = self.algebra._degrees
        return {sum(map(mul, m, degrees)) for m in self.terms}

    def is_homogeneous_of(self, degree: int) -> bool:
        """True when every term has the given degree (vacuously for 0)."""
        return self.degrees() <= {degree}

    def min_word_length(self) -> Optional[int]:
        return min(map(sum, self.terms), default=None)

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

