"""Truncated Poincare series and closed-form series expressions.

A TruncatedSeries stores integer coefficients for degrees 0..cap-1 and
stores nothing else: every arithmetic operation shrinks the stored range
to whatever remains reliable, so a coefficient you can read is a
coefficient you can trust.  Closed forms are sums of terms c*t^a and
c*t^a/(1-t^b); the module only expands and compares them, it never
infers a closed form from a truncation.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .algebra import Value


class SeriesExprError(ValueError):
    """Malformed closed-form series expression."""

    category = "SeriesSyntax"


class TruncatedSeries(Value):
    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        super().__init__(tuple(int(c) for c in coeffs))

    @property
    def cap(self) -> int:
        """Coefficients are known for degrees 0..cap-1."""
        return len(self.coeffs)

    def __getitem__(self, degree: int) -> int:
        if not 0 <= degree < len(self.coeffs):
            raise IndexError(
                f"degree {degree} is outside the reliable range 0..{len(self.coeffs) - 1}"
            )
        return self.coeffs[degree]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        return TruncatedSeries(a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n]))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        return TruncatedSeries(a - b for a, b in zip(self.coeffs[:n], other.coeffs[:n]))

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k.  k > 0 zero-fills below degree k; k < 0 drops
        the lowest coefficients and shortens the reliable range."""
        if k >= 0:
            return TruncatedSeries((0,) * k + self.coeffs)
        return TruncatedSeries(self.coeffs[-k:])

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


class ExprTerm(Value):
    """coeff * t^power, or coeff * t^power / (1 - t^period)."""

    __slots__ = _fields = ("coeff", "power", "period")

    def __init__(self, coeff: int, power: int, period: Optional[int] = None):
        if power < 0:
            raise SeriesExprError("numerator power must be >= 0")
        if period is not None and period < 1:
            raise SeriesExprError("denominator period must be >= 1")
        super().__init__(coeff, power, period)

    def __str__(self) -> str:
        if self.power == 0:
            head = str(abs(self.coeff)) if abs(self.coeff) != 1 or self.period is None else "1"
        else:
            t = "t" if self.power == 1 else f"t^{self.power}"
            head = t if abs(self.coeff) == 1 else f"{abs(self.coeff)}*{t}"
        if self.period is not None:
            head += f"/(1-t^{self.period})"
        return head


class RationalExpr(Value):
    __slots__ = _fields = ("terms",)

    def __init__(self, terms: Iterable[ExprTerm]):
        super().__init__(tuple(terms))

    @classmethod
    def zero(cls) -> "RationalExpr":
        return cls(())

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "RationalExpr":
        return cls((ExprTerm(coeff, power, None),))

    @classmethod
    def geometric(cls, power: int, period: int, coeff: int = 1) -> "RationalExpr":
        """coeff * t^power / (1 - t^period)."""
        return cls((ExprTerm(coeff, power, period),))

    def __add__(self, other: "RationalExpr") -> "RationalExpr":
        return RationalExpr(self.terms + other.terms)

    def expand(self, cap: int) -> TruncatedSeries:
        if cap < 1:
            raise ValueError("cap must be >= 1")
        coeffs = [0] * cap
        for term in self.terms:
            if term.period is None:
                if term.power < cap:
                    coeffs[term.power] += term.coeff
            else:
                for n in range(term.power, cap, term.period):
                    coeffs[n] += term.coeff
        return TruncatedSeries(coeffs)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = ""
        for i, term in enumerate(self.terms):
            if i == 0:
                out = ("-" if term.coeff < 0 else "") + str(term)
            else:
                out += (" - " if term.coeff < 0 else " + ") + str(term)
        return out


# A coefficient is a sum of fewer than 10^300 parsed numbers, so with at
# most this many digits each it stays below the 4300 digits that Python
# converts to and from strings by default.
_MAX_DIGITS = 4000


def _int(digits: str) -> int:
    if len(digits) > _MAX_DIGITS:
        raise SeriesExprError(
            f"number with {len(digits)} digits is too long (at most {_MAX_DIGITS})"
        )
    return int(digits)


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>[0-9]+)\*?)?"
    r"(?:t(?:\^(?P<power>[0-9]+))?)?"
    r"(?P<den>/\(1-t(?:\^(?P<period>[0-9]+))?\))?$"
)


def parse_expr(text: str) -> RationalExpr:
    """Parse `c*t^a/(1-t^b)` terms joined by + or -; whitespace ignored."""
    squeezed = re.sub(r"\s+", "", text)
    if not squeezed:
        raise SeriesExprError("empty expression")
    if squeezed == "0":
        return RationalExpr.zero()
    chunks: list[tuple[int, str]] = []
    sign, start, depth = 1, 0, 0
    if squeezed[0] in "+-":
        sign = -1 if squeezed[0] == "-" else 1
        start = 1
    pos = start
    for pos in range(start, len(squeezed)):
        ch = squeezed[pos]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            chunks.append((sign, squeezed[start:pos]))
            sign = -1 if ch == "-" else 1
            start = pos + 1
    chunks.append((sign, squeezed[start:]))
    terms = []
    for sgn, chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or not chunk:
            raise SeriesExprError(f"cannot parse series term {chunk!r}")
        coeff_s, power_s, period_s = m.group("coeff"), m.group("power"), m.group("period")
        has_t = "t" in chunk.split("/(", 1)[0]
        if coeff_s is None and not has_t:
            raise SeriesExprError(f"cannot parse series term {chunk!r}")
        coeff = _int(coeff_s) if coeff_s is not None else 1
        power = _int(power_s) if power_s is not None else (1 if has_t else 0)
        period = _int(period_s) if period_s is not None else (1 if m.group("den") else None)
        terms.append(ExprTerm(sgn * coeff, power, period))
    return RationalExpr(terms)


def equals_expr(s: TruncatedSeries, e: RationalExpr) -> bool:
    """True iff the expansion of e matches s on s's whole reliable range."""
    if s.cap == 0:
        return True
    return e.expand(s.cap).coeffs == s.coeffs

