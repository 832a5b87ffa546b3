"""Degrees where spaces of complete nonnegatively curved metrics on
tangent-disk-bundle-times-sphere manifolds have nontrivial rational
homotopy.

Two independent routes are provided.  ``kernel_lower_bound`` is an
arithmetic checker: given the eigenspace data of the stable pseudoisotopy
space of the boundary of a compact manifold E, it certifies the lower
bound

    dim ker pi_i(extension map for E x S^m)  >=  dim_P / 2 - dim_diff

whenever its hypotheses hold, reporting the first violated hypothesis
otherwise.  The bound is kept as an exact rational; a nontrivial kernel
is certified when it is positive.  ``enumerate_pairs`` is the closed-form
enumeration for the unit tangent bundle of an even-dimensional sphere
S^{2d}: for each odd j it produces the degree i = 8d-5+(4d-2)j and the
smallest sphere dimension m with m > 20d-6+(12d-6)j and m = 2d mod 4 for
which the metric space of E x S^m has nontrivial rational homotopy in
degree i+1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .algebra import Value


class InvariantViolationError(ValueError):
    category = "InvariantViolation"


class KernelBoundInputs(Value):
    """Hypothesis data for the kernel bound.

    dim_P, dim_inv_plus, dim_inv_minus describe pi_i of the stable
    pseudoisotopy space of the boundary of E and its eigenspace split;
    dim_diff is dim pi_i of the diffeomorphism group of E x D^m rel
    boundary.  These are caller-supplied facts, not derived here, and
    none of the five dimensions may be negative.
    """

    __slots__ = _fields = (
        "i", "m", "dim_boundary", "dim_P", "dim_inv_plus", "dim_inv_minus", "dim_diff"
    )

    def __init__(
        self,
        i: int,
        m: int,
        dim_boundary: int,
        dim_P: int,
        dim_inv_plus: int,
        dim_inv_minus: int,
        dim_diff: int = 0,
    ):
        dims = (dim_boundary, dim_P, dim_inv_plus, dim_inv_minus, dim_diff)
        for name, dim in zip(self._fields[2:], dims):
            if dim < 0:
                raise InvariantViolationError(f"{name} must be >= 0, got {dim}")
        if dim_inv_plus + dim_inv_minus != dim_P:
            raise InvariantViolationError(
                f"eigenspace dimensions {dim_inv_plus}+{dim_inv_minus} "
                f"do not add up to dim_P = {dim_P}"
            )
        super().__init__(i, m, *dims)


class KernelBoundResult(Value):
    __slots__ = _fields = ("applicable", "bound", "failed_hypothesis")

    def __init__(
        self, applicable: bool, bound: Optional[Fraction], failed_hypothesis: Optional[str]
    ):
        super().__init__(applicable, bound, failed_hypothesis)

    @property
    def nontrivial_kernel(self) -> bool:
        return self.applicable and self.bound > 0


def kernel_lower_bound(inp: KernelBoundInputs) -> KernelBoundResult:
    """Exact lower bound dim_P/2 - dim_diff on the kernel dimension, or
    NotApplicable naming the first failed hypothesis."""
    if inp.m < 0:
        return KernelBoundResult(False, None, "m must be >= 0")
    if inp.i < 1:
        return KernelBoundResult(False, None, "i must be >= 1")
    needed = max(3 * inp.i + 7, 2 * inp.i + 9)
    if inp.dim_boundary + inp.m < needed:
        return KernelBoundResult(
            False,
            None,
            f"dimension hypothesis: dim_boundary + m = {inp.dim_boundary + inp.m} "
            f"< max(3i+7, 2i+9) = {needed}",
        )
    half = Fraction(inp.dim_P, 2)
    if (inp.dim_boundary + inp.m) % 2 == 0:
        if half > inp.dim_inv_plus:
            return KernelBoundResult(
                False,
                None,
                f"eigenspace inequality: dim_P/2 = {half} > dim_inv_plus = "
                f"{inp.dim_inv_plus} (total dimension even)",
            )
    else:
        if half > inp.dim_inv_minus:
            return KernelBoundResult(
                False,
                None,
                f"eigenspace inequality: dim_P/2 = {half} > dim_inv_minus = "
                f"{inp.dim_inv_minus} (total dimension odd)",
            )
    return KernelBoundResult(True, half - inp.dim_diff, None)


class CurvaturePair(Value):
    """One certified degree: for every admissible m (in particular m_min)
    the metric space of the bundle-times-S^m manifold has nontrivial
    rational homotopy in conclusion_degree = i + 1."""

    __slots__ = _fields = ("j", "i", "m_min", "conclusion_degree")

    def __init__(self, j: int, i: int, m_min: int, conclusion_degree: int):
        super().__init__(j, i, m_min, conclusion_degree)


def enumerate_pairs(d: int, j_max: int) -> list[CurvaturePair]:
    """Pairs (i, m_min) for the unit tangent bundle of S^{2d}, one per
    odd j <= j_max: i = 8d-5+(4d-2)j, and m_min the smallest integer
    exceeding 20d-6+(12d-6)j with m = 2d mod 4."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    pairs = []
    residue = (2 * d) % 4
    for j in range(1, j_max + 1, 2):
        i = 8 * d - 5 + (4 * d - 2) * j
        lower = 20 * d - 6 + (12 * d - 6) * j
        start = lower + 1
        m_min = start + (residue - start) % 4
        pairs.append(CurvaturePair(j, i, m_min, i + 1))
    return pairs
