from fractions import Fraction

import pytest

from loopinv.curvature import (
    CurvaturePair,
    InvariantViolationError,
    KernelBoundInputs,
    enumerate_pairs,
    kernel_lower_bound,
)
from loopinv.pseudoisotopy import pseudoisotopy_table
from support import load_model

# hypothesis data for the d=2 instance: the boundary is 7-dimensional,
# its pseudoisotopy homotopy in the certified degrees is one-dimensional
# and pure minus, and the relevant diffeomorphism groups are rationally
# trivial (externally supplied facts)
D2_CASE = KernelBoundInputs(
    i=17, m=56, dim_boundary=7, dim_P=1, dim_inv_plus=0, dim_inv_minus=1, dim_diff=0
)


def test_bound_applicable_d2():
    result = kernel_lower_bound(D2_CASE)
    assert result.applicable
    assert result.bound == Fraction(1, 2)
    assert result.nontrivial_kernel


def test_bound_not_applicable_small_dimension():
    inp = KernelBoundInputs(i=1, m=0, dim_boundary=5, dim_P=0, dim_inv_plus=0, dim_inv_minus=0)
    result = kernel_lower_bound(inp)
    assert not result.applicable
    assert result.bound is None
    assert result.failed_hypothesis == (
        "dimension hypothesis: dim_boundary + m = 5 < max(3i+7, 2i+9) = 11"
    )


def test_bound_not_applicable_negative_m():
    inp = KernelBoundInputs(i=17, m=-1, dim_boundary=7, dim_P=1, dim_inv_plus=0, dim_inv_minus=1)
    assert "m must be >= 0" in kernel_lower_bound(inp).failed_hypothesis


def test_bound_not_applicable_i_zero():
    inp = KernelBoundInputs(i=0, m=56, dim_boundary=7, dim_P=1, dim_inv_plus=0, dim_inv_minus=1)
    assert "i must be >= 1" in kernel_lower_bound(inp).failed_hypothesis


def test_bound_not_applicable_wrong_parity():
    # flip m by one: total dimension becomes even but the plus part is 0
    inp = KernelBoundInputs(
        i=17, m=57, dim_boundary=7, dim_P=1, dim_inv_plus=0, dim_inv_minus=1
    )
    result = kernel_lower_bound(inp)
    assert not result.applicable
    assert result.failed_hypothesis == (
        "eigenspace inequality: dim_P/2 = 1/2 > dim_inv_plus = 0 (total dimension even)"
    )


def test_bound_not_applicable_odd_parity():
    # D2_CASE with the eigenspaces swapped: total dimension 63 is odd but the minus part is 0
    inp = KernelBoundInputs(
        i=17, m=56, dim_boundary=7, dim_P=1, dim_inv_plus=1, dim_inv_minus=0
    )
    result = kernel_lower_bound(inp)
    assert not result.applicable
    assert result.bound is None
    assert result.failed_hypothesis == (
        "eigenspace inequality: dim_P/2 = 1/2 > dim_inv_minus = 0 (total dimension odd)"
    )


def test_bound_m_too_small():
    inp = KernelBoundInputs(
        i=17, m=50, dim_boundary=7, dim_P=1, dim_inv_plus=0, dim_inv_minus=1
    )
    result = kernel_lower_bound(inp)
    assert not result.applicable
    assert "dimension hypothesis" in result.failed_hypothesis


def test_bound_subtracts_diff_dimension():
    inp = KernelBoundInputs(
        i=17, m=56, dim_boundary=7, dim_P=1, dim_inv_plus=0, dim_inv_minus=1, dim_diff=3
    )
    result = kernel_lower_bound(inp)
    assert result.applicable
    assert result.bound == Fraction(1, 2) - 3
    assert not result.nontrivial_kernel


def test_inputs_invariant_enforced():
    with pytest.raises(InvariantViolationError):
        KernelBoundInputs(i=1, m=1, dim_boundary=5, dim_P=2, dim_inv_plus=0, dim_inv_minus=0)


# ---------------------------------------------------------------------
# enumeration


def test_enumerate_d2_first_three():
    pairs = enumerate_pairs(2, 5)
    assert [(p.j, p.i, p.m_min) for p in pairs] == [
        (1, 17, 56),
        (3, 29, 92),
        (5, 41, 128),
    ]
    assert [p.conclusion_degree for p in pairs] == [18, 30, 42]


def test_enumerate_d3_first():
    # m > 84 with m = 6 = 2 mod 4 gives 86
    assert enumerate_pairs(3, 1) == [CurvaturePair(1, 29, 86, 30)]


def test_enumerate_j_max_zero():
    assert enumerate_pairs(2, 0) == []


def test_enumerate_rejects_small_d():
    with pytest.raises(ValueError):
        enumerate_pairs(1, 5)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("j_max", [1, 7])
def test_enumerate_invariants(d, j_max):
    for p in enumerate_pairs(d, j_max):
        assert p.j % 2 == 1 and p.j <= j_max
        assert p.i == 8 * d - 5 + (4 * d - 2) * p.j
        lower = 20 * d - 6 + (12 * d - 6) * p.j
        assert p.m_min > lower
        assert p.m_min % 4 == (2 * d) % 4
        assert 1 <= p.m_min - lower <= 4
        assert p.conclusion_degree == p.i + 1


# ---------------------------------------------------------------------
# the eigenspace condition computed from the model pipeline


def _bound_from_row(table, i, m, dim_boundary):
    """The kernel bound on row i of a pseudoisotopy table, with dim_diff 0."""
    row = table.row(i)
    dim_p = row.invP_plus + row.invP_minus
    return kernel_lower_bound(
        KernelBoundInputs(i, m, dim_boundary, dim_p, row.invP_plus, row.invP_minus)
    )


def test_eigen_condition_d2_degree_seventeen():
    # dim_boundary + m = 63 reads the inequality against Inv-, 64 against Inv+
    table = pseudoisotopy_table(load_model("sphere-bundle-d2.model"), 20)
    assert _bound_from_row(table, 17, 56, 7).applicable
    failed = _bound_from_row(table, 17, 57, 7).failed_hypothesis
    assert failed.startswith("eigenspace inequality") and failed.endswith("(total dimension even)")


def test_eigen_condition_d2_degree_three():
    table = pseudoisotopy_table(load_model("sphere-bundle-d2.model"), 6)
    assert _bound_from_row(table, 3, 9, 7).applicable  # dim_boundary + m = 16, even


@pytest.mark.parametrize("d", [2, 3, 4], ids=lambda d: f"d{d}")
def test_enumeration_agrees_with_pipeline(d):
    """The closed-form enumeration and the computed pipeline certify the
    same degrees: at every enumerated (i, m_min) the computed
    pseudoisotopy row is one-dimensional, and the kernel bound on it
    applies (so the eigenspace inequality holds with the parity of
    dim_boundary + m_min) and is positive.  The bundled model of the unit
    tangent bundle of S^{2d} goes through the model route, so every bfk
    pair up to j = 5 is checked for d = 2, 3, 4."""
    model = load_model(f"sphere-bundle-d{d}.model")
    pairs = enumerate_pairs(d, 5)
    table = pseudoisotopy_table(model, max(p.i for p in pairs) + 3)
    for p in pairs:
        row = table.row(p.i)
        assert row.invP_plus + row.invP_minus == 1
        result = _bound_from_row(table, p.i, p.m_min, 4 * d - 1)
        assert result.applicable and result.nontrivial_kernel
