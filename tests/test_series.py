import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopinv.algebra import GradedAlgebra
from loopinv.series import (
    ExprTerm,
    RationalExpr,
    SeriesExprError,
    TruncatedSeries,
    equals_expr,
    parse_expr,
)
from support import algebra_generating_function, per_degree_monomial_basis


def test_expand_geometric():
    s = RationalExpr.geometric(0, 4).expand(10)
    assert s.coeffs == (1, 0, 0, 0, 1, 0, 0, 0, 1, 0)


def test_expand_bare_monomial():
    s = RationalExpr.monomial(2).expand(4)
    assert s.coeffs == (0, 0, 1, 0)


def test_expand_minus_eigenspace_closed_form():
    # t^6/(1-t^12) + t^2/(1-t^4): ones on 2 mod 4, doubled at 6 and 18
    e = RationalExpr.geometric(6, 12) + RationalExpr.geometric(2, 4)
    s = e.expand(20)
    expected = [0] * 20
    for n in range(2, 20, 4):
        expected[n] += 1
    expected[6] += 1
    expected[18] += 1
    assert s.coeffs == tuple(expected)


def test_expand_linear():
    e1 = RationalExpr.geometric(1, 3)
    e2 = RationalExpr.monomial(5, coeff=-2)
    assert (e1 + e2).expand(12).coeffs == tuple(
        a + b for a, b in zip(e1.expand(12).coeffs, e2.expand(12).coeffs)
    )


def test_shift_down_drops_leading():
    s = TruncatedSeries((1, 0, 1, 0, 1, 0))
    assert s.shift(-1).coeffs == (0, 1, 0, 1, 0)


def test_shift_up_zero_fills():
    s = TruncatedSeries((1, 2))
    assert s.shift(3).coeffs == (0, 0, 0, 1, 2)


def test_shift_round_trip():
    s = TruncatedSeries((5, 4, 3, 2, 1))
    back = s.shift(2).shift(-2)
    assert back.coeffs == s.coeffs


def test_subtraction_recovers_reduced_part():
    # (t^2/(1-t^4) + t^6/(1-t^12)) - t^2/(1-t^4) == t^6/(1-t^12)
    absolute = (RationalExpr.geometric(2, 4) + RationalExpr.geometric(6, 12)).expand(30)
    point = RationalExpr.geometric(2, 4).expand(30)
    assert (absolute - point).coeffs == RationalExpr.geometric(6, 12).expand(30).coeffs


def test_self_subtraction_is_zero():
    s = RationalExpr.geometric(3, 5, coeff=7).expand(17)
    assert all(c == 0 for c in (s - s).coeffs)


def test_arithmetic_trims_to_common_range():
    a = TruncatedSeries((1, 1, 1, 1))
    b = TruncatedSeries((1, 1))
    assert (a + b).cap == 2


def test_reliable_range_enforced():
    s = TruncatedSeries((1, 2, 3))
    assert s[2] == 3
    with pytest.raises(IndexError):
        s[3]


def test_equals_expr_golden():
    e = RationalExpr.geometric(0, 4) + RationalExpr.geometric(12, 12)
    s = e.expand(20)
    assert equals_expr(s, e)


def test_equals_expr_zero():
    assert equals_expr(TruncatedSeries((0, 0, 0)), RationalExpr.zero())


def test_equals_expr_detects_difference_at_degree_two():
    plus = RationalExpr.geometric(0, 4) + RationalExpr.geometric(12, 12)
    minus = RationalExpr.geometric(2, 4) + RationalExpr.geometric(6, 12)
    assert not equals_expr(plus.expand(20), minus)


def test_generating_function_single_even():
    alg = GradedAlgebra([("alpha", 2)])
    assert algebra_generating_function(alg, 7).coeffs == (1, 0, 1, 0, 1, 0, 1)


def test_generating_function_single_odd():
    alg = GradedAlgebra([("x", 7)])
    assert algebra_generating_function(alg, 9).coeffs == (1, 0, 0, 0, 0, 0, 0, 1, 0)


def test_generating_function_counts_degree_thirteen():
    # degree 13 monomials of Lambda(alpha:2, x:7, x_bar:6): alpha^3 x and x_bar x
    alg = GradedAlgebra([("alpha", 2), ("x", 7), ("x_bar", 6)])
    gf = algebra_generating_function(alg, 14)
    assert gf[13] == 2
    for n in range(14):
        assert gf[n] == len(per_degree_monomial_basis(alg, n))


# ---------------------------------------------------------------------
# expression parsing


@pytest.mark.parametrize(
    "text,terms",
    [
        ("1/(1-t^4)", (ExprTerm(1, 0, 4),)),
        ("t^2", (ExprTerm(1, 2, None),)),
        ("t", (ExprTerm(1, 1, None),)),
        ("5", (ExprTerm(5, 0, None),)),
        ("3*t^2/(1-t^6)", (ExprTerm(3, 2, 6),)),
        (" t^3 / (1 - t^4) ", (ExprTerm(1, 3, 4),)),
        ("1/(1-t^4) + t^12/(1-t^12)", (ExprTerm(1, 0, 4), ExprTerm(1, 12, 12))),
        ("t^2/(1-t^4) - t^6/(1-t^12)", (ExprTerm(1, 2, 4), ExprTerm(-1, 6, 12))),
        ("-t^3 + 2", (ExprTerm(-1, 3, None), ExprTerm(2, 0, None))),
        ("0", ()),
        ("1/(1-t)", (ExprTerm(1, 0, 1),)),
        ("2*t^3/(1-t) - t", (ExprTerm(2, 3, 1), ExprTerm(-1, 1, None))),
    ],
)
def test_parse_expr(text, terms):
    assert parse_expr(text).terms == terms


@pytest.mark.parametrize(
    "bad", ["", "q", "t^", "1/(1-t^)", "1/(1-t", "t^2/(1+t^4)", "++", "1/(1-t^0)"]
)
def test_parse_expr_rejects(bad):
    with pytest.raises(SeriesExprError):
        parse_expr(bad)


def test_parse_round_trip_through_str():
    e = parse_expr("t^3/(1-t^4) + t^11/(1-t^12) - 2*t^5")
    assert parse_expr(str(e)) == e
    assert str(parse_expr("t/(1-t)")) == "t/(1-t^1)"  # the period is always written


@given(
    st.lists(
        st.builds(
            ExprTerm,
            st.integers(min_value=-5, max_value=5).filter(bool),
            st.integers(min_value=0, max_value=10),
            st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
        ),
        max_size=4,
    ),
    st.integers(min_value=1, max_value=40),
)
def test_expand_linearity_random(terms, cap):
    whole = RationalExpr(terms).expand(cap)
    split = TruncatedSeries([0] * cap)
    for term in terms:
        split = split + RationalExpr((term,)).expand(cap)
    assert whole.coeffs == split.coeffs
