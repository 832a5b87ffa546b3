from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopinv.algebra import (
    Derivation,
    GradedAlgebra,
    WrongDegreeShiftError,
    check_differential,
)
from loopinv.cohomology import build_layout
from loopinv.models import DgaModel
from loopinv.series import algebra_generating_function
from support import (
    AlgebraMap,
    brute_force_monomial_count,
    chain_basis,
    per_degree_monomial_basis,
    product_derivation,
)


@pytest.fixture
def borel_algebra():
    # the d=2 Borel algebra: polynomial alpha, exterior x, polynomial x_bar
    return GradedAlgebra([("alpha", 2), ("x", 7), ("x_bar", 6)])


def test_monomial_basis_degree_six(borel_algebra):
    # brute force enumeration gives {alpha^3, x_bar}
    basis = per_degree_monomial_basis(borel_algebra, 6)
    assert set(basis) == {(3, 0, 0), (0, 0, 1)}
    assert list(basis) == sorted(basis)  # lexicographic order


def test_monomial_basis_degree_zero(borel_algebra):
    assert per_degree_monomial_basis(borel_algebra, 0) == ((0, 0, 0),)


def test_monomial_basis_exterior_square_vanishes():
    alg = GradedAlgebra([("y", 3)])
    assert per_degree_monomial_basis(alg, 6) == ()


@pytest.mark.parametrize("degree", range(0, 16))
def test_monomial_basis_matches_brute_force(borel_algebra, degree):
    assert len(per_degree_monomial_basis(borel_algebra, degree)) == brute_force_monomial_count(
        borel_algebra, degree
    )


@pytest.mark.parametrize(
    "gens",
    [
        [("alpha", 2), ("x", 7), ("x_bar", 6)],
        [("alpha", 2), ("a", 2), ("a_bar", 1), ("b", 3), ("b_bar", 2)],
        [("p", 3), ("q", 5), ("r", 4), ("s", 1), ("t", 6), ("u", 9)],
    ],
)
def test_one_pass_bases_match_per_degree_search(gens):
    # build_layout enumerates every degree in one pass; its block bases
    # together are the whole monomial basis of each degree
    cap = 24
    alg = GradedAlgebra(gens)
    gf = algebra_generating_function(alg, cap + 1)
    dga = DgaModel(alg, Derivation(alg, 1, {}))
    layout = build_layout(dga, cap)
    for n in range(cap + 1):
        want = per_degree_monomial_basis(alg, n)
        one_pass = sorted(m for block in layout.dims[n] for m in chain_basis(layout, n, block))
        assert one_pass == list(want), n
        assert len(want) == gf[n]


def test_polynomial_square_even_generator(borel_algebra):
    xbar = borel_algebra.gen("x_bar")
    assert (xbar * xbar).terms == {(0, 0, 2): Fraction(1)}


def test_exterior_square_is_zero():
    alg = GradedAlgebra([("y", 3)])
    y = alg.gen("y")
    assert not (y * y)


def test_koszul_sign_even_times_odd(borel_algebra):
    # deg x * deg x_bar = 42 is even, so the factors commute on the nose
    x, xbar = borel_algebra.gen("x"), borel_algebra.gen("x_bar")
    assert x * xbar == xbar * x
    assert (x * xbar).terms == {(0, 1, 1): Fraction(1)}


def test_koszul_sign_odd_times_odd():
    alg = GradedAlgebra([("a", 3), ("b", 5)])
    a, b = alg.gen("a"), alg.gen("b")
    assert a * b == -(b * a)


def test_multiply_collects_terms():
    alg = GradedAlgebra([("a", 2), ("b", 2)])
    a, b = alg.gen("a"), alg.gen("b")
    p = a + b
    assert (p * p).terms == {
        (2, 0): Fraction(1),
        (1, 1): Fraction(2),
        (0, 2): Fraction(1),
    }


def test_apply_derivation_generator(borel_algebra):
    d = Derivation(
        borel_algebra,
        1,
        {"x": borel_algebra.gen("alpha") * borel_algebra.gen("x_bar")},
    )
    assert d(borel_algebra.gen("x")) == borel_algebra.gen("alpha") * borel_algebra.gen("x_bar")


def test_apply_derivation_unit(borel_algebra):
    d = Derivation(borel_algebra, 1, {"x": borel_algebra.gen("alpha") * borel_algebra.gen("x_bar")})
    assert not d(borel_algebra.unit())


def test_suspension_on_square():
    # s of degree -1 with s(x) = x_bar: s(x^2) = 2 x x_bar
    alg = GradedAlgebra([("x", 2), ("x_bar", 1)])
    s = Derivation(alg, -1, {"x": alg.gen("x_bar")})
    x = alg.gen("x")
    assert s(x * x) == (alg.gen("x") * alg.gen("x_bar")).scale(2)


def test_derivation_leibniz_with_y_squared_absorbed():
    # d(y*z) for odd y, z picks up the Koszul sign on the second term
    alg = GradedAlgebra([("a", 2), ("y", 3), ("z", 5)])
    a = alg.gen("a")
    d = Derivation(alg, 1, {"y": a * a, "z": a * a * a})
    y, z = alg.gen("y"), alg.gen("z")
    lhs = d(y * z)
    rhs = d(y) * z - y * d(z)  # (-1)^{deg y} = -1
    assert lhs == rhs


def test_derivation_rejects_inhomogeneous_value():
    alg = GradedAlgebra([("a", 2), ("b", 3)])
    with pytest.raises(ValueError):
        Derivation(alg, 1, {"b": alg.gen("a") + alg.gen("a") * alg.gen("a")})


def test_derivation_rejects_wrong_degree_value():
    alg = GradedAlgebra([("a", 2), ("b", 3)])
    with pytest.raises(ValueError):
        Derivation(alg, 1, {"b": alg.gen("a")})  # degree 2, needs 4


def test_apply_map_sign_rule(borel_algebra):
    t = AlgebraMap(
        borel_algebra,
        {
            "alpha": -borel_algebra.gen("alpha"),
            "x_bar": -borel_algebra.gen("x_bar"),
        },
    )
    alpha, xbar = borel_algebra.gen("alpha"), borel_algebra.gen("x_bar")
    assert t(alpha * alpha * alpha) == -(alpha * alpha * alpha)
    assert t(borel_algebra.unit()) == borel_algebra.unit()
    assert t(alpha * xbar) == alpha * xbar  # two sign flips cancel
    assert t(borel_algebra.gen("x")) == borel_algebra.gen("x")  # default: fixed


def test_check_differential_ok(borel_algebra):
    d = Derivation(borel_algebra, 1, {"x": borel_algebra.gen("alpha") * borel_algebra.gen("x_bar")})
    assert check_differential(d) is None


def test_check_differential_zero_ok():
    alg = GradedAlgebra([("a", 2), ("b", 9)])
    assert check_differential(Derivation(alg, 1, {})) is None


def test_check_differential_violation():
    # da = b, db = a^2  =>  d^2(a) = a^2 != 0, reported at generator a
    alg = GradedAlgebra([("a", 2), ("b", 3)])
    d = Derivation(alg, 1, {"a": alg.gen("b"), "b": alg.gen("a") * alg.gen("a")})
    violation = check_differential(d)
    assert violation is not None
    assert violation.generator == "a"
    assert violation.residual == alg.gen("a") * alg.gen("a")


def test_check_differential_wrong_shift():
    alg = GradedAlgebra([("a", 2)])
    with pytest.raises(WrongDegreeShiftError):
        check_differential(Derivation(alg, -1, {}))


def test_generator_degree_zero_rejected():
    with pytest.raises(ValueError):
        GradedAlgebra([("a", 0)])


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        GradedAlgebra([("a", 2), ("a", 4)])


def test_polynomial_str_is_deterministic(borel_algebra):
    alpha = borel_algebra.gen("alpha")
    p = alpha * alpha * alpha * alpha - 2 * (alpha * borel_algebra.gen("x_bar"))
    assert str(p) == "-2*alpha*x_bar + alpha^4"


# ---------------------------------------------------------------------
# property tests on a fixed mixed-parity algebra

_ALG = GradedAlgebra([("a", 2), ("y", 3), ("b", 4), ("z", 5)])
_A = _ALG.gen("a")
_D = Derivation(_ALG, 1, {"y": _A * _A, "z": _A * _A * _A})
_S = Derivation(_ALG, -1, {"b": _ALG.gen("y"), "z": _ALG.gen("b")})
_T = AlgebraMap(_ALG, {"y": -_ALG.gen("y"), "b": -_ALG.gen("b")})


@st.composite
def homogeneous_polys(draw, max_degree=12):
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    basis = per_degree_monomial_basis(_ALG, degree)
    if not basis:
        return degree, _ALG.zero()
    picked = draw(st.lists(st.sampled_from(basis), max_size=3, unique=True))
    nonzero_fractions = st.builds(
        Fraction,
        st.integers(min_value=-9, max_value=9).filter(bool),
        st.integers(min_value=1, max_value=4),
    )
    coeffs = draw(
        st.lists(nonzero_fractions, min_size=len(picked), max_size=len(picked))
    )
    return degree, _ALG.poly(dict(zip(picked, coeffs)))


@settings(max_examples=80)
@given(homogeneous_polys(), homogeneous_polys())
def test_koszul_commutation(pq1, pq2):
    (m, p), (n, q) = pq1, pq2
    sign = -1 if (m * n) % 2 else 1
    assert p * q == (q * p).scale(sign)


@settings(max_examples=60)
@given(homogeneous_polys(), homogeneous_polys(), homogeneous_polys())
def test_multiplication_associative(pq1, pq2, pq3):
    (_, p), (_, q), (_, r) = pq1, pq2, pq3
    assert (p * q) * r == p * (q * r)


@settings(max_examples=80)
@given(homogeneous_polys(), homogeneous_polys())
def test_leibniz_shift_plus_one(pq1, pq2):
    (m, p), (_, q) = pq1, pq2
    sign = -1 if m % 2 else 1
    assert _D(p * q) == _D(p) * q + (p * _D(q)).scale(sign)


@settings(max_examples=80)
@given(homogeneous_polys(), homogeneous_polys())
def test_leibniz_shift_minus_one(pq1, pq2):
    (m, p), (_, q) = pq1, pq2
    sign = -1 if m % 2 else 1
    assert _S(p * q) == _S(p) * q + (p * _S(q)).scale(sign)


@settings(max_examples=80)
@given(homogeneous_polys(), homogeneous_polys())
def test_algebra_map_multiplicative(pq1, pq2):
    (_, p), (_, q) = pq1, pq2
    assert _T(p * q) == _T(p) * _T(q)


# ---------------------------------------------------------------------
# Derivation.__call__ against the Polynomial-product route

_FRACTIONS = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9).filter(bool), st.integers(1, 5)
)


@st.composite
def derivations_with_polys(draw):
    """A random derivation of shift +1 or -1 (square-zero or not) on a
    random algebra with odd and even generators, and a random polynomial
    with rational coefficients, not necessarily homogeneous."""
    degrees = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    alg = GradedAlgebra([(f"g{i}", d) for i, d in enumerate(degrees)])
    shift = draw(st.sampled_from([1, -1]))
    values = {}
    for g in alg.generators:
        basis = per_degree_monomial_basis(alg, g.degree + shift)
        picked = draw(st.lists(st.sampled_from(basis), max_size=4, unique=True)) if basis else []
        values[g.name] = alg.poly({m: draw(_FRACTIONS) for m in picked})
    terms = {}
    for degree in draw(st.lists(st.integers(0, 12), max_size=6)):
        basis = per_degree_monomial_basis(alg, degree)
        if basis:
            terms[draw(st.sampled_from(basis))] = draw(_FRACTIONS)
    return Derivation(alg, shift, values), alg.poly(terms)


# D(y * a) with D(a) = x: the term y * x of the left product reorders to
# -x * y, a Koszul sign that random draws reach only now and then
_KOSZUL_ALG = GradedAlgebra([("x", 3), ("y", 3), ("a", 2)])
_KOSZUL_CASE = (
    Derivation(_KOSZUL_ALG, 1, {"a": _KOSZUL_ALG.gen("x")}),
    _KOSZUL_ALG.gen("y") * _KOSZUL_ALG.gen("a"),
)


@settings(max_examples=300, deadline=None)
@given(derivations_with_polys())
@example(_KOSZUL_CASE)
def test_derivation_matches_polynomial_product_route(dp):
    d, p = dp
    assert d(p) == product_derivation(d, p)
