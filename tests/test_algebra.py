"""The graded algebra, the Polynomial-product oracle of the Leibniz rule
(``support.product_derivation``), and the two places where loopinv applies
that rule without it: the square-zero gate on packed codes
(``cohomology.square_zero_residual``) and the suspension written out in
the loop and Borel models, each checked against the oracle."""

from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopinv.algebra import GradedAlgebra
from loopinv.cohomology import square_zero_residual
from loopinv.models import DgaModel, NotSquareZeroError, borel_model, loop_model, parse_model
from support import (
    MODELS_DIR,
    AlgebraMap,
    Derivation,
    algebra_generating_function,
    brute_force_monomial_count,
    chain_basis,
    check_differential,
    enumerated_layout,
    per_degree_monomial_basis,
    product_derivation,
    random_models_within_budget,
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
    # eigen_table enumerates each block of each degree below its top from the
    # layout's head and tail, whatever the split between them; the block bases
    # together are the whole monomial basis of each degree
    cap = 24
    alg = GradedAlgebra(gens)
    gf = algebra_generating_function(alg, cap + 1)
    dga = DgaModel(alg, {})
    for split in range(len(gens) + 1 - any(d % 2 == 0 for _, d in gens)):
        layout = enumerated_layout(dga, cap + 1, split)
        for n in range(cap + 1):
            want = per_degree_monomial_basis(alg, n)
            one_pass = sorted(m for block in (0, 1) for m in chain_basis(layout, n, block))
            assert one_pass == list(want), (split, n)
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
    assert a * b == (b * a).scale(-1)


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
    x = borel_algebra.gen("x")
    assert product_derivation(d, x) == borel_algebra.gen("alpha") * borel_algebra.gen("x_bar")


def test_apply_derivation_unit(borel_algebra):
    d = Derivation(borel_algebra, 1, {"x": borel_algebra.gen("alpha") * borel_algebra.gen("x_bar")})
    assert not product_derivation(d, borel_algebra.unit())


def test_suspension_on_square():
    # s of degree -1 with s(x) = x_bar: s(x^2) = 2 x x_bar
    alg = GradedAlgebra([("x", 2), ("x_bar", 1)])
    s = Derivation(alg, -1, {"x": alg.gen("x_bar")})
    x = alg.gen("x")
    assert product_derivation(s, x * x) == (alg.gen("x") * alg.gen("x_bar")).scale(2)


def test_derivation_leibniz_with_y_squared_absorbed():
    # d(y*z) for odd y, z picks up the Koszul sign on the second term
    alg = GradedAlgebra([("a", 2), ("y", 3), ("z", 5)])
    a = alg.gen("a")
    d = Derivation(alg, 1, {"y": a * a, "z": a * a * a})
    y, z = alg.gen("y"), alg.gen("z")
    lhs = product_derivation(d, y * z)
    rhs = product_derivation(d, y) * z + (y * product_derivation(d, z)).scale(-1)  # (-1)^{deg y}
    assert lhs == rhs


def test_dga_model_rejects_inhomogeneous_value():
    alg = GradedAlgebra([("a", 2), ("b", 3)])
    with pytest.raises(ValueError, match=r"^value for b must be homogeneous of degree 4, got a \+ a\^2$"):
        DgaModel(alg, {"b": alg.gen("a") + alg.gen("a") * alg.gen("a")})


def test_dga_model_rejects_wrong_degree_value():
    alg = GradedAlgebra([("a", 2), ("b", 3)])
    with pytest.raises(ValueError, match=r"^value for b must be homogeneous of degree 4, got a$"):
        DgaModel(alg, {"b": alg.gen("a")})  # degree 2, needs 4


def test_dga_model_rejects_unknown_generator():
    alg = GradedAlgebra([("a", 2), ("b", 3)])
    with pytest.raises(KeyError, match="unknown generator 'c'"):
        DgaModel(alg, {"c": alg.gen("a") * alg.gen("a")})


def test_dga_model_rejects_value_from_another_algebra():
    alg, other = GradedAlgebra([("a", 2), ("b", 3)]), GradedAlgebra([("a", 2), ("b", 3), ("c", 5)])
    with pytest.raises(ValueError, match=r"^value for b lives in a different algebra$"):
        DgaModel(alg, {"b": other.gen("a") * other.gen("a")})


def test_dga_model_differential_holds_every_generator_read_only():
    alg = GradedAlgebra([("a", 2), ("c", 5), ("b", 3)])
    given = {"b": alg.gen("a") * alg.gen("a")}
    model = DgaModel(alg, given)
    assert list(model.differential) == ["a", "c", "b"]
    assert model.differential == {"a": alg.zero(), "c": alg.zero(), "b": given["b"]}
    with pytest.raises(TypeError):
        model.differential["a"] = alg.zero()
    given["b"] = alg.zero()  # the model keeps its own copy
    assert model.differential["b"] == alg.gen("a") * alg.gen("a")


def test_apply_map_sign_rule(borel_algebra):
    t = AlgebraMap(
        borel_algebra,
        {
            "alpha": borel_algebra.gen("alpha").scale(-1),
            "x_bar": borel_algebra.gen("x_bar").scale(-1),
        },
    )
    alpha, xbar = borel_algebra.gen("alpha"), borel_algebra.gen("x_bar")
    assert t(alpha * alpha * alpha) == (alpha * alpha * alpha).scale(-1)
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
    assert check_differential(d) == ("a", alg.gen("a") * alg.gen("a"))


def test_check_differential_wrong_shift():
    # the oracle of the model gate, which only sees model differentials (shift +1)
    alg = GradedAlgebra([("a", 2)])
    with pytest.raises(ValueError, match=r"shift \+1, got -1"):
        check_differential(Derivation(alg, -1, {}))


def test_generator_degree_zero_rejected():
    with pytest.raises(ValueError):
        GradedAlgebra([("a", 0)])


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        GradedAlgebra([("a", 2), ("a", 4)])


def test_polynomial_str_is_deterministic(borel_algebra):
    alpha = borel_algebra.gen("alpha")
    p = alpha * alpha * alpha * alpha + (alpha * borel_algebra.gen("x_bar")).scale(-2)
    assert str(p) == "-2*alpha*x_bar + alpha^4"


# ---------------------------------------------------------------------
# property tests on a fixed mixed-parity algebra

_ALG = GradedAlgebra([("a", 2), ("y", 3), ("b", 4), ("z", 5)])
_A = _ALG.gen("a")
_D = Derivation(_ALG, 1, {"y": _A * _A, "z": _A * _A * _A})
_S = Derivation(_ALG, -1, {"b": _ALG.gen("y"), "z": _ALG.gen("b")})
_T = AlgebraMap(_ALG, {"y": _ALG.gen("y").scale(-1), "b": _ALG.gen("b").scale(-1)})


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
    d = partial(product_derivation, _D)
    assert d(p * q) == d(p) * q + (p * d(q)).scale(sign)


@settings(max_examples=80)
@given(homogeneous_polys(), homogeneous_polys())
def test_leibniz_shift_minus_one(pq1, pq2):
    (m, p), (_, q) = pq1, pq2
    sign = -1 if m % 2 else 1
    d = partial(product_derivation, _S)
    assert d(p * q) == d(p) * q + (p * d(q)).scale(sign)


@settings(max_examples=80)
@given(homogeneous_polys(), homogeneous_polys())
def test_algebra_map_multiplicative(pq1, pq2):
    (_, p), (_, q) = pq1, pq2
    assert _T(p * q) == _T(p) * _T(q)


# ---------------------------------------------------------------------
# the square-zero gate on packed codes against the Polynomial-product route

_FRACTIONS = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9).filter(bool), st.integers(1, 5)
)


@st.composite
def differentials(draw):
    """A random shift +1 derivation (square-zero or not) with rational
    coefficients on a random algebra with odd and even generators, often
    with an even generator of zero value (the g of a cohomology layout,
    which the gate packs like any other generator)."""
    degrees = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    alg = GradedAlgebra([(f"g{i}", d) for i, d in enumerate(degrees)])
    values = {}
    for g in alg.generators:
        basis = per_degree_monomial_basis(alg, g.degree + 1)
        if g.degree % 2 == 0 and draw(st.booleans()):
            basis = ()  # a closed even generator, so that g often exists
        picked = draw(st.lists(st.sampled_from(basis), max_size=4, unique=True)) if basis else []
        values[g.name] = alg.poly({m: draw(_FRACTIONS) for m in picked})
    return Derivation(alg, 1, values)


# d^2(c) = 1/6 a^3 with L = 6: the residual is a power of the closed even
# a alone, whose exponent comes from a's own field, and its coefficient
# is 6 / L^2
_ALG_ABC = GradedAlgebra([("a", 2), ("b", 3), ("c", 4)])
_A, _B = _ALG_ABC.gen("a"), _ALG_ABC.gen("b")
_POWER_OF_G = Derivation(
    _ALG_ABC, 1, {"b": _A * _A * Fraction(1, 2), "c": _A * _B * Fraction(1, 3)}
)
# d^2(z) = 3/4 d(y*a) = -3/4 y*x = 3/4 x*y: the second application of D
# puts x after the odd y, and reordering them is a Koszul sign
_ALG_XYZ = GradedAlgebra([("x", 3), ("y", 3), ("a", 2), ("z", 4)])
_KOSZUL = Derivation(
    _ALG_XYZ,
    1,
    {"a": _ALG_XYZ.gen("x"), "z": _ALG_XYZ.gen("y") * _ALG_XYZ.gen("a") * Fraction(3, 4)},
)

# the gate applies D twice only to generators whose value has a live
# factor (one of nonzero value).  Here b and w, whose values lie in the
# closed a and x, are skipped, and e is the first to fail, after them:
# d^2(e) = -x*a^2 + 2/3 a^2*x, the closed odd x signing D(b) after it
_ALG_SKIP = GradedAlgebra([("x", 3), ("a", 2), ("b", 3), ("w", 4), ("e", 5), ("h", 7)])
_X, _A2, _B2, _W, _E = (_ALG_SKIP.gen(n) for n in ("x", "a", "b", "w", "e"))
_AFTER_SKIPPED = Derivation(
    _ALG_SKIP,
    1,
    {"b": _A2 * _A2, "w": _X * _A2, "e": _X * _B2 + _A2 * _W * Fraction(2, 3), "h": _B2 * _E},
)
# d^2(q) = a * D(p) = a^2*x: q's value has the closed a and the live even p
_ALG_EVEN = GradedAlgebra([("a", 2), ("x", 3), ("p", 4), ("q", 5)])
_EVEN_LIVE_FACTOR = Derivation(
    _ALG_EVEN,
    1,
    {"p": _ALG_EVEN.gen("x") * _ALG_EVEN.gen("a"), "q": _ALG_EVEN.gen("a") * _ALG_EVEN.gen("p")},
)
# every value lies in the closed a and x, so no generator is checked
_ALG_CLOSED = GradedAlgebra([("a", 2), ("x", 3), ("b", 3), ("c", 4)])
_ALL_SKIPPED = Derivation(
    _ALG_CLOSED,
    1,
    {
        "b": _ALG_CLOSED.gen("a") * _ALG_CLOSED.gen("a") * Fraction(1, 2),
        "c": _ALG_CLOSED.gen("a") * _ALG_CLOSED.gen("x") * -3,
    },
)


@settings(max_examples=300, deadline=None)
@given(differentials())
@example(_POWER_OF_G)
@example(_KOSZUL)
@example(_AFTER_SKIPPED)
@example(_EVEN_LIVE_FACTOR)
@example(_ALL_SKIPPED)
def test_square_zero_gate_matches_the_product_route(d):
    model = SimpleNamespace(algebra=d.algebra, differential=d.values)
    assert square_zero_residual(model) == check_differential(d)


@settings(max_examples=100, deadline=None)
@given(differentials())
@example(_POWER_OF_G)
@example(_AFTER_SKIPPED)
@example(_EVEN_LIVE_FACTOR)
@example(_ALL_SKIPPED)
def test_dga_model_refuses_what_the_product_route_refuses(d):
    violation = check_differential(d)
    if violation is None:
        assert DgaModel(d.algebra, d.values).differential == d.values
    else:
        with pytest.raises(NotSquareZeroError) as info:
            DgaModel(d.algebra, d.values)
        assert str(info.value) == f"d^2({violation[0]}) = {violation[1]} != 0"


# ---------------------------------------------------------------------
# the written-out suspension against the Polynomial-product route

# rational coefficients, and odd factors before the generator that s hits
_SUSPENSION_TEXTS = [
    "gen a 2\ngen c 2\ngen b 3\nd b = 1/2*a^2 - 1/3*a*c + 5/4*c^2\ngen e 5\n",
    "gen y 3\ngen x 5\ngen z 3\ngen w 10\nd w = 1/2*x*y*z\n",
    "gen y 3\ngen a 2\ngen b 4\ngen w 10\nd w = -2/3*y*a^2*b + 7*y*b^2\n",
]
SUSPENSION_MODELS = (
    [parse_model(path.read_text()) for path in sorted(MODELS_DIR.glob("*.model"))]
    + [parse_model(text) for text in _SUSPENSION_TEXTS]
    + random_models_within_budget(seed=404, count=12, cap=16)
)


@pytest.mark.parametrize("build", [loop_model, borel_model])
@pytest.mark.parametrize("model", SUSPENSION_MODELS)
def test_bar_values_are_minus_the_suspension_of_d(model, build):
    # each v_bar sits right after its v, and the names of v carry over
    dga = build(model)
    alg, base = dga.algebra, model.algebra
    bar = {v.name: alg.generators[alg.index(v.name) + 1].name for v in base.generators}
    s = Derivation(alg, -1, {v: alg.gen(v_bar) for v, v_bar in bar.items()})
    for v in base.generators:
        dv = alg.poly(
            {
                tuple(mono[base.index(x)] if x in bar else 0 for x in alg.names): c
                for mono, c in model.differential[v.name].terms.items()
            }
        )
        assert dga.differential[bar[v.name]] == product_derivation(s, dv).scale(-1)
