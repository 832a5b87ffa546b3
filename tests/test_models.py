import warnings
from fractions import Fraction

import pytest

from loopinv.algebra import Derivation, GradedAlgebra, check_differential
from loopinv.models import (
    BorelSquareZeroError,
    DegreeMismatchError,
    DgaModel,
    InvolutionIncompatibleError,
    MinimalModel,
    ModelSyntaxError,
    NotMinimalWarning,
    NotSquareZeroError,
    SimpleConnectivityError,
    base_dga,
    borel_model,
    loop_model,
    parse_model,
    point_borel_model,
)
from support import involution_map, load_model


def test_parse_single_generator():
    m = parse_model("gen x 7\nd x = 0\n")
    assert m.algebra.names == ("x",)
    assert m.algebra.degree_of("x") == 7
    assert not m.differential.of_generator("x")


def test_parse_two_sphere():
    m = parse_model("gen a 2\ngen b 3\nd a = 0\nd b = a^2\n")
    assert m.differential.of_generator("b") == m.algebra.gen("a") * m.algebra.gen("a")


def test_parse_defaults_to_zero_differential():
    m = parse_model("gen a 2\ngen b 3\nd b = a^2")
    assert not m.differential.of_generator("a")


def test_parse_comments_and_blank_lines():
    m = parse_model("# a sphere\n\ngen x 7  # odd generator\n")
    assert m.algebra.names == ("x",)


def test_parse_rational_coefficients():
    m = parse_model("gen a 2\ngen b 2\ngen c 3\nd c = 1/2*a^2 - 3*a*b")
    dc = m.differential.of_generator("c")
    assert dc.coefficient((2, 0, 0)) == Fraction(1, 2)
    assert dc.coefficient((1, 1, 0)) == -3


def test_parse_signed_coefficients():
    m = parse_model("gen a 2\ngen b 2\ngen c 3\nd c = -1/2*a^2 + -2*b^2")
    dc = m.differential.of_generator("c")
    assert dc.coefficient((2, 0, 0)) == Fraction(-1, 2)
    assert dc.coefficient((0, 2, 0)) == -2


def test_parse_rejects_degree_one():
    with pytest.raises(SimpleConnectivityError):
        parse_model("gen a 1\nd a = 0\n")


def test_parse_rejects_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        parse_model("gen a 2\ngen b 3\nd b = a")  # degree 2, needs 4


def test_parse_rejects_square_nonzero():
    # d^2(c) = d(a*b) = a * a^2 = a^3 != 0
    bad = "gen a 2\ngen b 3\ngen c 4\nd b = a^2\nd c = a*b\n"
    with pytest.raises(NotSquareZeroError) as info:
        parse_model(bad)
    assert "c" in str(info.value)


def test_parse_warns_not_minimal():
    with pytest.warns(NotMinimalWarning):
        m = parse_model("gen a 3\ngen b 2\nd b = a\n")
    assert m.algebra.names == ("a", "b")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("gen a\n", "gen <name> <degree>"),
        ("gen a 2\nd a 0\n", "d <name> = <poly>"),
        ("foo x 2\n", "'gen' or 'd'"),
        ("gen a 2\nd a = @\n", "unexpected character"),
        ("gen a 2\nd b = 0\n", "unknown generator"),
        ("gen a 2\ngen a 3\n", "already declared"),
        ("gen a 2\ngen b 3\nd b = a^2\nd b = 0\n", "already given"),
        ("gen a 2\ngen b 3\nd b = a^0\n", "exponent"),
        ("gen a 2\ngen b 3\nd b = c^2\n", "unknown generator"),
        ("gen a 2\ngen b 5\nd b = a a\n", "missing '*'"),
        ("gen a 2\ngen b 3\nd b = a^2 +\n", "unexpected end"),
    ],
)
def test_parse_syntax_errors(text, fragment):
    with pytest.raises(ModelSyntaxError) as info:
        parse_model(text)
    assert fragment in str(info.value)
    assert "line" in str(info.value)


def test_syntax_error_carries_position():
    with pytest.raises(ModelSyntaxError) as info:
        parse_model("gen a 2\ngen b 3\nd b = a^2 + $\n")
    assert info.value.line == 3
    assert info.value.column == 13


# ---------------------------------------------------------------------
# loop model


def test_loop_model_doubles_generators():
    loop = loop_model(load_model("sphere-bundle-d2.model"))
    assert loop.algebra.names == ("x", "x_bar")
    assert loop.algebra.degree_of("x_bar") == 6
    assert loop.involution is False
    for name in loop.algebra.names:
        assert not loop.differential.of_generator(name)


def test_loop_model_restricts_to_base_differential():
    m = load_model("s2.model")
    loop = loop_model(m)
    assert loop.algebra.names == ("a", "a_bar", "b", "b_bar")
    db = loop.differential.of_generator("b")
    assert db == loop.algebra.gen("a") * loop.algebra.gen("a")


def test_loop_model_suspension_sign():
    # delta(b_bar) = -s(a^2) = -2 a a_bar
    loop = loop_model(load_model("s2.model"))
    expected = (loop.algebra.gen("a") * loop.algebra.gen("a_bar")).scale(-2)
    assert loop.differential.of_generator("b_bar") == expected
    assert not loop.differential.of_generator("a_bar")


def test_loop_model_preserves_word_length():
    m = parse_model("gen a 2\ngen b 2\ngen c 3\nd c = a*b\n")
    loop = loop_model(m)
    for name in loop.algebra.names:
        value = loop.differential.of_generator(name)
        wl = value.min_word_length()
        assert wl is None or wl >= 2


# ---------------------------------------------------------------------
# Borel model


def test_borel_model_sphere_bundle():
    borel = borel_model(load_model("sphere-bundle-d2.model"))
    alg = borel.algebra
    assert alg.names == ("alpha", "x", "x_bar")
    assert alg.degree_of("alpha") == 2
    d = borel.differential
    assert d.of_generator("x") == alg.gen("alpha") * alg.gen("x_bar")
    assert not d.of_generator("alpha")
    assert not d.of_generator("x_bar")
    assert borel.involution is True
    assert tuple((-1) ** w for w in borel.weights) == (-1, 1, -1)
    t = involution_map(borel)
    assert t.of_generator("alpha") == -alg.gen("alpha")
    assert t.of_generator("x") == alg.gen("x")
    assert t.of_generator("x_bar") == -alg.gen("x_bar")


def test_borel_model_two_sphere():
    borel = borel_model(load_model("s2.model"))
    alg = borel.algebra
    d = borel.differential
    assert d.of_generator("a") == alg.gen("alpha") * alg.gen("a_bar")
    assert d.of_generator("b") == alg.gen("a") * alg.gen("a") + alg.gen("alpha") * alg.gen("b_bar")
    assert d.of_generator("b_bar") == (alg.gen("a") * alg.gen("a_bar")).scale(-2)


def test_borel_alpha_to_zero_recovers_loop_differential():
    m = load_model("s2.model")
    loop = loop_model(m)
    borel = borel_model(m)
    alpha_idx = borel.algebra.index("alpha")
    for name in loop.algebra.names:
        value = borel.differential.of_generator(name)
        stripped = {
            mono[:alpha_idx] + mono[alpha_idx + 1 :]: coeff
            for mono, coeff in value.terms.items()
            if mono[alpha_idx] == 0
        }
        assert loop.algebra.poly(stripped) == loop.differential.of_generator(name)


def test_borel_gates_hold_on_all_generators():
    borel = borel_model(parse_model("gen a 2\ngen b 2\ngen c 3\nd c = a*b\n"))
    d, t = borel.differential, involution_map(borel)
    for g in borel.algebra.generators:
        gen = borel.algebra.gen(g.name)
        assert not d(d(gen))
        assert t(t(gen)) == gen
        assert t(d(gen)) == d(t(gen))


def test_borel_model_has_no_cap():
    with pytest.raises(TypeError):
        borel_model(load_model("sphere-bundle-d2.model"), 1)


def test_borel_avoids_name_collisions():
    m = parse_model("gen alpha 2\ngen x_bar 3\ngen x 4\n")
    borel = borel_model(m)
    names = borel.algebra.names
    assert len(set(names)) == len(names) == 7


def test_point_borel_model():
    point = point_borel_model()
    assert point.algebra.names == ("alpha",)
    assert not point.differential.of_generator("alpha")
    assert point.involution is True
    assert tuple((-1) ** w for w in point.weights) == (-1,)
    assert involution_map(point).of_generator("alpha") == -point.algebra.gen("alpha")


def test_base_dga_has_no_involution():
    base = base_dga(load_model("s2.model"))
    assert base.involution is False
    assert base.algebra.names == ("a", "b")


# ---------------------------------------------------------------------
# direct DgaModel gates


def test_dga_model_rejects_broken_differential():
    alg = GradedAlgebra([("a", 2), ("b", 3)])
    d = Derivation(alg, 1, {"a": alg.gen("b"), "b": alg.gen("a") * alg.gen("a")})
    with pytest.raises(NotSquareZeroError):
        DgaModel(alg, d)


def test_dga_model_rejects_incompatible_involution():
    alg = GradedAlgebra([("a", 2), ("b", 3)])
    d = Derivation(alg, 1, {"b": alg.gen("a") * alg.gen("a")})
    # the weights (0, 1) send b to -b: t(d b) = a^2 but d(t b) = -a^2
    with pytest.raises(InvolutionIncompatibleError, match="weight"):
        DgaModel(alg, d, True, (0, 1))
    # a^2 has the weight 2 of b, whose sign is +1
    assert DgaModel(alg, d, True, (1, 2)).involution is True


def test_dga_model_rejects_weight_inhomogeneous_differential():
    alg = GradedAlgebra([("a", 2), ("b", 3)])
    d = Derivation(alg, 1, {"b": alg.gen("a") * alg.gen("a")})
    with pytest.raises(InvolutionIncompatibleError, match="weight"):
        DgaModel(alg, d, False, (0, 1))
    assert DgaModel(alg, d, False, (1, 2)).weights == (1, 2)
    assert DgaModel(alg, d).weights == (0, 0)
    with pytest.raises(ValueError):
        DgaModel(alg, d, False, (0, 0, 0))


def test_builders_set_generator_weights():
    m = load_model("s2.model")
    assert loop_model(m).weights == (0, 1, 0, 1)
    assert borel_model(m).weights == (-1, 0, 1, 0, 1)
    assert base_dga(m).weights == (0, 0)


def _count_gate_calls(monkeypatch):
    """The derivations that the square-zero gate checks from now on."""
    import loopinv.models

    calls = []

    def counting(d):
        calls.append(d)
        return check_differential(d)

    monkeypatch.setattr(loopinv.models, "check_differential", counting)
    return calls


def test_borel_square_zero_gate_runs_once(monkeypatch):
    m = load_model("s2.model")
    calls = _count_gate_calls(monkeypatch)
    borel_model(m)
    assert len(calls) == 1


def test_base_dga_reuses_the_minimal_model_gate(monkeypatch):
    calls = _count_gate_calls(monkeypatch)
    m = load_model("s2.model")
    assert len(calls) == 1
    assert base_dga(m) is base_dga(m)
    assert base_dga(m).differential is m.differential
    assert len(calls) == 1


def test_pseudoisotopy_table_runs_one_square_zero_gate(monkeypatch):
    from loopinv.pseudoisotopy import pseudoisotopy_table

    m = load_model("s2.model")
    calls = _count_gate_calls(monkeypatch)
    pseudoisotopy_table(m, 8)
    # the Borel model's gate; the base model reuses the one parse_model ran
    assert len(calls) == 1
    assert calls[0] is not m.differential


def test_borel_square_zero_failure_category():
    from types import SimpleNamespace

    # d^2 c = a^3 != 0; MinimalModel would refuse it, so hand the builder
    # the parts directly
    alg = GradedAlgebra([("a", 2), ("b", 3), ("c", 4)])
    a, b = alg.gen("a"), alg.gen("b")
    d = Derivation(alg, 1, {"b": a * a, "c": a * b})
    with pytest.raises(BorelSquareZeroError):
        borel_model(SimpleNamespace(algebra=alg, differential=d))


def test_minimal_model_warning_not_fatal_programmatically():
    alg = GradedAlgebra([("a", 3), ("b", 2)])
    d = Derivation(alg, 1, {"b": alg.gen("a")})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        MinimalModel(alg, d)
    assert any(issubclass(w.category, NotMinimalWarning) for w in caught)


def test_empty_model():
    m = MinimalModel.empty()
    assert m.algebra.names == ()
    borel = borel_model(m)
    assert borel.algebra.names == ("alpha",)


def test_borel_of_non_minimal_model_passes_gates():
    # linear differentials are legal (with a warning); the construction
    # gates must still hold
    with pytest.warns(NotMinimalWarning):
        m = parse_model("gen a 3\ngen b 2\nd b = a\n")
    borel = borel_model(m)
    d, t = borel.differential, involution_map(borel)
    assert d.of_generator("b_bar") == -borel.algebra.gen("a_bar")
    for g in borel.algebra.generators:
        gen = borel.algebra.gen(g.name)
        assert not d(d(gen))
        assert t(d(gen)) == d(t(gen))
