import warnings
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopinv.algebra import GradedAlgebra, Polynomial
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
    borel_model,
    loop_model,
    parse_model,
)
from support import (
    MODELS_DIR,
    differential,
    involution_map,
    load_model,
    product_derivation,
    random_models_within_budget,
)


def test_parse_single_generator():
    m = parse_model("gen x 7\nd x = 0\n")
    assert m.algebra.names == ("x",)
    assert m.algebra.degree_of("x") == 7
    assert not m.differential["x"]


def test_parse_two_sphere():
    m = parse_model("gen a 2\ngen b 3\nd a = 0\nd b = a^2\n")
    assert m.differential["b"] == m.algebra.gen("a") * m.algebra.gen("a")


def test_parse_defaults_to_zero_differential():
    m = parse_model("gen a 2\ngen b 3\nd b = a^2")
    assert not m.differential["a"]


def test_parse_comments_and_blank_lines():
    m = parse_model("# a sphere\n\ngen x 7  # odd generator\n")
    assert m.algebra.names == ("x",)


def test_parse_rational_coefficients():
    m = parse_model("gen a 2\ngen b 2\ngen c 3\nd c = 1/2*a^2 - 3*a*b")
    dc = m.differential["c"]
    assert dc.terms[2, 0, 0] == Fraction(1, 2)
    assert dc.terms[1, 1, 0] == -3


def test_parse_signed_coefficients():
    m = parse_model("gen a 2\ngen b 2\ngen c 3\nd c = -1/2*a^2 + -2*b^2")
    dc = m.differential["c"]
    assert dc.terms[2, 0, 0] == Fraction(-1, 2)
    assert dc.terms[0, 2, 0] == -2


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
    assert str(info.value) == "d^2(c) = a^3 != 0"


def test_parse_warns_not_minimal():
    with pytest.warns(NotMinimalWarning):
        m = parse_model("gen a 3\ngen b 2\nd b = a\n")
    assert m.algebra.names == ("a", "b")


# (model text, the short label in the case's id, the whole message)
SYNTAX_ERRORS = [
    ("gen a\n", "gen <name> <degree>", "line 1, column 1: expected: gen <name> <degree>"),
    ("gen a 2\nd a 0\n", "d <name> = <poly>", "line 2, column 1: expected: d <name> = <poly>"),
    ("foo x 2\n", "'gen' or 'd'", "line 1, column 1: expected 'gen' or 'd', got 'foo'"),
    ("gen a 2\nd a = @\n", "unexpected character", "line 2, column 7: unexpected character '@'"),
    ("gen a 2\nd b = 0\n", "unknown generator", "line 2, column 3: unknown generator 'b'"),
    (
        "gen a 2\ngen a 3\n",
        "already declared",
        "line 2, column 5: generator 'a' already declared on line 1",
    ),
    (
        "gen a 2\ngen b 3\nd b = a^2\nd b = 0\n",
        "already given",
        "line 4, column 1: d b already given on line 3",
    ),
    ("gen a 2\ngen b 3\nd b = a^0\n", "exponent", "line 3, column 9: exponent must be >= 1"),
    ("gen a 2\ngen b 3\nd b = c^2\n", "unknown generator", "line 3, column 7: unknown generator 'c'"),
    ("gen a 2\ngen b 3\nd b = 1/0*a^2\n", "zero denominator", "line 3, column 9: zero denominator"),
    # "missing '*'" only inside a term without a coefficient
    ("gen a 2\ngen b 5\nd b = a a\n", "missing '*'", "line 3, column 9: missing '*' before 'a'"),
    ("gen a 2\ngen b 5\nd b = 2*a b\n", "unexpected token", "line 3, column 11: unexpected token 'b'"),
    ("gen a 2\ngen b 3\nd b = 2 a^2\n", "unexpected token", "line 3, column 9: unexpected token 'a'"),
    ("gen a 2\ngen b 3\nd b = a^2*1\n", "unexpected token", "line 3, column 11: unexpected token '1'"),
    (
        "gen a 2\ngen b 3\nd b = 1/2/3*a^2\n",
        "unexpected token",
        "line 3, column 10: unexpected token '/'",
    ),
    ("gen a 2\ngen b 3\nd b = --a^2\n", "unexpected token", "line 3, column 8: unexpected token '-'"),
    (
        "gen a 2\ngen b 3\nd b = a^2 + -\n",
        "unexpected token",
        "line 3, column 13: unexpected token '-'",
    ),
    ("gen a 2\ngen b 3\nd b = a^2 +\n", "unexpected end", "line 3, column 12: unexpected end of line"),
    # the column just past the last token, before spaces and comments
    (
        "gen a 2\ngen b 3\nd b = a^2 +  # x\n",
        "line 3, column 12: unexpected end of line",
        "line 3, column 12: unexpected end of line",
    ),
    (
        "gen a 2\ngen b 3\nd b = a*\n",
        "line 3, column 9: unexpected end of line",
        "line 3, column 9: unexpected end of line",
    ),
]


@pytest.mark.parametrize(
    "text,message",
    [(text, message) for text, _, message in SYNTAX_ERRORS],
    ids=[f"{text}-{label}" for text, label, _ in SYNTAX_ERRORS],
)
def test_parse_syntax_errors(text, message):
    with pytest.raises(ModelSyntaxError) as info:
        parse_model(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text,value",
    [
        ("gen a 2\ngen b 3\nd b = - -1*a^2", "a^2"),  # a leading sign, then a signed coefficient
        ("gen a 2\ngen b 3\nd b = a ^ 2", "a^2"),
        ("gen x 3\ngen y 3\ngen z 5\nd z = y*x", "-x*y"),  # the Koszul sign
        ("gen a 2\ngen x 3\ngen z 7\nd z = x^2*a", "0"),  # an odd square
        ("gen a 2\ngen x 3\ngen z 7\nd z = x*a*x", "0"),  # a repeated odd factor
        ("gen a 2\ngen b 3\nd b = a^2 + 0", "a^2"),  # a bare rational term
    ],
)
def test_parse_accepted_values(text, value):
    *_, last = parse_model(text).differential.values()
    assert str(last) == value


def test_syntax_error_carries_position():
    with pytest.raises(ModelSyntaxError) as info:
        parse_model("gen a 2\ngen b 3\nd b = a^2 + $\n")
    assert info.value.line == 3
    assert info.value.column == 13


# d w = <body> over the closed generators a, b (even) and x, y, z (odd):
# every term has degree 12 = deg w + 1, and d^2 w = 0 since the rest are closed
BODY_GENS = [("a", 2), ("b", 4), ("x", 3), ("y", 3), ("z", 5), ("w", 11)]
BODY_ALG = GradedAlgebra(BODY_GENS)


@st.composite
def d_line_bodies(draw):
    """A d line body, with its value built by the library arithmetic:
    signed and rational coefficients, bare zeros, exponents, whitespace
    or none between tokens, and odd factors out of order and repeated."""
    chunks, value = [], BODY_ALG.zero()
    for k in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["+", "-"] if k else ["", "+", "-"]))
        tokens = [op] if op else []
        term = BODY_ALG.unit().scale(-1 if op == "-" else 1)
        if draw(st.booleans()):  # a coefficient, maybe signed and maybe a bare term
            sign = draw(st.sampled_from(["", "+", "-"]))
            num, den = draw(st.integers(0, 30)), draw(st.integers(1, 6))
            tokens += [sign, str(num)] + (["/", str(den)] if den > 1 else [])
            term = term.scale(Fraction(-num if sign == "-" else num, den))
            if num == 0 and draw(st.booleans()):
                chunks.append(tokens)
                continue
            tokens.append("*")
        left = 12
        while left:
            name, e = draw(
                st.sampled_from(
                    [
                        (g, e)
                        for g, d in BODY_GENS[:-1]
                        for e in ((1, 2) if d % 2 else (1, 2, 3))
                        if d * e <= left and d * e != left - 1
                    ]
                )
            )
            left -= BODY_ALG.degree_of(name) * e
            tokens += [name] if e == 1 and draw(st.booleans()) else [name, "^", str(e)]
            tokens.append("*" if left else "")
            for _ in range(e):
                term = term * BODY_ALG.gen(name)
        value = value + term
        chunks.append(tokens)
    body = "".join(t + draw(st.sampled_from(["", " ", "  "])) for c in chunks for t in c)
    return body, value


@settings(max_examples=300, deadline=None)
@given(d_line_bodies())
def test_parse_matches_library_arithmetic(case):
    body, value = case
    text = "".join(f"gen {g} {d}\n" for g, d in BODY_GENS) + f"d w = {body}\n"
    assert parse_model(text).differential["w"] == value


def test_parse_builds_no_polynomial_per_token(monkeypatch):
    # the reader keeps a term as one exponent list and one coefficient, and
    # builds one Polynomial per d line, so it needs no Polynomial arithmetic
    inputs = sorted(MODELS_DIR.glob("*.model")) + sorted(
        (MODELS_DIR.parent / "benchmark" / "inputs").glob("*.model")
    )
    assert {path.parent.name for path in inputs} == {"models", "inputs"}
    texts = [path.read_text(encoding="utf-8") for path in inputs]
    texts.append("gen x 3\ngen y 3\ngen z 5\nd z = 1/2*y*x + -3*x*y\n")
    expected = [parse_model(text) for text in texts]

    def refuse(*args):
        raise AssertionError("Polynomial arithmetic while parsing")

    for owner, name in [
        (Polynomial, "__add__"),
        (Polynomial, "__mul__"),
        (Polynomial, "scale"),
        (GradedAlgebra, "unit"),
        (GradedAlgebra, "poly"),
    ]:
        monkeypatch.setattr(owner, name, refuse)
    assert [parse_model(text) for text in texts] == expected


# ---------------------------------------------------------------------
# loop model


def test_loop_model_doubles_generators():
    loop = loop_model(load_model("sphere-bundle-d2.model"))
    assert loop.algebra.names == ("x", "x_bar")
    assert loop.algebra.degree_of("x_bar") == 6
    assert loop.involution is False
    for name in loop.algebra.names:
        assert not loop.differential[name]


def test_loop_model_restricts_to_base_differential():
    m = load_model("s2.model")
    loop = loop_model(m)
    assert loop.algebra.names == ("a", "a_bar", "b", "b_bar")
    db = loop.differential["b"]
    assert db == loop.algebra.gen("a") * loop.algebra.gen("a")


def test_loop_model_suspension_sign():
    # delta(b_bar) = -s(a^2) = -2 a a_bar
    loop = loop_model(load_model("s2.model"))
    expected = (loop.algebra.gen("a") * loop.algebra.gen("a_bar")).scale(-2)
    assert loop.differential["b_bar"] == expected
    assert not loop.differential["a_bar"]


def test_loop_model_preserves_word_length():
    m = parse_model("gen a 2\ngen b 2\ngen c 3\nd c = a*b\n")
    loop = loop_model(m)
    for name in loop.algebra.names:
        value = loop.differential[name]
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
    assert d["x"] == alg.gen("alpha") * alg.gen("x_bar")
    assert not d["alpha"]
    assert not d["x_bar"]
    assert borel.involution is True
    assert tuple((-1) ** w for w in borel.weights) == (-1, 1, -1)
    t = involution_map(borel)
    assert t.of_generator("alpha") == alg.gen("alpha").scale(-1)
    assert t.of_generator("x") == alg.gen("x")
    assert t.of_generator("x_bar") == alg.gen("x_bar").scale(-1)


def test_borel_model_two_sphere():
    borel = borel_model(load_model("s2.model"))
    alg = borel.algebra
    d = borel.differential
    assert d["a"] == alg.gen("alpha") * alg.gen("a_bar")
    assert d["b"] == alg.gen("a") * alg.gen("a") + alg.gen("alpha") * alg.gen("b_bar")
    assert d["b_bar"] == (alg.gen("a") * alg.gen("a_bar")).scale(-2)


def test_borel_alpha_to_zero_recovers_loop_differential():
    m = load_model("s2.model")
    loop = loop_model(m)
    borel = borel_model(m)
    alpha_idx = borel.algebra.index("alpha")
    for name in loop.algebra.names:
        value = borel.differential[name]
        stripped = {
            mono[:alpha_idx] + mono[alpha_idx + 1 :]: coeff
            for mono, coeff in value.terms.items()
            if mono[alpha_idx] == 0
        }
        assert loop.algebra.poly(stripped) == loop.differential[name]


def test_borel_gates_hold_on_all_generators():
    borel = borel_model(parse_model("gen a 2\ngen b 2\ngen c 3\nd c = a*b\n"))
    d, t = partial(product_derivation, differential(borel)), involution_map(borel)
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
    point = borel_model(parse_model(""))
    assert point.algebra.names == ("alpha",)
    assert not point.differential["alpha"]
    assert point.involution is True
    assert tuple((-1) ** w for w in point.weights) == (-1,)
    assert involution_map(point).of_generator("alpha") == point.algebra.gen("alpha").scale(-1)


def test_parses_of_one_text_are_equal():
    text = "gen a 2\ngen b 3\nd b = a^2\n"
    m = parse_model(text)
    assert m == parse_model(text)
    assert m != parse_model("gen a 2\ngen b 3\n")


def test_base_dga_has_no_involution():
    # the base space of the CLI is the minimal model itself
    base = load_model("s2.model")
    assert base.involution is False
    assert base.algebra.names == ("a", "b")


# ---------------------------------------------------------------------
# direct DgaModel gates


def test_dga_model_rejects_broken_differential():
    alg = GradedAlgebra([("a", 2), ("b", 3)])
    d = {"a": alg.gen("b"), "b": alg.gen("a") * alg.gen("a")}
    with pytest.raises(NotSquareZeroError, match=r"^d\^2\(a\) = a\^2 != 0$"):
        DgaModel(alg, d)


def test_dga_model_rejects_incompatible_involution():
    alg = GradedAlgebra([("a", 2), ("b", 3)])
    d = {"b": alg.gen("a") * alg.gen("a")}
    # the weights (0, 1) send b to -b: t(d b) = a^2 but d(t b) = -a^2
    with pytest.raises(InvolutionIncompatibleError, match="weight"):
        DgaModel(alg, d, True, (0, 1))
    # a^2 has the weight 2 of b, whose sign is +1
    assert DgaModel(alg, d, True, (1, 2)).involution is True


def test_dga_model_rejects_weight_inhomogeneous_differential():
    alg = GradedAlgebra([("a", 2), ("b", 3)])
    d = {"b": alg.gen("a") * alg.gen("a")}
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
    assert m.weights == (0, 0)


def _count_gate_calls(monkeypatch):
    """The models that the square-zero gate checks from now on."""
    import loopinv.models

    calls = []
    gate = loopinv.models.square_zero_residual

    def counting(model):
        calls.append(model)
        return gate(model)

    monkeypatch.setattr(loopinv.models, "square_zero_residual", counting)
    return calls


def test_borel_square_zero_gate_runs_once(monkeypatch):
    m = load_model("s2.model")
    calls = _count_gate_calls(monkeypatch)
    borel_model(m)
    assert len(calls) == 1


def test_base_dga_reuses_the_minimal_model_gate(monkeypatch, capsys):
    from loopinv.cli import main

    calls = _count_gate_calls(monkeypatch)
    path = str(MODELS_DIR / "s2.model")
    assert main(["cohomology", path, "--space", "base", "--max-degree", "8"]) == 0
    capsys.readouterr()
    # the CLI's base space is the parsed model, so only parse_model's gate runs
    assert len(calls) == 1
    assert isinstance(calls[0], MinimalModel)


def test_pseudoisotopy_table_runs_one_square_zero_gate(monkeypatch):
    from loopinv.pseudoisotopy import pseudoisotopy_table

    m = load_model("s2.model")
    calls = _count_gate_calls(monkeypatch)
    pseudoisotopy_table(m, 8)
    # the Borel model's gate; the base model reuses the one parse_model ran
    assert len(calls) == 1
    assert calls[0].differential is not m.differential


def _count_packed_terms(monkeypatch):
    """The calls to ``cohomology._packed_terms`` from now on: the gate
    packs the values only when some generator's value has a live factor
    (one of nonzero value)."""
    import loopinv.cohomology

    calls = []
    pack = loopinv.cohomology._packed_terms

    def counting(*args):
        calls.append(args[0])
        return pack(*args)

    monkeypatch.setattr(loopinv.cohomology, "_packed_terms", counting)
    return calls


def test_the_gate_packs_no_value_when_every_value_lies_in_closed_generators(monkeypatch):
    bench = MODELS_DIR.parent / "benchmark" / "inputs"
    calls = _count_packed_terms(monkeypatch)
    s2 = parse_model((MODELS_DIR / "s2.model").read_text())  # d b = a^2, a closed
    s3xs3 = parse_model((bench / "s3xs3.model").read_text())
    loop_model(s2)
    loop_model(s3xs3)
    borel_model(s3xs3)  # D x = alpha*x_bar: closed factors only
    assert calls == []
    # S^2's Borel D b = a^2 + alpha*b_bar has the live factor a (D a = alpha*a_bar)
    borel_model(s2)
    assert len(calls) == 1


def test_the_gate_packs_random_models_only_for_their_borel_values(monkeypatch):
    # each random value lies in closed generators, and so does every loop
    # value; in the Borel model D c = alpha*c_bar makes each c live
    models = random_models_within_budget(seed=25, count=12, cap=16)
    assert any(not any(m.differential.values()) for m in models)
    assert any(any(m.differential.values()) for m in models)
    calls = _count_packed_terms(monkeypatch)
    for m in models:
        MinimalModel(m.algebra, m.differential)
        loop_model(m)
        assert calls == []
        borel_model(m)
        assert len(calls) == any(m.differential.values())
        calls.clear()


def _in_normal_form(model) -> bool:
    """Every coefficient an int, or a Fraction that is not one."""
    coeffs = [c for value in model.differential.values() for c in value.terms.values()]
    return all(type(c) is int or type(c) is Fraction and c.denominator > 1 for c in coeffs)


BUNDLED = sorted(MODELS_DIR.glob("*.model")) + sorted(
    (MODELS_DIR.parent / "benchmark" / "inputs").glob("*.model")
)


@pytest.mark.parametrize("path", BUNDLED, ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_bundled_coefficients_are_in_normal_form(path):
    m = parse_model(path.read_text(encoding="utf-8"))
    assert all(_in_normal_form(x) for x in (m, loop_model(m), borel_model(m)))


@settings(max_examples=100, deadline=None)
@given(d_line_bodies())
def test_rational_coefficients_are_in_normal_form(case):
    body, value = case
    m = parse_model("".join(f"gen {g} {d}\n" for g, d in BODY_GENS) + f"d w = {body}\n")
    assert all(_in_normal_form(x) for x in (m, loop_model(m), borel_model(m)))
    assert _in_normal_form(MinimalModel(BODY_ALG, {"w": value}))


def test_an_integral_fraction_is_held_as_an_int():
    alg = GradedAlgebra([("a", 2), ("y", 3)])
    p = Polynomial(alg, {(1, 0): Fraction(4, 2), (0, 1): Fraction(-3, 6), (2, 0): 2.0})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(-1, 2), (2, 0): 2}
    assert [type(c) for c in p.terms.values()] == [int, Fraction, int]
    assert type(p.scale(Fraction(1, 2)).terms[(1, 0)]) is int
    m = parse_model("gen x 3\ngen y 3\ngen z 5\nd z = 4/2*x*y + 1/2*x*y - 1/2*y*x\n")
    assert m.differential["z"].terms == {(1, 1, 0): 3}
    assert type(m.differential["z"].terms[(1, 1, 0)]) is int


def test_integral_models_build_no_fraction(monkeypatch, tmp_path):
    # S^2, S^2 x S^2, S^3 x S^3 and random-batch's models at seed 1729, read
    # from files, parsed, and built into loop and Borel models
    bench = MODELS_DIR.parent / "benchmark"
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    paths = [MODELS_DIR / "s2.model", *(bench / "inputs" / f"{n}.model" for n in ("s2xs2", "s3xs3"))]
    for i, (text, _) in enumerate(workloads.random_batch(1729)):
        paths.append(tmp_path / f"m{i:02d}.model")
        paths[-1].write_text(text, encoding="utf-8")
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
    assert Fraction(1, 2) and built == [(1, 2)]
    built.clear()
    for path in paths:
        m = parse_model(path.read_text(encoding="utf-8"))
        loop_model(m)
        borel_model(m)
    assert built == []


def test_borel_square_zero_failure_category():
    from types import SimpleNamespace

    # d^2 c = a^3 != 0; MinimalModel would refuse it, so hand the builder
    # the parts directly
    alg = GradedAlgebra([("a", 2), ("b", 3), ("c", 4)])
    a, b = alg.gen("a"), alg.gen("b")
    d = {"a": alg.zero(), "b": a * a, "c": a * b}  # every generator, in order
    with pytest.raises(BorelSquareZeroError) as info:
        borel_model(SimpleNamespace(algebra=alg, differential=d))
    assert str(info.value) == "Borel differential does not square to zero: d^2(c) = a^3 != 0"


def test_minimal_model_warning_not_fatal_programmatically():
    alg = GradedAlgebra([("a", 3), ("b", 2)])
    d = {"b": alg.gen("a")}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        MinimalModel(alg, d)
    assert any(issubclass(w.category, NotMinimalWarning) for w in caught)
    assert caught[0].filename == __file__  # the warning points at the caller


def test_minimal_model_refuses_degree_one_before_the_gate():
    # d^2(x) = x*y != 0 too, but the degree refusal comes first
    alg = GradedAlgebra([("x", 1), ("y", 2)])
    d = {"x": alg.gen("y"), "y": alg.gen("x") * alg.gen("y")}
    with pytest.raises(NotSquareZeroError):
        DgaModel(alg, d)
    with pytest.raises(SimpleConnectivityError, match="^generator x has degree 1;"):
        MinimalModel(alg, d)


def test_empty_model():
    m = parse_model("")
    assert m.algebra.names == ()
    borel = borel_model(m)
    assert borel.algebra.names == ("alpha",)


def test_borel_of_non_minimal_model_passes_gates():
    # linear differentials are legal (with a warning); the construction
    # gates must still hold
    with pytest.warns(NotMinimalWarning):
        m = parse_model("gen a 3\ngen b 2\nd b = a\n")
    borel = borel_model(m)
    assert borel.differential["b_bar"] == borel.algebra.gen("a_bar").scale(-1)
    d, t = partial(product_derivation, differential(borel)), involution_map(borel)
    for g in borel.algebra.generators:
        gen = borel.algebra.gen(g.name)
        assert not d(d(gen))
        assert t(d(gen)) == d(t(gen))
