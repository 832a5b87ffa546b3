"""Value semantics of the package's model and result types: equal fields
give equal values with equal hashes, the repr names every field, a field
cannot be assigned or deleted, and construction refuses invalid values
with the error it has always raised."""

import copy
import pickle
from fractions import Fraction

import pytest

from loopinv.algebra import GradedAlgebra
from loopinv.cohomology import DegreeSlice, EigenTable
from loopinv.curvature import (
    CurvaturePair,
    InvariantViolationError,
    KernelBoundInputs,
    KernelBoundResult,
)
from loopinv.models import (
    DgaModel,
    InvolutionIncompatibleError,
    MinimalModel,
    NotSquareZeroError,
    SimpleConnectivityError,
)
from loopinv.pseudoisotopy import NegativeDimensionError, PseudoisotopyRow, PseudoisotopyTable
from loopinv.series import ExprTerm, RationalExpr, SeriesExprError, TruncatedSeries

ALG = GradedAlgebra([("a", 2), ("b", 3)])
A = ALG.gen("a")
OTHER = GradedAlgebra([("a", 2)])
ROW = "PseudoisotopyRow(i=0, invP_plus=1, invP_minus=0, invA_plus=0, invA_minus=1)"
S2 = "algebra=GradedAlgebra(a:2, b:3), differential=mappingproxy({'a': 0, 'b': a^2})"
KBI = dict(i=17, m=56, dim_boundary=7, dim_P=1, dim_inv_plus=0, dim_inv_minus=1)

# (build, build with one field changed, repr of build(), a field name)
VALUES = {
    "DegreeSlice": (
        lambda: DegreeSlice(0, 1, 1, 1, 0),
        lambda: DegreeSlice(0, 1, 1, 0, 1),
        "DegreeSlice(degree=0, cochain_dim=1, betti=1, inv_plus=1, inv_minus=0)",
        "betti",
    ),
    "EigenTable": (
        lambda: EigenTable(1, [1], [1]),
        lambda: EigenTable(1, [1], [0]),
        "EigenTable(cap=1, cochain_dim=(1,), betti=(1,), inv_plus=None, inv_minus=None)",
        "betti",
    ),
    "DgaModel": (
        lambda: DgaModel(ALG, {"b": A * A}, True, (2, 4)),
        lambda: DgaModel(ALG, {"b": A * A}, False, (2, 4)),
        f"DgaModel({S2}, involution=True, weights=(2, 4))",
        "differential",
    ),
    "MinimalModel": (
        lambda: MinimalModel(ALG, {"b": A * A}),
        lambda: MinimalModel(ALG, {"b": (A * A).scale(2)}),
        f"MinimalModel({S2}, involution=False, weights=(0, 0))",
        "weights",
    ),
    "PseudoisotopyRow": (
        lambda: PseudoisotopyRow(0, 1, 0, 0, 1),
        lambda: PseudoisotopyRow(1, 1, 0, 0, 1),
        ROW,
        "invP_plus",
    ),
    "PseudoisotopyTable": (
        lambda: PseudoisotopyTable(3, [1], [0], [0], [1]),
        lambda: PseudoisotopyTable(4, [1, 0], [0, 0], [0, 0], [1, 0]),
        "PseudoisotopyTable(cap=3, invP_plus=(1,), invP_minus=(0,), invA_plus=(0,), invA_minus=(1,))",
        "invP_plus",
    ),
    "TruncatedSeries": (
        lambda: TruncatedSeries([1, 0, 1]),
        lambda: TruncatedSeries([1, 0, 2]),
        "TruncatedSeries(coeffs=(1, 0, 1))",
        "coeffs",
    ),
    "ExprTerm": (
        lambda: ExprTerm(1, 0, 4),
        lambda: ExprTerm(1, 0, None),
        "ExprTerm(coeff=1, power=0, period=4)",
        "period",
    ),
    "RationalExpr": (
        lambda: RationalExpr([ExprTerm(1, 0, 4)]),
        lambda: RationalExpr([ExprTerm(-1, 0, 4)]),
        "RationalExpr(terms=(ExprTerm(coeff=1, power=0, period=4),))",
        "terms",
    ),
    "KernelBoundInputs": (
        lambda: KernelBoundInputs(**KBI),
        lambda: KernelBoundInputs(**KBI, dim_diff=1),
        "KernelBoundInputs(i=17, m=56, dim_boundary=7, dim_P=1, dim_inv_plus=0, "
        "dim_inv_minus=1, dim_diff=0)",
        "dim_P",
    ),
    "KernelBoundResult": (
        lambda: KernelBoundResult(True, Fraction(1, 2), None),
        lambda: KernelBoundResult(True, Fraction(1, 3), None),
        "KernelBoundResult(applicable=True, bound=Fraction(1, 2), failed_hypothesis=None)",
        "bound",
    ),
    "CurvaturePair": (
        lambda: CurvaturePair(1, 29, 86, 30),
        lambda: CurvaturePair(1, 29, 90, 30),
        "CurvaturePair(j=1, i=29, m_min=86, conclusion_degree=30)",
        "m_min",
    ),
}
MODELS = ("DgaModel", "MinimalModel")


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_give_equal_values(name):
    build, changed, _, _ = VALUES[name]
    x, y = build(), build()
    assert x is not y
    assert x == y and not x != y
    assert x != changed() and not x == changed()
    assert x != name and x != None  # noqa: E711
    if name in MODELS:
        with pytest.raises(TypeError):
            hash(x)  # a model holds its differential, a mapping
    else:
        assert hash(x) == hash(y)
        assert pickle.loads(pickle.dumps(x)) == x
    assert copy.copy(x) == x


@pytest.mark.parametrize("name", VALUES)
def test_repr_names_every_field(name):
    build, _, text, _ = VALUES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned_or_deleted(name):
    build, changed, _, field = VALUES[name]
    x = build()
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, getattr(changed(), field))
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, field) == before


@pytest.mark.parametrize("name", VALUES)
def test_slots_are_the_fields(name):
    cls = type(VALUES[name][0]())
    slots = [slot for c in cls.__mro__ for slot in c.__dict__.get("__slots__", ())]
    assert sorted(slots) == sorted(cls._fields)


def test_minimal_model_never_equals_a_dga_model():
    # the same fields in the other class are a different value
    x = MinimalModel(ALG, {"b": A * A})
    assert x != DgaModel(ALG, {"b": A * A})
    assert DgaModel(ALG, {"b": A * A}) != x


def _lone_eigen_column():
    # a split is all or nothing: one eigen column without the other is refused
    return EigenTable(2, [1, 1], [1, 1], [1, 0])


def _not_square_zero():
    alg = GradedAlgebra([("a", 2), ("b", 3), ("c", 4)])
    a, b = alg.gen("a"), alg.gen("b")
    return DgaModel(alg, {"b": a * a, "c": a * b})


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: DegreeSlice(0, 1, 2), ValueError, "betti 2 out of range at degree 0"),
        (lambda: DegreeSlice(0, 1, 1, 1), ValueError, "eigen data must be all-or-nothing"),
        (lambda: DegreeSlice(0, 2, 1, 1, 1), ValueError, "eigen split 1+1 != betti 1 at degree 0"),
        (lambda: DegreeSlice(0, 5, 2, -1, 3), ValueError, "negative eigen split -1+3 at degree 0"),
        (lambda: DegreeSlice(3, 5, 2, 3, -1), ValueError, "negative eigen split 3+-1 at degree 3"),
        (lambda: EigenTable(2, [1], [1]), ValueError, "need one slice per degree 0..cap-1"),
        (_lone_eigen_column, ValueError, "eigen data must be all-or-nothing"),
        # the columns are checked in bulk, with the first failing degree's DegreeSlice error
        (lambda: EigenTable(2, [1, 1], [1, 2]), ValueError, "betti 2 out of range at degree 1"),
        (
            lambda: EigenTable(3, [1, 0, 1], [1, 0, 1], [1, 0, 0], [0, 0, 2]),
            ValueError,
            "eigen split 0+2 != betti 1 at degree 2",
        ),
        (lambda: DgaModel(ALG, {"c": A}), KeyError, "\"unknown generator 'c'\""),
        (
            lambda: DgaModel(ALG, {"b": OTHER.gen("a") * OTHER.gen("a")}),
            ValueError,
            "value for b lives in a different algebra",
        ),
        (lambda: DgaModel(ALG, {"b": A}), ValueError, "value for b must be homogeneous of degree 4, got a"),
        (lambda: DgaModel(ALG, {}, False, (0,)), ValueError, "need 2 generator weights, got 1"),
        (_not_square_zero, NotSquareZeroError, "d^2(c) = a^3 != 0"),
        (
            lambda: DgaModel(ALG, {"b": A * A}, True, (1, 1)),
            InvolutionIncompatibleError,
            "differential of b (weight 1) has the term a^2 of weight 2",
        ),
        (
            lambda: MinimalModel(GradedAlgebra([("x", 1)]), {}),
            SimpleConnectivityError,
            "generator x has degree 1; a simply-connected model needs all degrees >= 2",
        ),
        (lambda: PseudoisotopyRow(0, 1, -1, 0, 1), NegativeDimensionError, "negative dimension in row i=0"),
        (lambda: PseudoisotopyRow(0, 1, 0, 0, 2), ValueError, "row i=0: invP_plus must equal invA_minus"),
        (lambda: PseudoisotopyTable(10, [1], [0], [0], [1]), ValueError, "need one row per i 0..cap-3"),
        # the columns are checked in bulk, with the first failing row's PseudoisotopyRow error
        (
            lambda: PseudoisotopyTable(4, [1, 0], [0, -1], [0, 0], [1, 0]),
            NegativeDimensionError,
            "negative dimension in row i=1",
        ),
        (
            lambda: PseudoisotopyTable(4, [1, 1], [0, 0], [0, 0], [1, 0]),
            ValueError,
            "row i=1: invP_plus must equal invA_minus",
        ),
        (lambda: TruncatedSeries(["x"]), ValueError, "invalid literal for int() with base 10: 'x'"),
        (lambda: ExprTerm(1, -1), SeriesExprError, "numerator power must be >= 0"),
        (lambda: ExprTerm(1, 0, 0), SeriesExprError, "denominator period must be >= 1"),
        (
            lambda: KernelBoundInputs(**{**KBI, "dim_P": 2}),
            InvariantViolationError,
            "eigenspace dimensions 0+1 do not add up to dim_P = 2",
        ),
    ],
)
def test_invalid_values_are_refused(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
