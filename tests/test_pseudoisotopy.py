import pytest

from loopinv.cohomology import eigen_table
from loopinv.models import borel_model, parse_model
from loopinv.pseudoisotopy import (
    NegativeDimensionError,
    PseudoisotopyRow,
    _assemble_rows,
    _point_split,
    k_theory_correction,
    pseudoisotopy_table,
)
from loopinv.series import RationalExpr, equals_expr
from support import load_model, sphere_bundle_model


def test_k_theory_correction_pattern():
    assert k_theory_correction(3) == 1
    assert k_theory_correction(0) == 0
    assert k_theory_correction(7) == 1
    assert [k_theory_correction(i) for i in range(8)] == [0, 0, 0, 1, 0, 0, 0, 1]
    with pytest.raises(ValueError):
        k_theory_correction(-1)


def test_point_split_is_the_computed_point_table():
    for cap in range(2, 41):
        table = eigen_table(borel_model(parse_model("")), cap)
        split = [(s.inv_plus, s.inv_minus) for s in table.slices]
        assert split == [_point_split(n) for n in range(cap)], f"cap {cap}"


@pytest.fixture(scope="module")
def table_d2():
    return pseudoisotopy_table(load_model("sphere-bundle-d2.model"), 24)


def test_reliable_range(table_d2):
    assert table_d2.reliable_max_i == 21
    assert len(table_d2.rows) == 22
    with pytest.raises(IndexError):
        table_d2.row(22)


def test_d2_plus_spot_values(table_d2):
    # t^3/(1-t^4) + t^11/(1-t^12)
    assert table_d2.row(3).invP_plus == 1
    assert table_d2.row(11).invP_plus == 2
    assert table_d2.row(5).invP_plus == 0


def test_d2_minus_spot_values(table_d2):
    # t^17/(1-t^12)
    assert table_d2.row(17).invP_minus == 1
    assert table_d2.row(16).invP_minus == 0


def test_d2_closed_forms(table_d2):
    assert equals_expr(
        table_d2.inv_plus_series(),
        RationalExpr.geometric(3, 4) + RationalExpr.geometric(11, 12),
    )
    assert equals_expr(table_d2.inv_minus_series(), RationalExpr.geometric(17, 12))


def test_total_dimension(table_d2):
    assert table_d2.total_dimension(17) == 1  # 0 plus + 1 minus
    assert table_d2.total_dimension(3) == 1
    assert table_d2.total_dimension(0) == 0


def test_internal_identities(table_d2):
    base = load_model("sphere-bundle-d2.model")
    betti_m = {0: 1, 7: 1}  # exterior algebra on one degree-7 class
    for r in table_d2.rows:
        assert r.invP_plus == r.invA_minus
        assert r.invP_minus == r.invA_plus - betti_m.get(r.i + 2, 0)


def test_three_sphere_family_closed_forms():
    # Lambda(x:3) is the d=1 member of the same family: only deg x enters,
    # so the closed forms specialize to 2t^3/(1-t^4) and t^5/(1-t^4)
    alg_model = parse_model("gen x 3\n")
    table = pseudoisotopy_table(alg_model, 16)
    assert equals_expr(
        table.inv_plus_series(),
        RationalExpr.geometric(3, 4, coeff=2),
    )
    assert equals_expr(table.inv_minus_series(), RationalExpr.geometric(5, 4))


def test_sphere_bundle_builder_agrees_with_file():
    built = sphere_bundle_model(2)
    loaded = load_model("sphere-bundle-d2.model")
    assert built.algebra == loaded.algebra


def test_rows_reject_negative_dimensions():
    with pytest.raises(NegativeDimensionError):
        PseudoisotopyRow(0, 1, -1, 0, 1)


def test_assemble_rows_flags_negative_minus():
    # rel_minus(1) = 0 but betti(2) = 1 forces a negative entry at i = 0
    rel_plus = [0, 0, 0, 0]
    rel_minus = [0, 0, 0, 0]
    betti_base = [1, 0, 1, 0]
    with pytest.raises(NegativeDimensionError):
        _assemble_rows(rel_plus, rel_minus, betti_base, 4)


def test_assemble_rows_happy_path():
    rows = _assemble_rows([0, 1, 2, 0], [0, 3, 1, 0], [1, 0, 1, 0], 4).rows
    assert rows[0] == PseudoisotopyRow(0, 1, 2, 3, 1)
    assert rows[1] == PseudoisotopyRow(1, 2, 1, 1, 2)


def test_cap_too_small_rejected():
    with pytest.raises(ValueError):
        pseudoisotopy_table(load_model("sphere-bundle-d2.model"), 2)
