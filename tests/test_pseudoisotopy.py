from operator import add

import pytest

from loopinv import pseudoisotopy
from loopinv.cohomology import EigenTable, eigen_table
from loopinv.models import borel_model, parse_model
from loopinv.pseudoisotopy import NegativeDimensionError, PseudoisotopyRow, pseudoisotopy_table
from support import closed_form, load_model, sphere_bundle_model

POINT = parse_model("")


def test_point_invP_plus_is_the_k_theory_correction():
    # the point's reduced eigenspaces are 0, so Inv+ pi_i P is delta(i) alone
    for cap in range(3, 41):
        table = pseudoisotopy_table(POINT, cap)
        assert table.invP_plus == tuple(int(i % 4 == 3) for i in range(cap - 2)), cap
        assert table.invP_minus == table.invA_plus == (0,) * (cap - 2), cap


def test_point_borel_table_is_its_closed_form():
    # Lambda(alpha) with T(alpha) = -alpha: alpha^(n/2) has sign (-1)^(n/2)
    for cap in range(2, 41):
        table = eigen_table(borel_model(POINT), cap)
        assert table.inv_plus == tuple(int(n % 4 == 0) for n in range(cap)), cap
        assert table.inv_minus == tuple(int(n % 4 == 2) for n in range(cap)), cap


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
    assert table_d2.invP_plus == closed_form("t^3/(1-t^4) + t^11/(1-t^12)", 22)
    assert table_d2.invP_minus == closed_form("t^17/(1-t^12)", 22)


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
    assert table.invP_plus == closed_form("2*t^3/(1-t^4)", 14)
    assert table.invP_minus == closed_form("t^5/(1-t^4)", 14)


def test_sphere_bundle_builder_agrees_with_file():
    built = sphere_bundle_model(2)
    loaded = load_model("sphere-bundle-d2.model")
    assert built.algebra == loaded.algebra


def test_rows_reject_negative_dimensions():
    with pytest.raises(NegativeDimensionError):
        PseudoisotopyRow(0, 1, -1, 0, 1)


def _crafted(monkeypatch, borel_plus, borel_minus, betti_base):
    """Make ``pseudoisotopy_table`` read a Borel table with the given
    eigenspace columns, then a base table with the given betti numbers;
    the tables it asks for are listed in the returned list."""
    betti = [*map(add, borel_plus, borel_minus)]
    tables = [
        EigenTable(len(betti), betti, betti, borel_plus, borel_minus),
        EigenTable(len(betti_base), betti_base, betti_base),
    ]
    asked = []

    def fake(model, cap):
        asked.append(tables[len(asked)])
        return asked[-1]

    monkeypatch.setattr(pseudoisotopy, "eigen_table", fake)
    return asked


def test_columns_from_crafted_tables(monkeypatch):
    # rel+ = (0, 1, 2, 0) and rel- = (0, 3, 1, 0) after the point's (1, 0, 0, 0) and (0, 0, 1, 0)
    _crafted(monkeypatch, [1, 1, 2, 0], [0, 3, 2, 0], [1, 0, 1, 0])
    rows = pseudoisotopy_table(POINT, 4).rows
    assert rows == (PseudoisotopyRow(0, 1, 2, 3, 1), PseudoisotopyRow(1, 2, 1, 1, 2))


def test_a_negative_minus_column_is_refused(monkeypatch):
    # rel-(1) = 0 but dim H_2 = 1 forces a negative entry at i = 0
    _crafted(monkeypatch, [1, 0, 0, 0], [0, 0, 1, 0], [1, 0, 1, 0])
    with pytest.raises(NegativeDimensionError) as raised:
        pseudoisotopy_table(POINT, 4)
    assert str(raised.value) == (
        "dim Inv- pi_0 P = -1 < 0; the model violates the hypotheses of the dimension "
        "formulas (is it a compact manifold?)"
    )


def test_a_negative_reduced_eigenspace_is_refused_before_the_base_table(monkeypatch):
    # the point's class alpha in degree 2 is missing from Inv-
    asked = _crafted(monkeypatch, [1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0])
    with pytest.raises(NegativeDimensionError) as raised:
        pseudoisotopy_table(POINT, 4)
    assert str(raised.value) == (
        "reduced eigenspace dimension negative at degree 2; the one-point table "
        "failed to split off"
    )
    assert len(asked) == 1


def test_cap_too_small_rejected():
    with pytest.raises(ValueError):
        pseudoisotopy_table(load_model("sphere-bundle-d2.model"), 2)
