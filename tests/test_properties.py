"""Structural property checks on constructed Borel models: the
square-zero and involution gates, eigen splits summing to betti numbers,
agreement with the brute-force betti oracle, and monomial counts matching
the generating function.  The full twenty-model run at cap 24 lives in
the acceptance suite; this module keeps a faster rotation for everyday
development."""

from functools import partial

import pytest

from loopinv.cohomology import eigen_table
from loopinv.models import borel_model, loop_model
from support import (
    algebra_generating_function,
    differential,
    involution_map,
    load_model,
    oracle_betti,
    per_degree_monomial_basis,
    product_derivation,
    random_models_within_budget,
    sphere_bundle_model,
)

CAP = 16


def _structural_gates(dga):
    d, t = partial(product_derivation, differential(dga)), involution_map(dga)
    for g in dga.algebra.generators:
        gen = dga.algebra.gen(g.name)
        assert not d(d(gen)), f"d^2 != 0 on {g.name}"
        if t is not None:
            assert t(t(gen)) == gen, f"t^2 != id on {g.name}"
            assert t(d(gen)) == d(t(gen)), f"t d != d t on {g.name}"


def _table_properties(dga, cap):
    table = eigen_table(dga, cap)
    gf = algebra_generating_function(dga.algebra, cap)
    for n in range(cap):
        s = table.slice(n)
        assert s.cochain_dim == gf[n] == len(per_degree_monomial_basis(dga.algebra, n))
        assert s.inv_plus + s.inv_minus == s.betti
        assert s.betti == oracle_betti(dga, n)


@pytest.mark.parametrize("d", [2, 3])
def test_sphere_bundle_properties(d):
    dga = borel_model(sphere_bundle_model(d))
    _structural_gates(dga)
    _table_properties(dga, CAP)


def test_two_sphere_properties():
    dga = borel_model(load_model("s2.model"))
    _structural_gates(dga)
    _table_properties(dga, CAP)


@pytest.mark.parametrize("index", range(6))
def test_random_model_properties(index):
    model = random_models_within_budget(seed=20240, count=6, cap=CAP)[index]
    dga = borel_model(model)
    _structural_gates(dga)
    _table_properties(dga, CAP)


def test_loop_model_gates_too():
    for model in random_models_within_budget(seed=77, count=3, cap=CAP):
        loop = loop_model(model)
        _structural_gates(loop)
        table = eigen_table(loop, 8)
        for n in range(8):
            assert table.slice(n).betti == oracle_betti(loop, n)


def test_random_models_are_reproducible():
    a = random_models_within_budget(seed=5, count=3)
    b = random_models_within_budget(seed=5, count=3)
    assert a == b


def test_random_models_exercise_nonzero_differentials():
    models = random_models_within_budget(seed=20240, count=20)
    assert any(
        any(m.differential.values())
        for m in models
    )
