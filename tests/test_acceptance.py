"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Everything here is exact integer/rational arithmetic; there are no
tolerances anywhere."""

import time
from functools import partial

from loopinv.cli import main
from loopinv.cohomology import build_layout, eigen_table
from loopinv.curvature import KernelBoundInputs, enumerate_pairs, kernel_lower_bound
from loopinv.models import borel_model, loop_model, parse_model
from loopinv.pseudoisotopy import pseudoisotopy_table
from support import (
    algebra_generating_function,
    closed_form,
    differential,
    involution_map,
    load_model,
    oracle_betti,
    oracle_split,
    per_degree_monomial_basis,
    product_derivation,
    random_models_within_budget,
    sphere_bundle_model,
)

D_RANGE = (2, 3, 4)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed"


def _sphere_tables():
    tables = {}
    for d in D_RANGE:
        cap = 12 * d + 12
        start = time.perf_counter()
        table = eigen_table(borel_model(sphere_bundle_model(d)), cap)
        tables[d] = (table, time.perf_counter() - start)
    return tables


TABLES = _sphere_tables()


def test_criterion_1_equivariant_betti_numbers():
    ok = True
    for d in D_RANGE:
        table, elapsed = TABLES[d]
        expected = closed_form(f"1/(1-t^2) + t^{4 * d - 2}/(1-t^{4 * d - 2})", table.cap)
        ok = ok and table.betti_series().coeffs == expected
        ok = ok and elapsed < 10.0
    _report(1, "equivariant betti numbers, d=2,3,4, runtime bound", ok)


def test_criterion_2_eigenspace_split():
    ok = True
    for d in D_RANGE:
        table, _ = TABLES[d]
        plus = closed_form(f"1/(1-t^4) + t^{8 * d - 4}/(1-t^{8 * d - 4})", table.cap)
        minus = closed_form(f"t^2/(1-t^4) + t^{4 * d - 2}/(1-t^{8 * d - 4})", table.cap)
        ok = ok and table.inv_plus_series().coeffs == plus
        ok = ok and table.inv_minus_series().coeffs == minus
    _report(2, "involution eigenspace split", ok)


def test_criterion_3_pseudoisotopy_pipeline():
    ok = True
    for d in D_RANGE:
        cap = 12 * d + 12
        table = pseudoisotopy_table(sphere_bundle_model(d), cap)
        plus = closed_form(f"t^3/(1-t^4) + t^{8 * d - 5}/(1-t^{8 * d - 4})", cap - 2)
        minus = closed_form(f"t^{12 * d - 7}/(1-t^{8 * d - 4})", cap - 2)
        ok = ok and table.invP_plus == plus
        ok = ok and table.invP_minus == minus
        # internal identities, with the base homology known in closed
        # form: one class each in degrees 0 and 4d-1
        for r in table.rows:
            betti_m = 1 if r.i + 2 in (0, 4 * d - 1) else 0
            ok = ok and r.invP_plus == r.invA_minus
            ok = ok and r.invA_plus - betti_m == r.invP_minus
    _report(3, "pseudoisotopy/A-theory dimension formulas", ok)


def test_criterion_4_bfk_enumeration(capsys):
    code = main(["bfk", "--d", "2", "--j-max", "5"])
    out = capsys.readouterr().out
    rows = [tuple(int(x) for x in line.split()) for line in out.strip().splitlines()[1:]]
    ok = code == 0 and rows == [(1, 17, 56), (3, 29, 92), (5, 41, 128)]
    # d=3, j=1 by hand from the defining inequalities:
    # i = 24-5+10 = 29, m > 60-6+30 = 84 with m = 6 = 2 mod 4 gives 86
    pairs = enumerate_pairs(3, 1)
    ok = ok and [(p.i, p.m_min) for p in pairs] == [(29, 86)]
    with capsys.disabled():
        _report(4, "nontrivial metric-space degree enumeration", ok)


def test_criterion_5_point_model():
    cap = 16
    table = eigen_table(borel_model(parse_model("")), cap)
    ok = True
    for n in range(cap):
        s = table.slice(n)
        ok = ok and s.betti == (1 if n % 2 == 0 else 0)
        ok = ok and s.inv_plus == (1 if n % 4 == 0 else 0)
        ok = ok and s.inv_minus == (1 if n % 4 == 2 else 0)
    _report(5, "one-point space table", ok)


def test_criterion_6_property_suites():
    cap = 24
    models = [sphere_bundle_model(d) for d in D_RANGE]
    models.append(load_model("s2.model"))
    models.extend(random_models_within_budget(seed=1729, count=20, cap=cap))
    ok = True
    for model in models:
        dga = borel_model(model)
        d, t = partial(product_derivation, differential(dga)), involution_map(dga)
        for g in dga.algebra.generators:
            gen = dga.algebra.gen(g.name)
            ok = ok and not d(d(gen))
            ok = ok and t(t(gen)) == gen
            ok = ok and t(d(gen)) == d(t(gen))
        table = eigen_table(dga, cap)
        gf = algebra_generating_function(dga.algebra, cap)
        for n in range(cap):
            s = table.slice(n)
            ok = ok and s.inv_plus + s.inv_minus == s.betti
            ok = ok and s.betti == oracle_betti(dga, n)
            ok = ok and s.cochain_dim == gf[n] == len(per_degree_monomial_basis(dga.algebra, n))
        if not ok:
            break
    _report(6, "structural properties on 24 models at cap 24", ok)


def test_criterion_7_kernel_bound_checker():
    base = KernelBoundInputs(
        i=17, m=56, dim_boundary=7, dim_P=1, dim_inv_plus=0, dim_inv_minus=1, dim_diff=0
    )
    good = kernel_lower_bound(base)
    ok = good.applicable and good.bound > 0
    # perturbation: m too small for the stability dimension hypothesis
    small_m = kernel_lower_bound(
        KernelBoundInputs(i=17, m=40, dim_boundary=7, dim_P=1, dim_inv_plus=0, dim_inv_minus=1)
    )
    ok = ok and not small_m.applicable and "dimension hypothesis" in small_m.failed_hypothesis
    # perturbation: parity flipped, the inequality now reads against inv_plus
    parity = kernel_lower_bound(
        KernelBoundInputs(i=17, m=57, dim_boundary=7, dim_P=1, dim_inv_plus=0, dim_inv_minus=1)
    )
    ok = ok and not parity.applicable and "eigenspace inequality" in parity.failed_hypothesis
    _report(7, "kernel bound checker and its hypothesis gates", ok)


def test_criterion_8_pinned_families():
    # S^4, CP^2 and CP^3: base, loop and Borel tables at cap 20 against the
    # general route and brute-force betti numbers.  The base and loop
    # chains of S^4 run along g = a, a step of 4 under a nonzero D.  The
    # cohomology of CP^3's model is Q[a]/(a^4) with deg a = 2 (d b = a^4
    # kills a^4, and b, of degree 7, is no cocycle), so its base betti
    # series is 1 + t^2 + t^4 + t^6
    cap = 20
    ok = True
    cp3 = eigen_table(load_model("cp3.model"), cap)
    ok = ok and cp3.betti_series().coeffs == closed_form("1 + t^2 + t^4 + t^6", cap)
    for name in ("s4.model", "cp2.model", "cp3.model"):
        model = load_model(name)
        for dga in (model, loop_model(model), borel_model(model)):
            table = eigen_table(dga, cap)
            for n in range(cap):
                s = table.slice(n)
                ok = ok and (s.betti, s.inv_plus, s.inv_minus) == oracle_split(dga, n)
                ok = ok and s.betti == oracle_betti(dga, n)
    s4 = load_model("s4.model")
    for dga in (s4, loop_model(s4)):
        ((layout, _),) = build_layout(dga, cap)[1]
        ok = ok and layout.g_step[0] == 4 and any(dga.differential.values())
    _report(8, "S^4, CP^2 and CP^3 base, loop and Borel tables at cap 20", ok)


def test_criterion_9_flag_manifold_and_grassmannian():
    # the bundled SU(3)/T^2 and Gr_2(C^4): H*(SU(3)/T^2) = Q[a, c] / (a^2 +
    # ac + c^2, a^2 c + a c^2) has Poincare polynomial 1 + 2t^2 + 2t^4 + t^6,
    # and H*(Gr_2(C^4)) = Q[c1, c2] / (h3, h4), with h_k the complete
    # homogeneous polynomials in the Chern roots, 1 + t^2 + 2t^4 + t^6 + t^8
    ok = True
    pinned = {"flag3.model": [1, 0, 2, 0, 2, 0, 1], "gr24.model": [1, 0, 1, 0, 2, 0, 1, 0, 1]}
    for name, poincare in pinned.items():
        table = eigen_table(load_model(name), 12)
        ok = ok and [s.betti for s in table.slices] == poincare + [0] * (12 - len(poincare))
    _report(9, "SU(3)/T^2 and Gr_2(C^4) base Poincare polynomials", ok)
