import subprocess
import sys
from operator import sub
from pathlib import Path

import pytest

import loopinv.cohomology
from loopinv.cohomology import NoInvolutionError, eigen_table, integral_columns
from loopinv.models import borel_model, loop_model, parse_model
from support import (
    QMatrix,
    algebra_generating_function,
    chain_basis,
    chain_block_entries,
    chain_layout,
    closed_form,
    decode,
    induced_involution,
    involution_eigen_dims,
    load_model,
    oracle_betti,
    oracle_layout,
    per_degree_monomial_basis,
    ranked,
)


@pytest.fixture(scope="module")
def borel_d2():
    return borel_model(load_model("sphere-bundle-d2.model"))


def test_cochain_matrix_degree_seven(borel_d2):
    # C^7 = {x} in block (weight parity) 0, whose part of C^8 is
    # {alpha^4, alpha x_bar} (weights -4 and 0), g = alpha times the part
    # {alpha^3, x_bar} of C^6 in block 1; D(x) = alpha x_bar, keyed by the
    # code of x_bar with the top 8 less its degree 6 in the top field
    layout = oracle_layout(borel_d2, 8)
    fields = layout.fields
    assert layout.free[7] == {0: [(1 << fields[1]) + ((8 - 7) << fields[-1])]}
    assert chain_basis(layout, 6, 1) == ((3, 0, 0), (0, 0, 1))
    assert chain_basis(oracle_layout(borel_d2, 9), 8, 0) == ((4, 0, 0), (1, 0, 1))
    columns = integral_columns(layout.terms, layout.free[7][0])
    assert columns == [{(1 << fields[2]) + ((8 - 6) << fields[-1]): 1}]
    [key] = columns[0]
    assert decode(layout, key, 8) == (1, 0, 1)


def test_cochain_matrix_zero_differential():
    # g = x_bar here, so the g-free columns of degree 6 are none, and each
    # whole block, put together along the chain, is zero
    loop = loop_model(load_model("sphere-bundle-d2.model"))
    layout = oracle_layout(loop, 7)
    assert not layout.free[6]
    assert all(not chain_block_entries(loop, layout, 6, key) for key in (0, 1))
    dims = [len(chain_basis(layout, 6, key)) for key in (0, 1)]
    assert sum(dims) == len(per_degree_monomial_basis(loop.algebra, 6))
    assert eigen_table(loop, 7).slice(6).cochain_dim == sum(dims)


def test_cochain_matrix_empty_degree(borel_d2):
    # degree 1 has no monomials; alpha (weight -1) spans block 1 of degree
    # 2, alpha times the unit of degree 0, and has no g-free part
    layout = oracle_layout(borel_d2, 3)
    assert not layout.free[1] and not layout.free[2]
    assert chain_basis(layout, 2, 1) == ((1, 0, 0),)
    table = eigen_table(borel_d2, 3)
    assert [s.cochain_dim for s in table.slices] == [1, 0, 1]


def test_eigen_table_builds_one_layout(borel_d2, monkeypatch):
    # the layout and the packed differential are built once per table,
    # whatever the number of degrees and blocks
    calls = []
    for name in ("build_layout", "_packed_terms"):
        real = getattr(loopinv.cohomology, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(loopinv.cohomology, name, counting)
    eigen_table(borel_d2, 20)
    assert sorted(calls) == ["_packed_terms", "build_layout"]


def test_clearing_skips_the_leads_of_the_degree_before(monkeypatch):
    # S^2 Borel at cap 24, by the chain route, has 277 g-free columns: 121
    # are leads of pivots of the degree before and are cleared, and 13 of
    # the 156 left add no pivot (their D is zero).  Each g-free block is
    # ranked once, in degree order and block 0 first, and both signs occur.
    # Of the 143 pivots they add, 123 are apparent pivots that no reduction
    # uses: source codes, never assembled
    dga = borel_model(load_model("s2.model"))
    layout = oracle_layout(dga, 24)
    blocks = [level[p] for level in layout.free for p in sorted(level)]
    real_reduce = loopinv.cohomology._reduce_block
    sources, uncleared, zero, store = [], [], [], []

    def reduce_block(leads, codes, pivots, expand):
        left = [code for code in codes if code not in pivots]
        before = len(pivots)
        real_reduce(leads, codes, pivots, expand)
        sources.append(codes)
        uncleared.append(len(left))
        zero.append(len(left) - (len(pivots) - before))
        store[:] = [pivots]

    monkeypatch.setattr(loopinv.cohomology, "_reduce_block", reduce_block)
    ranked(dga, chain_layout(dga, 24))
    assert sources == blocks
    assert (sum(map(len, blocks)), sum(uncleared), sum(zero)) == (277, 156, 13)
    assert {p for level in layout.free for p in level} == {0, 1}
    (pivots,) = store
    assert (len(pivots), sum(type(v) is int for v in pivots.values())) == (143, 123)


S2_X_S2 = "gen a 2\ngen b 3\nd b = a^2\ngen c 2\ngen e 3\nd e = c^2\n"
# SU(3)/T^2, the complete flag manifold, which is not a product
FLAG3 = "gen a 2\ngen c 2\ngen b 3\ngen e 5\nd b = a^2 + a*c + c^2\nd e = a^2*c + a*c^2\n"


def _borel_peak_kb(text, cap, whole=False):
    """VmHWM, the high-water mark of a fresh interpreter that computes the
    Borel table of the model text at the cap, ranked whole if ``whole``:
    the script builds the chain layout itself (g is alpha, generator 0 of
    a Borel model) and patches it in as ``build_layout``'s.  ru_maxrss can
    carry over from the parent through vfork and exec."""
    src = str(Path(loopinv.cohomology.__file__).resolve().parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from loopinv import cohomology\n"
        "from loopinv.models import borel_model, parse_model\n"
        f"dga, cap = borel_model(parse_model({text!r})), {cap}\n"
    )
    if whole:
        script += (
            "gens, rest = dga.algebra.generators, list(range(1, len(dga.weights)))\n"
            "shape = [(gens[i].degree, dga.weights[i] % 2) for i in rest]\n"
            "layout = cohomology._layout(dga, cap, 0, rest, cohomology._counts(shape, cap))\n"
            "cohomology.build_layout = lambda model, top: (layout.counts, [(layout, 1)])\n"
        )
    script += (
        "cohomology.eigen_table(dga, cap)\n"
        "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return int(out.stdout)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_s2xs2_borel_cap_50_peak_memory():
    # apparent pivots are held as source codes, not columns: the whole
    # table peaks at about 32 MB (40 MB with every g-free code listed at
    # once), where storing every pivot's vector took about 88 MB
    assert _borel_peak_kb(S2_X_S2, 50, whole=True) <= 60 * 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_s2xs2_borel_cap_70_peak_memory():
    # the g-free codes are enumerated a block at a time from the head and
    # tail of the layout, not held for the whole table: about 81 MB, where
    # listing all 976,466 of them at once took about 116 MB
    assert _borel_peak_kb(S2_X_S2, 70, whole=True) <= 100 * 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_s2xs2_borel_cap_120_product_route_peak_memory():
    # the product route ranks each S^2 factor alone and folds the barcodes:
    # about 15 MB, where the chain route ranks 8.5M g-free cells in 521 MB
    assert _borel_peak_kb(S2_X_S2, 120) <= 40 * 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_flag3_borel_cap_60_peak_memory():
    # SU(3)/T^2 is not a product, so its table takes the chain route:
    # about 55 MB
    assert _borel_peak_kb(FLAG3, 60) <= 75 * 1024


@pytest.mark.parametrize("degree", [-1, 20, 21])
def test_slice_outside_the_table_is_an_index_error(borel_d2, degree):
    table = eigen_table(borel_d2, 20)
    assert table.slice(0).degree == 0 and table.slice(19).degree == 19
    with pytest.raises(IndexError, match=r"range 0\.\.19"):
        table.slice(degree)


def test_betti_borel_d2(borel_d2):
    table = eigen_table(borel_d2, 8)
    assert table.slice(6).betti == 2  # alpha^3 and x_bar
    assert table.slice(7).betti == 0


def test_betti_point_model():
    point = borel_model(parse_model(""))
    values = [s.betti for s in eigen_table(point, 9).slices]
    assert values == [1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_betti_two_sphere_base():
    base = load_model("s2.model")
    values = [s.betti for s in eigen_table(base, 7).slices]
    assert values == [1, 0, 1, 0, 0, 0, 0]


def test_betti_matches_oracle_on_two_sphere_borel():
    borel = borel_model(load_model("s2.model"))
    table = eigen_table(borel, 11)
    for n in range(11):
        assert table.slice(n).betti == oracle_betti(borel, n)


def test_induced_involution_degree_zero(borel_d2):
    assert induced_involution(borel_d2, 0) == QMatrix.from_rows([[1]])


def test_induced_involution_degree_two(borel_d2):
    assert induced_involution(borel_d2, 2) == QMatrix.from_rows([[-1]])


def test_induced_involution_degree_six(borel_d2):
    t = induced_involution(borel_d2, 6)
    assert t == QMatrix.diagonal([-1, -1])


def test_induced_involution_squares_to_identity(borel_d2):
    table = eigen_table(borel_d2, 20)
    for n in range(0, 20):
        t = induced_involution(borel_d2, n)
        assert (t * t).is_identity()
        plus, minus = involution_eigen_dims(t)
        assert plus + minus == table.slice(n).betti


def test_induced_involution_requires_involution():
    base = load_model("s2.model")
    with pytest.raises(NoInvolutionError):
        induced_involution(base, 2)


def test_eigen_table_d2_plus(borel_d2):
    table = eigen_table(borel_d2, 20)
    plus = {s.degree: s.inv_plus for s in table.slices if s.inv_plus}
    assert plus == {0: 1, 4: 1, 8: 1, 12: 2, 16: 1}


def test_eigen_table_d2_minus(borel_d2):
    table = eigen_table(borel_d2, 20)
    minus = {s.degree: s.inv_minus for s in table.slices if s.inv_minus}
    assert minus == {2: 1, 6: 2, 10: 1, 14: 1, 18: 2}


def test_eigen_table_matches_closed_forms(borel_d2):
    table = eigen_table(borel_d2, 21)
    assert table.betti_series().coeffs == closed_form("1/(1-t^2) + t^6/(1-t^6)", 21)
    assert table.inv_plus_series().coeffs == closed_form("1/(1-t^4) + t^12/(1-t^12)", 21)
    assert table.inv_minus_series().coeffs == closed_form("t^2/(1-t^4) + t^6/(1-t^12)", 21)


def test_eigen_table_point_model():
    table = eigen_table(borel_model(parse_model("")), 9)
    assert [s.inv_plus for s in table.slices] == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert [s.inv_minus for s in table.slices] == [0, 0, 1, 0, 0, 0, 1, 0, 0]


def test_eigen_table_without_involution_has_no_split():
    table = eigen_table(load_model("s2.model"), 6)
    assert not table.has_eigen_data
    assert all(s.inv_plus is None for s in table.slices)
    with pytest.raises(NoInvolutionError):
        table.inv_plus_series()


def test_betti_series_bounded_by_generating_function(borel_d2):
    table = eigen_table(borel_d2, 20)
    gf = algebra_generating_function(borel_d2.algebra, 20)
    for n in range(20):
        assert table.slice(n).cochain_dim == gf[n]
        assert table.slice(n).betti <= gf[n]


def test_eigen_table_rejects_tiny_cap(borel_d2):
    with pytest.raises(ValueError):
        eigen_table(borel_d2, 1)


def test_reduced_minus_series_from_computed_tables(borel_d2):
    # subtracting the computed one-point table from the computed absolute
    # table leaves t^6/(1-t^12)
    absolute = eigen_table(borel_d2, 21)
    point = eigen_table(borel_model(parse_model("")), 21)
    reduced = tuple(map(sub, absolute.inv_minus, point.inv_minus))
    assert reduced == closed_form("t^6/(1-t^12)", 21)
    reduced_plus = tuple(map(sub, absolute.inv_plus, point.inv_plus))
    assert reduced_plus == closed_form("t^12/(1-t^12)", 21)


def test_loop_space_table_zero_differential():
    loop = loop_model(load_model("sphere-bundle-d2.model"))
    table = eigen_table(loop, 15)
    for s in table.slices:
        assert s.betti == s.cochain_dim  # zero differential
    assert [s.betti for s in table.slices] == [1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0]
