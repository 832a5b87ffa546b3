"""The block-rank tables of eigen_table against the general route of
support.py (kernel representatives and the induced involution on them),
slice by slice, and the sparse integer block matrices against the dense
matrices that support.py assembles through product_derivation, entry by
entry.  Every column that eigen_table clears is assembled anyway and must
reduce to zero, its pivots, apparent ones built, must equal those of the
eager route (support.eager_pivots), and Kunneth, the Gysin bound and the reduced split from
ker s on the loop model (support.ker_s_split) check tables at caps the
dense oracle cannot reach.  The blocks that eigen_table enumerates from a
layout's head and tail equal, at every split, those of the one-pass
enumeration (support.oracle_layout), and the count table, summed over
parity and along g, is the generating function.  The product route
(Kunneth over Q[g] on the factors' barcodes) equals the chain route in
every degree and parity, and the Borel barcode gives the loop betti
numbers by the Gysin sequence.  Isomorphic factors share one layout,
ranked once, with the table of ranking every factor apart
(support.factor_layout); other factors are laid out apart.  A table is
ranked by a route of the test's choice through one seam: support.ranked,
with the whole table's layout (support.chain_layout, as these oracles
take it), the factors' (support.factor_layout, or support.product_layout
one per shape) or C/(u)'s (support.koszul_layout).  The plan that picks
the route (cohomology._plan) is pinned for every bundled and benchmark
table (tests/golden/plans.json).

Every block is ranked along multiplication by the closed even generator
g, so the models here also cover the shapes of that chain: g = alpha in
every Borel model, g a generator of the minimal model or a barred one
in its base and loop models, no g at all, a lowest closed even generator that is not the
first generator, ties, and two closed even generators of different
degrees."""

import functools
import importlib.util
import json
from math import lcm

import pytest

import support
from loopinv import cohomology, linalg
from loopinv.cohomology import build_layout, eigen_table, integral_columns
from loopinv.models import DgaModel, borel_model, loop_model, parse_model
from support import (
    MODELS_DIR,
    algebra_generating_function,
    chain_basis,
    decode,
    chain_block_entries,
    load_model,
    oracle_split,
    random_models_within_budget,
)

CAP = 24
# the bundled models but SU(3)/T^2 and Gr_2(C^4), whose Borel cochain
# spaces outgrow the dense and monomial-by-monomial oracles below CAP
# (thousands of monomials a degree); their own tests below check them at
# smaller caps and against the chain route.  S^2 x S^2 is bundled too, and
# MODEL_FILES holds it once, as the benchmark's input
BUNDLED = sorted(
    p for p in MODELS_DIR.glob("*.model") if p.stem not in ("flag3", "gr24", "s2xs2")
)
# those, then the benchmark's
MODEL_FILES = BUNDLED + sorted((MODELS_DIR.parent / "benchmark" / "inputs").glob("*.model"))
RANDOM = random_models_within_budget(seed=20240, count=20, cap=CAP)
S2_X_S2 = "gen a 2\ngen b 3\nd b = a^2\ngen c 2\ngen e 3\nd e = c^2\n"
# (model, cap) with rational coefficients, so that the common denominator
# L is not 1; in the last, d x has odd factors on both sides of x
RATIONAL = [
    ("gen a 2\ngen b 5\nd b = 2/3*a^3\n", CAP),
    ("gen a 2\ngen c 2\ngen b 3\nd b = 1/2*a^2 - 1/3*a*c + 5/4*c^2\ngen e 5\n", 10),
    ("gen y 3\ngen x 5\ngen z 3\nd x = 1/2*y*z\n", 14),
    ("gen c 4\ngen a 2\ngen b 5\nd b = 2/3*a*c - 1/5*a^3\n", 16),
]
# (model, index of g in its base model, cap): no closed even generator;
# the lowest one not first, with a second closed even generator of higher
# degree; a tie between two of degree 2, where g is the first declared
CHAIN_SHAPES = [
    ("gen x 3\ngen y 5\ngen z 7\nd z = x*y\n", None, 16),
    ("gen c 4\ngen a 2\ngen b 5\nd b = a*c\n", 1, 16),
    ("gen x 3\ngen a 2\ngen c 2\ngen b 3\nd b = a*c\n", 1, 10),
]


def _assert_matches_oracle(dga, cap):
    table = eigen_table(dga, cap)
    for n in range(cap):
        s = table.slice(n)
        assert (s.betti, s.inv_plus, s.inv_minus) == oracle_split(dga, n), f"degree {n}"


@pytest.mark.parametrize("name", [p.name for p in BUNDLED])
def test_bundled_borel_tables_match_oracle(name):
    _assert_matches_oracle(borel_model(load_model(name)), CAP)


def test_two_sphere_squared_borel_table_matches_oracle():
    _assert_matches_oracle(borel_model(parse_model(S2_X_S2)), 10)


@pytest.mark.parametrize("index", range(len(RANDOM)))
def test_random_borel_tables_match_oracle(index):
    _assert_matches_oracle(borel_model(RANDOM[index]), CAP)


@pytest.mark.parametrize("index", range(5))
def test_random_loop_betti_numbers_match_oracle(index):
    _assert_matches_oracle(loop_model(RANDOM[index]), CAP)


def _assert_blocks_are_scaled_derivation(dga, cap):
    """Each whole block, put together from the g-free columns of the block
    and of its chain predecessors, equals L times the dense Derivation
    block, and the chain order is a permutation of the block's basis."""
    scale = lcm(*(c.denominator for v in dga.differential.values() for c in v.terms.values()))
    layout = support.oracle_layout(dga, cap)
    for n in range(cap):
        full, full_next = support.blocks(dga, n), support.blocks(dga, n + 1)
        assert {p for p in (0, 1) if chain_basis(layout, n, p)} == set(full), f"degree {n}"
        for block, source in full.items():
            assert sorted(chain_basis(layout, n, block)) == sorted(source)
            want = support.cochain_matrix(dga, n, block)
            target = full_next.get(block, ())
            entries = {
                (target[r], source[c]): scale * want[r, c]
                for r in range(want.rows)
                for c in range(want.cols)
                if want[r, c]
            }
            assert chain_block_entries(dga, layout, n, block) == entries, (n, block)


@pytest.mark.parametrize("name", [p.name for p in BUNDLED])
def test_bundled_sparse_blocks_are_scaled_derivation(name):
    _assert_blocks_are_scaled_derivation(borel_model(load_model(name)), CAP)


@pytest.mark.parametrize("index", range(len(RANDOM)))
def test_random_sparse_blocks_are_scaled_derivation(index):
    _assert_blocks_are_scaled_derivation(borel_model(RANDOM[index]), CAP)


@pytest.mark.parametrize("text, cap", RATIONAL)
def test_rational_sparse_blocks_are_scaled_derivation(text, cap):
    model = parse_model(text)
    for dga in (borel_model(model), loop_model(model), model):
        _assert_blocks_are_scaled_derivation(dga, cap)
    _assert_matches_oracle(borel_model(model), cap)


@pytest.mark.parametrize("name", [p.name for p in BUNDLED])
def test_bundled_base_tables_match_oracle(name):
    _assert_matches_oracle(load_model(name), CAP)


@pytest.mark.parametrize("index", range(len(RANDOM)))
def test_random_base_tables_match_oracle(index):
    _assert_matches_oracle(RANDOM[index], CAP)


@pytest.mark.parametrize("text, g, cap", CHAIN_SHAPES)
def test_chain_shapes_match_oracle(text, g, cap):
    model = parse_model(text)
    loop, borel = loop_model(model), borel_model(model)
    assert cohomology._plan(model, cap)[1] == g
    assert cohomology._plan(borel, cap)[1] == 0
    for dga in (model, loop, borel):
        _assert_matches_oracle(dga, cap)
        _assert_blocks_are_scaled_derivation(dga, cap)


@pytest.mark.parametrize("text", [shape[0] for shape in CHAIN_SHAPES + RATIONAL] + [S2_X_S2])
def test_cochain_dims_are_generating_function(text):
    model = parse_model(text)
    for dga in (model, loop_model(model), borel_model(model)):
        table = eigen_table(dga, CAP)
        series = algebra_generating_function(dga.algebra, CAP)
        assert [s.cochain_dim for s in table.slices] == [series[n] for n in range(CAP)]


def _spaces(model):
    return borel_model(model), loop_model(model), model


def _assert_layout_and_dims(dga, cap):
    """The blocks that eigen_table enumerates from its layout hold the
    g-free codes of degrees 0..cap-1 only: each level holds, block by block
    and in basis order, exactly the g-free monomials of that block of
    support.blocks, so the weight parity read off a code's bits and the
    enumeration order are compared as lists.  The block dimensions that
    eigen_table carries along g count every monomial of each degree."""
    layout = support.enumerated_layout(dga, cap)
    g = support.closed_index(layout)
    assert len(layout.free) == cap
    for n, level in enumerate(layout.free):
        want = {
            p: [m for m in monos if g is None or not m[g]]
            for p, monos in support.blocks(dga, n).items()
        }
        got = {p: [decode(layout, code) for code in codes] for p, codes in level.items()}
        assert got == {p: monos for p, monos in want.items() if monos}, n
    dims = [s.cochain_dim for s in eigen_table(dga, cap).slices]
    assert dims == [support.brute_force_monomial_count(dga.algebra, n) for n in range(cap)]


@pytest.mark.parametrize("name", [p.name for p in BUNDLED])
def test_bundled_layouts_stop_below_the_cap_and_dims_count_monomials(name):
    for dga in _spaces(load_model(name)):
        _assert_layout_and_dims(dga, CAP)


@pytest.mark.parametrize("index", range(len(RANDOM)))
def test_random_layouts_stop_below_the_cap_and_dims_count_monomials(index):
    for dga in _spaces(RANDOM[index]):
        _assert_layout_and_dims(dga, CAP)


def _assert_packed_columns_are_tuple_columns(dga, cap):
    """Every g-free column that integral_columns assembles from packed
    codes equals, entry for entry, the column the exponent-tuple route of
    support.tuple_columns assembles for the same monomial, with each row
    keyed by the layout code of its g-free part."""
    layout = support.oracle_layout(dga, cap)
    g = support.closed_index(layout)

    def g_free(code):
        mono = decode(layout, code)
        return mono if g is None else mono[:g] + mono[g + 1 :]

    # no two monomials share a code, and decoding is one to one
    every = [code for level in layout.free for block in level.values() for code in block]
    index = {g_free(code): code for code in every}
    assert len(index) == len(set(every)) == len(every)
    # the rows of degree cap, which the layout does not hold, packed here
    for z in support.per_degree_monomial_basis(dga.algebra, cap):
        if g is None or not z[g]:
            code = sum(e << f for e, f in zip(z, layout.fields))
            index[z if g is None else z[:g] + z[g + 1 :]] = code
    for n in range(cap):
        for block, codes in layout.free[n].items():
            want = support.tuple_columns(support.differential(dga), map(g_free, codes), index, g)
            assert integral_columns(layout.terms, codes) == want, (n, block)


@pytest.mark.parametrize("name", [p.name for p in BUNDLED])
def test_bundled_packed_columns_are_tuple_columns(name):
    for dga in _spaces(load_model(name)):
        _assert_packed_columns_are_tuple_columns(dga, CAP)


@pytest.mark.parametrize("index", range(len(RANDOM)))
def test_random_packed_columns_are_tuple_columns(index):
    for dga in _spaces(RANDOM[index]):
        _assert_packed_columns_are_tuple_columns(dga, CAP)


@pytest.mark.parametrize("text, cap", RATIONAL + [(shape[0], shape[2]) for shape in CHAIN_SHAPES])
def test_rational_and_chain_shape_packed_columns_are_tuple_columns(text, cap):
    for dga in _spaces(parse_model(text)):
        _assert_packed_columns_are_tuple_columns(dga, cap)


# Caps at which the top exponent of a degree-2 generator, cap // 2, is
# 2^k - 1, 2^k or 2^k + 1, so that its bit field is exactly full, one bit
# wider than at the cap before, or one past a power of two.
FIELD_EDGES = [14, 15, 16, 17, 18, 126, 127, 128, 129, 130]


@pytest.mark.parametrize("cap", FIELD_EDGES)
def test_polynomial_generator_at_field_edges(cap):
    # Borel model of Q[a], |a| = 2: D a = alpha a_bar and D a_bar = 0, so
    # cohomology is spanned by alpha^i (sign (-1)^i) and a^j a_bar (sign -1)
    dga = borel_model(parse_model("gen a 2\n"))
    table = eigen_table(dga, cap)
    a = dga.algebra.index("a")
    ((layout, _),) = build_layout(dga, cap)[1]
    fields = layout.fields
    assert fields[a + 1] - fields[a] == (cap // 2).bit_length()
    for n, s in enumerate(table.slices):
        assert (s.betti, s.inv_plus, s.inv_minus) == (1, *((1, 0) if n % 4 == 0 else (0, 1))), n
    _assert_packed_columns_are_tuple_columns(dga, cap)


@pytest.mark.parametrize("cap", [14, 16, 30])
def test_steps_that_fill_another_generators_field(cap):
    # S^2: D b = a^2 + alpha b_bar, so the column of a^j b reaches a^(cap/2),
    # the largest exponent a's field holds, by a step of the generator b
    dga = borel_model(load_model("s2.model"))
    _assert_packed_columns_are_tuple_columns(dga, cap)
    table = eigen_table(dga, cap)
    for n in (cap - 2, cap - 1):
        s = table.slice(n)
        assert (s.betti, s.inv_plus, s.inv_minus) == oracle_split(dga, n), n


def _assert_row_keys_are_codes_with_degree(dga, cap):
    """Every row key of integral_columns is the packed code of the g-free
    part z of its monomial g^c * z plus cap - deg z in the top field (a
    higher degree z comes first), z lies in the target block, and a key
    names rows of one chain of blocks only: blocks that differ by a power
    of g, which is what lets eigen_table share one pivot dict between all
    blocks."""
    layout = support.oracle_layout(dga, cap)
    fields, (step, dw) = layout.fields, layout.g_step
    alg, g = dga.algebra, support.closed_index(layout)
    owner = {}
    for n in range(cap):
        for block in layout.free[n]:
            want = set()
            for mono in support.blocks(dga, n + 1).get(block, ()):
                z = tuple(0 if k == g else e for k, e in enumerate(mono))
                code = sum(e << f for e, f in zip(z, fields))
                want.add(code + ((cap - alg.monomial_degree(z)) << fields[-1]))
            for col in integral_columns(layout.terms, layout.free[n][block]):
                assert set(col) <= want, (n, block)
            for key in want:
                m, w = owner.setdefault(key, (n + 1, block))
                c = (n + 1 - m) // step if step else 0
                assert n + 1 - m == c * step, (key, n, block)
                assert (block - w - c * dw) % 2 == 0, (key, n, block)


@pytest.mark.parametrize("text", [S2_X_S2] + [shape[0] for shape in CHAIN_SHAPES + RATIONAL])
def test_row_keys_are_codes_with_degree(text):
    for dga in _spaces(parse_model(text)):
        _assert_row_keys_are_codes_with_degree(dga, 12)


S2 = "gen a 2\ngen b 3\nd b = a^2\n"


def _s2_power(factors):
    return "".join(S2.replace("a", f"a{i}").replace("b", f"b{i}") for i in range(factors))


def _assert_betti_series_multiply(space, factors, cap):
    # Kunneth: the model of a product is the tensor product of the models
    # (for the loop model as L(X x Y) = LX x LY), so betti series multiply
    one = eigen_table(space(parse_model(S2)), cap).betti_series()
    want = [1] + [0] * (cap - 1)
    for _ in range(factors):
        want = [sum(want[k] * one[n - k] for k in range(n + 1)) for n in range(cap)]
    product = eigen_table(space(parse_model(_s2_power(factors))), cap).betti_series()
    assert [product[n] for n in range(cap)] == want


@pytest.mark.parametrize("factors, cap", [(2, 50), (3, 24)])
def test_loop_betti_series_of_a_product_is_the_product(factors, cap):
    _assert_betti_series_multiply(loop_model, factors, cap)


@pytest.mark.parametrize("factors, cap", [(2, 50), (3, 24)])
def test_base_betti_series_of_a_product_is_the_product(factors, cap):
    _assert_betti_series_multiply(lambda model: model, factors, cap)


def _assert_gysin_bound(text, cap):
    # the Gysin sequence H^{n-2}_{S^1} -> H^n_{S^1} -> H^n(LX) is exact in
    # the middle, so dim H^n_{S^1} <= dim H^{n-2}_{S^1} + dim H^n(LX)
    model = parse_model(text)
    borel = eigen_table(borel_model(model), cap).betti_series()
    loop = eigen_table(loop_model(model), cap).betti_series()
    for n in range(cap):
        assert borel[n] <= (borel[n - 2] if n >= 2 else 0) + loop[n], n


def test_borel_betti_numbers_obey_the_gysin_bound():
    _assert_gysin_bound(S2_X_S2, 50)


def test_borel_betti_numbers_of_the_three_fold_product_obey_the_gysin_bound():
    _assert_gysin_bound(_s2_power(3), 24)


def _assert_reduced_split_is_ker_s(model, cap):
    # the Borel table less the point's, against ker s on the loop model
    # (support.ker_s_split), which builds no Borel model and no packed code
    table = eigen_table(borel_model(model), cap)
    point = eigen_table(borel_model(parse_model("")), cap)
    reduced = [
        (s.inv_plus - p.inv_plus, s.inv_minus - p.inv_minus)
        for s, p in zip(table.slices, point.slices)
    ]
    assert reduced == support.ker_s_split(model, cap)


@pytest.mark.parametrize("name", [p.name for p in BUNDLED])
def test_bundled_reduced_split_is_ker_s(name):
    _assert_reduced_split_is_ker_s(load_model(name), 60)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sphere_bundle_reduced_split_is_ker_s(d):
    _assert_reduced_split_is_ker_s(support.sphere_bundle_model(d), 100)


def test_two_sphere_squared_reduced_split_is_ker_s():
    # the exact split of a product well past the dense oracle's cap 10
    _assert_reduced_split_is_ker_s(parse_model(S2_X_S2), 24)


@pytest.mark.parametrize("index", range(len(RANDOM)))
def test_random_reduced_split_is_ker_s(index):
    _assert_reduced_split_is_ker_s(RANDOM[index], CAP)


@pytest.mark.parametrize("text, cap", RATIONAL + [(shape[0], shape[2]) for shape in CHAIN_SHAPES])
def test_rational_and_chain_shape_reduced_split_is_ker_s(text, cap):
    _assert_reduced_split_is_ker_s(parse_model(text), cap)


def _assert_cleared_columns_vanish(dga, cap, monkeypatch):
    """eigen_table ranks each g-free block once, in degree order, into as
    many new pivots as the eager route (assemble every code that is not a
    key of the pivot dict, then reduce) would add, assembling no code that
    is a key; every column it skips, assembled anyway, reduces to zero
    against the pivots present once its block is ranked: clearing changes
    neither the rank nor the span of the pivots.  Returns the number of
    columns skipped."""
    real_reduce, real_column = cohomology._reduce_block, cohomology._column
    layout = support.oracle_layout(dga, cap)
    blocks = iter([level[p] for level in layout.free for p in sorted(level)])
    assembled, skipped = [], []

    def expand(code):
        return integral_columns(layout.terms, [code])[0]

    def column(table, code):
        assembled.append(code)
        return real_column(table, code)

    def reduce_block(leads, codes, pivots, assemble):
        assert codes == next(blocks)
        cleared = [code for code in codes if code in pivots]
        eager = integral_columns(layout.terms, [code for code in codes if code not in pivots])
        want = linalg.rank(eager, dict(pivots), expand)
        del assembled[:]
        real_reduce(leads, codes, pivots, assemble)
        assert len(pivots) == want, codes
        assert not set(assembled) & set(cleared), codes
        again = integral_columns(layout.terms, cleared)
        assert linalg.rank(again, dict(pivots), expand) == len(pivots), codes
        skipped.extend(cleared)

    monkeypatch.setattr(cohomology, "_reduce_block", reduce_block)
    monkeypatch.setattr(cohomology, "_column", column)
    support.ranked(dga, support.chain_layout(dga, cap))
    monkeypatch.undo()
    assert next(blocks, None) is None
    return len(skipped)


@pytest.mark.parametrize("name", [p.name for p in BUNDLED])
def test_bundled_cleared_columns_vanish(name, monkeypatch):
    for dga in _spaces(load_model(name)):
        _assert_cleared_columns_vanish(dga, CAP, monkeypatch)


@pytest.mark.parametrize("index", range(len(RANDOM)))
def test_random_cleared_columns_vanish(index, monkeypatch):
    for dga in _spaces(RANDOM[index]):
        _assert_cleared_columns_vanish(dga, CAP, monkeypatch)


@pytest.mark.parametrize("text, cap", RATIONAL + [(shape[0], shape[2]) for shape in CHAIN_SHAPES])
def test_rational_and_chain_shape_cleared_columns_vanish(text, cap, monkeypatch):
    for dga in _spaces(parse_model(text)):
        _assert_cleared_columns_vanish(dga, cap, monkeypatch)


def test_clearing_applies_to_products(monkeypatch):
    # the Borel model of S^2 x S^2 at cap 24 clears some of its columns,
    # so the soundness checks above are not vacuous on several generators
    dga = borel_model(parse_model(S2_X_S2))
    assert _assert_cleared_columns_vanish(dga, CAP, monkeypatch) > 0


def _assert_pivots_match_eager(dga, cap, monkeypatch):
    """eigen_table's pivot dict, once each apparent pivot (held as its
    source code) is assembled and made primitive, equals the eager route's
    (support.eager_pivots) exactly, keys and vectors."""
    real_reduce, seen = cohomology._reduce_block, []

    def reduce_block(leads, codes, pivots, expand):
        seen.append(pivots)
        real_reduce(leads, codes, pivots, expand)

    layout = support.chain_layout(dga, cap)
    monkeypatch.setattr(cohomology, "_reduce_block", reduce_block)
    support.ranked(dga, layout)
    monkeypatch.undo()
    pivots = seen[0] if seen else {}
    assert all(p is pivots for p in seen)
    terms = layout.terms
    assembled = {
        k: linalg._primitive(integral_columns(terms, [v])[0]) if type(v) is int else v
        for k, v in pivots.items()
    }
    assert assembled == support.eager_pivots(dga, cap)


# the bundled and benchmark models, the random, rational and chain-shape ones
EVERY_MODEL = (
    [pytest.param(p.read_text(encoding="utf-8"), CAP, id=p.name) for p in MODEL_FILES]
    + [pytest.param(model, CAP, id=f"random-{i}") for i, model in enumerate(RANDOM)]
    + [pytest.param(text, cap, id=f"rational-{i}") for i, (text, cap) in enumerate(RATIONAL)]
    + [pytest.param(text, cap, id=f"chain-{i}") for i, (text, _, cap) in enumerate(CHAIN_SHAPES)]
)


@pytest.mark.parametrize("model, cap", EVERY_MODEL)
def test_pivots_match_the_eager_route(model, cap, monkeypatch):
    model = parse_model(model) if isinstance(model, str) else model
    for dga in _spaces(model):
        _assert_pivots_match_eager(dga, cap, monkeypatch)


def _assert_blocks_at_every_split(dga, cap):
    """At every split k of the generators other than g into head and
    tail, the head lists the monomials of the first k of them, each
    (degree, parity) block that eigen_table enumerates equals the
    oracle's (support.oracle_layout lists every code of the table in one
    pass), as lists in order, the count table counts it, and the table is
    the one eigen_table makes by its own route."""
    table, oracle = eigen_table(dga, cap), support.oracle_layout(dga, cap)
    g, gens = support.closed_index(oracle), dga.algebra.generators
    shape = [(x.degree, w % 2) for i, (x, w) in enumerate(zip(gens, dga.weights)) if i != g]
    heads = cohomology._counts(shape, cap)[1]
    for split in range(len(shape) + 1):
        layout = support.chain_layout(dga, cap, split)
        assert len(layout.head) == heads[split], split
        for n in range(cap):
            for p in 0, 1:
                want = oracle.free[n].get(p, [])
                assert cohomology._block(layout, n, p) == want, (split, n, p)
                assert layout.counts[2 * n + p] == len(want), (split, n, p)
        assert support.ranked(dga, layout) == table, split


@pytest.mark.parametrize("model, cap", EVERY_MODEL)
def test_blocks_match_the_oracle_at_every_split(model, cap):
    model = parse_model(model) if isinstance(model, str) else model
    for dga in _spaces(model):
        _assert_blocks_at_every_split(dga, cap)


@pytest.mark.parametrize("model, cap", EVERY_MODEL)
def test_count_table_is_the_generating_function(model, cap):
    # summed over parity, the count table is the series of the g-free
    # monomials; times 1 / (1 - t^deg g) it counts every monomial
    model = parse_model(model) if isinstance(model, str) else model
    for dga in _spaces(model):
        counts, layouts = build_layout(dga, cap)
        series = [counts[2 * n] + counts[2 * n + 1] for n in range(cap)]
        step = layouts[0][0].g_step[0]
        for n in range(step, cap if step else 0):
            series[n] += series[n - step]
        assert series == list(algebra_generating_function(dga.algebra, cap).coeffs)


def _layouts(models, caps):
    """Each model in base, loop and Borel form at each cap, with its name,
    as (name, space, cap, dga)."""
    for name, model in models:
        for space, dga in zip(("borel", "loop", "base"), _spaces(model)):
            for cap in caps:
                yield name, space, cap, dga


NAMED_MODELS = [(p.stem, parse_model(p.read_text(encoding="utf-8"))) for p in MODEL_FILES]


def test_each_table_lists_its_codes_once(monkeypatch):
    # a chain layout lists the head and the tail once each: two calls of
    # _codes whose generators are, in order, those other than g, so that
    # no code is listed twice
    real_codes, calls = cohomology._codes, []

    def codes(model, fields, which, *args):
        calls.append(which)
        return real_codes(model, fields, which, *args)

    monkeypatch.setattr(cohomology, "_codes", codes)
    for name, space, cap, dga in _layouts(NAMED_MODELS, (10, 24, 40)):
        del calls[:]
        layout = support.chain_layout(dga, cap)
        g = support.closed_index(layout)
        rest = [i for i in range(len(dga.algebra.generators)) if i != g]
        assert len(calls) == 2 and calls[0] + calls[1] == rest, (name, space, cap)


def test_small_tables_take_no_head():
    # of N g-free monomials, a head of k >= 2 costs N / k + 2 top k >=
    # 2 sqrt(2 top N) >= N when N <= 8 top, so such a table takes no head.
    # For 4 top < N <= 8 top that needs the cost of no head to be N, not
    # N / 1 + 2 top, which a head of two monomials (N / 2 + 4 top) beats
    models = NAMED_MODELS + [(f"random-{i}", model) for i, model in enumerate(RANDOM)]
    middle = set()
    for name, space, cap, dga in _layouts(models, (10, 17, 24, 32, 40)):
        layout = support.chain_layout(dga, cap)
        total = sum(layout.counts)
        if total <= 8 * cap:
            assert len(layout.head) == 1, (name, space, cap, total)
            if total > 4 * cap:
                middle.add((name, space, cap))
    assert {("cp2", "borel", 24), ("cp3", "borel", 40), ("s2", "borel", 10)} <= middle


# The product route (build_layout's factors) against the chain route.  A
# case is a minimal model: every bundled and benchmark model, the product
# of every pair of them (a model with itself too), products of random
# models and the three products below; each in base, loop and Borel form
# at each cap, except the tables of more than PRODUCT_BUDGET g-free cells,
# which the chain route would take minutes to rank.
PRODUCT_CAPS = (4, 10, 17, 24, 30)
PRODUCT_BUDGET = 60_000
_RANDOM_FACTORS = random_models_within_budget(seed=8111, count=12, cap=CAP)
# S^2' is S^2 with d e = 2 c^2: a factor isomorphic to S^2's, of another
# value, which build_layout keeps apart.  The node a c and the double line
# (a + c)^2 have generators of one degree and weight each, in order, but
# other loop and Borel tables, so a layout shared by shape alone would
# give the product a wrong table.
S2_PRIME = "gen c 2\ngen e 3\nd e = 2*c^2\n"
NODE = "gen a 2\ngen c 2\ngen b 3\nd b = a*c\n"
DOUBLE_LINE = "gen a 2\ngen c 2\ngen b 3\nd b = a^2 + 2*a*c + c^2\n"
PRODUCT_CASES = (
    [pytest.param(model, id=name) for name, model in NAMED_MODELS]
    + [
        pytest.param(support.product_model(x, y), id=f"{a}*{b}")
        for i, (a, x) in enumerate(NAMED_MODELS)
        for b, y in NAMED_MODELS[i:]
    ]
    + [
        pytest.param(support.product_model(*_RANDOM_FACTORS[i : i + k]), id=f"random-{i}-x{k}")
        for k, starts in ((2, range(0, 6, 2)), (3, range(6, 12, 3)))
        for i in starts
    ]
    + [
        pytest.param(support.product_model(*map(parse_model, texts)), id=name)
        for name, texts in (
            ("s2*s2'", (S2, S2_PRIME)),
            ("s2^4", (S2,) * 4),
            ("node*double-line", (NODE, DOUBLE_LINE)),
        )
    ]
)


@pytest.mark.parametrize("model", PRODUCT_CASES)
def test_product_route_matches_the_chain_route(model):
    # the folded barcodes of the factors give the chain route's table in
    # every degree and parity, and so does the route the rule picks
    ranked = 0
    for space, dga in zip(("borel", "loop", "base"), _spaces(model)):
        for cap in PRODUCT_CAPS:
            if sum(build_layout(dga, cap)[0]) > PRODUCT_BUDGET:
                break
            chain = support.ranked(dga, support.chain_layout(dga, cap))
            assert support.ranked(dga, support.factor_layout(dga, cap)) == chain, (space, cap)
            assert eigen_table(dga, cap) == chain, (space, cap)
            ranked += 1
    assert ranked >= 6  # at least two caps of each space


def test_a_product_without_g_is_the_plain_kunneth_product():
    # S^3 x S^3 has no closed even generator: its two factors are tensored
    # over Q, every bar is free, and the dimensions convolve
    model = dict(NAMED_MODELS)["s3xs3"]
    for cap in PRODUCT_CAPS:
        layout = support.factor_layout(model, cap)
        assert [factor.g_step for factor, _ in layout[1]] == [(0, 0)] * 2
        table = support.ranked(model, layout)
        assert table == support.ranked(model, support.chain_layout(model, cap))
        betti = [int(n in (0, 6)) + 2 * (n == 3) for n in range(cap)]
        assert [s.betti for s in table.slices] == betti


def _routes(dga, cap):
    """The plan's (route, multiplicity) for each distinct layout."""
    return [(route, k) for _, route, k, *_ in cohomology._plan(dga, cap)[2]]


def test_the_route_rule_takes_the_product_route_where_it_pays():
    # the plan reads the count tables: both multigen-betti tables and the
    # S^2 x S^2 frontier take the product route with one shared factor,
    # one factor never does, and a product too small to pay its set-up
    # and fold does not
    s2xs2, s3xs3 = dict(NAMED_MODELS)["s2xs2"], dict(NAMED_MODELS)["s3xs3"]
    assert _routes(borel_model(s2xs2), 10) == [("chain", 2)]
    assert _routes(borel_model(s3xs3), 26) == [("chain", 2)]
    assert _routes(borel_model(s2xs2), 120) == [("koszul", 2)]
    # S^2's Borel table takes the Koszul route: one reduced complex
    assert _routes(borel_model(load_model("s2.model")), 120) == [("koszul", 1)]
    assert _routes(s3xs3, 10) == [("chain", 1)]  # 4 cells, against 2 by factors and a fold
    # 57 cells against one shared factor of 11: the 3 top per extra factor
    # of the rule before the plan took the chain route here, in 0.15 ms
    # against 0.09-0.11 ms by the shared factor (timeit minima, eigen_table
    # in process, shared 2-CPU VM)
    assert _routes(borel_model(s3xs3), 12) == [("chain", 2)]


CP2 = "gen f 2\ngen h 5\nd h = f^3\n"


def _borel(*texts):
    return borel_model(support.product_model(*map(parse_model, texts)))


# S^2 x S^2 over a closed generator t that comes first, so t is g, with c
# of odd weight: two factors of one degree and value, generator for
# generator, whose weight parities differ
_T_S2_X_S2 = parse_model("gen t 2\n" + S2_X_S2)
WEIGHTED = DgaModel(_T_S2_X_S2.algebra, _T_S2_X_S2.differential, True, (0, 0, 0, 1, 2))


@pytest.mark.parametrize(
    "dga, cap, factors, distinct, routes",
    [
        pytest.param(_borel(S2_X_S2), 10, 2, 1, [("chain", 2)], id="s2xs2-10"),
        pytest.param(_borel(S2_X_S2), 120, 2, 1, [("koszul", 2)], id="s2xs2-120"),
        pytest.param(
            borel_model(dict(NAMED_MODELS)["s3xs3"]), 26, 2, 1, [("chain", 2)], id="s3xs3-26"
        ),
        pytest.param(_borel(_s2_power(3)), 36, 3, 1, [("koszul", 3)], id="s2^3-36"),
        pytest.param(
            _borel(S2, CP2), 30, 2, 2, [("koszul", 1), ("koszul", 1)], id="s2*cp2-30"
        ),
        pytest.param(
            _borel(S2, S2_PRIME), 10, 2, 2, [("chain", 1), ("chain", 1)], id="s2*s2'-10"
        ),
        pytest.param(
            _borel(NODE, DOUBLE_LINE), 10, 2, 2, [("chain", 1), ("chain", 1)],
            id="node*double-line-10",
        ),
        # C/(u) of the whole table has 4 cells: the plan takes it, not the factors
        pytest.param(WEIGHTED, 30, 2, 2, [("koszul", 1)], id="weighted-s2xs2-30"),
    ],
)
def test_isomorphic_factors_share_one_layout(dga, cap, factors, distinct, routes):
    # the factors of a power are one complex under a renaming of the
    # generators, laid out once with its multiplicity; factors of other
    # degrees, values or weights each have their own.  The plan's routes
    # are pinned; where it takes the product route, build_layout shares the
    # factors so, and support.product_layout does in every case
    _, layouts = support.product_layout(dga, cap)
    assert sum(k for _, k in layouts) == factors and len(layouts) == distinct
    assert _routes(dga, cap) == routes
    if sum(k for _, k in routes) > 1:
        _, built = build_layout(dga, cap)
        assert [k for _, k in built] == [k for _, k in layouts]
        assert len({id(layout) for layout, _ in built}) == distinct


@pytest.mark.parametrize(
    "dga, cap, distinct, routes",
    [
        pytest.param(_borel(_s2_power(4)), 40, 1, [("koszul", 4)], id="s2^4-borel"),
        # g = a0 leaves b0 and (a0_bar, b0_bar) apart from three factors of one shape
        pytest.param(
            loop_model(parse_model(_s2_power(4))), 24, 3,
            [("chain", 1), ("chain", 1), ("koszul", 3)], id="s2^4-loop",
        ),
        pytest.param(
            _borel(S2_X_S2, CP2), 30, 2, [("koszul", 2), ("koszul", 1)], id="s2xs2*cp2"
        ),
        pytest.param(WEIGHTED, 30, 2, [("koszul", 1)], id="weighted-s2xs2"),
    ],
)
def test_each_distinct_factor_is_ranked_once(monkeypatch, dga, cap, distinct, routes):
    # eigen_table ranks each distinct layout of the plan's product route
    # once (none for a whole table), and support.product_layout each
    # distinct factor once; both give the table of ranking every factor
    # (support.factor_layout)
    unshared = support.ranked(dga, support.factor_layout(dga, cap))
    assert _routes(dga, cap) == routes
    real, ranked = cohomology._bars, []
    monkeypatch.setattr(cohomology, "_bars", lambda layout: ranked.append(layout) or real(layout))
    assert eigen_table(dga, cap) == unshared
    assert len(ranked) == (len(routes) if sum(k for _, k in routes) > 1 else 0)
    del ranked[:]
    assert support.ranked(dga, support.product_layout(dga, cap)) == unshared
    assert len(ranked) == distinct


GYSIN_CASES = (
    [pytest.param(model, id=name) for name, model in NAMED_MODELS]
    + [pytest.param(model, id=f"random-{i}") for i, model in enumerate(RANDOM)]
    + [
        pytest.param(support.product_model(*_RANDOM_FACTORS[i : i + 2]), id=f"random-{i}-x2")
        for i in (0, 2)
    ]
)


@pytest.mark.parametrize("model", GYSIN_CASES)
def test_borel_barcode_gives_the_loop_betti_numbers(model):
    # the Gysin sequence 0 -> BM -(alpha)-> BM -> M -> 0 reads the loop
    # model's betti numbers off the Borel barcode, both the one of the
    # chain route's pivots and the one folded from the factors
    cap = 30
    borel, loop = borel_model(model), loop_model(model)
    betti = [s.betti for s in support.ranked(loop, support.chain_layout(loop, cap)).slices]
    whole = cohomology._bars(support.chain_layout(borel, cap))
    assert support.gysin_betti(whole, cap) == betti
    assert support.gysin_betti(support.folded_barcode(borel, cap), cap) == betti


def test_a_bar_past_the_cap_changes_no_degree_below_it():
    """A factor ranked to the table's own cap N holds exactly the bars
    that its columns of degree below N set, and the rest of its cells of
    degree below N as free bars: a bar whose killing column lies in degree
    N or more, so that its end d + a deg g is N + 1 or more, reads free.
    ``cohomology._fold`` then needs no margin: a tensor bar of x and y ends
    at d_x + d_y + min(a, b) deg g, the lesser of end_x + d_y and end_y +
    d_x, which is exact or past N as x's end is, and a Tor bar starts at
    the greater of the two less 1, which is N or more once either end is
    past N.  So every bar that starts below N is exact or ends past N in
    both the truncated and the exact fold, and the classes below N agree.
    Here the S^2 Borel factor at cap N has such a bar for every N, and the
    product route's table at N is the chain route's table at N + 8 cut to
    N."""
    s2 = load_model("s2.model")
    past = set()
    for factors in (2, 3):
        dga = borel_model(support.product_model(*[s2] * factors))
        for cap in range(4, 31 if factors == 2 else 19):
            short = cohomology._bars(support.factor_layout(dga, cap)[1][0][0])
            long = cohomology._bars(support.factor_layout(dga, cap + 8)[1][0][0])
            if any(a == cap and (d, p, cap + 8) not in long for d, p, a in short):
                past.add(cap)  # a bar free at cap N that is finite at N + 8
            table = support.ranked(dga, support.factor_layout(dga, cap))
            deeper = support.ranked(dga, support.chain_layout(dga, cap + 8))
            assert table.slices == deeper.slices[:cap], (factors, cap)
    assert set(range(4, 31, 2)) <= past


# SU(3)/T^2, the complete flag manifold: not a product.  Its Borel table
# takes the Koszul route; the chain route, forced, is the oracle's.
FLAG3 = "gen a 2\ngen c 2\ngen b 3\ngen e 5\nd b = a^2 + a*c + c^2\nd e = a^2*c + a*c^2\n"


def test_flag_manifold_base_betti_numbers():
    # H*(SU(3)/T^2) = Q[a, c] / (a^2 + ac + c^2, a^2 c + a c^2), whose
    # Poincare polynomial is 1 + 2t^2 + 2t^4 + t^6
    table = eigen_table(parse_model(FLAG3), 12)
    assert [s.betti for s in table.slices] == [1, 0, 2, 0, 2, 0, 1, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("space", ["borel", "loop", "base"])
def test_flag_manifold_tables_match_oracle_by_the_chain_route(space):
    dga = dict(zip(("borel", "loop", "base"), _spaces(parse_model(FLAG3))))[space]
    table = support.ranked(dga, support.chain_layout(dga, 10))
    for n in range(10):
        s = table.slice(n)
        assert (s.betti, s.inv_plus, s.inv_minus) == oracle_split(dga, n), n
    _assert_matches_oracle(dga, 10)
    _assert_blocks_at_every_split(dga, 10)


@pytest.mark.parametrize("space", ["borel", "loop", "base"])
def test_grassmannian_tables_match_oracle(space):
    # Gr_2(C^4): H = Q[a, c] / (a^3 - 2ac, a^4 - 3a^2 c + c^2), deg c = 4
    dga = dict(zip(("borel", "loop", "base"), _spaces(load_model("gr24.model"))))[space]
    _assert_matches_oracle(dga, 10)
    _assert_blocks_at_every_split(dga, 10)


# The Koszul route (cohomology._koszul) against the chain route: pure
# models whose values form a regular sequence, and products of them.
# Every table at every cap up to KOSZUL_CAP is the chain route's table at
# KOSZUL_CAP cut to the cap (a table never extrapolates past its cap).
KOSZUL_CAP = 40
KOSZUL_MODELS = {
    name: load_model(f"{name}.model") for name in ("s2", "s4", "cp2", "cp3", "flag3", "gr24")
}
KOSZUL_MODELS["s2xs2"] = support.product_model(KOSZUL_MODELS["s2"], KOSZUL_MODELS["s2"])
KOSZUL_MODELS["cp2xs2"] = support.product_model(KOSZUL_MODELS["cp2"], KOSZUL_MODELS["s2"])


def _spy(monkeypatch, name):
    """The results of each call of ``cohomology.<name>`` from now on."""
    real, seen = getattr(cohomology, name), []

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cohomology, name, spy)
    return seen


@pytest.mark.parametrize("name", KOSZUL_MODELS)
@pytest.mark.parametrize("space", ["borel", "loop", "base"])
@pytest.mark.parametrize("forced", [False, True], ids=["priced", "forced"])
def test_koszul_route_matches_the_chain_route(name, space, forced):
    # by the route the plan prices, and forced (support.koszul_layout) at
    # every cap, on every table it applies to: the loop and base tables
    # with no g, the base table as H with D = 0
    dga = dict(zip(("borel", "loop", "base"), _spaces(KOSZUL_MODELS[name])))[space]
    chain = support.ranked(dga, support.chain_layout(dga, KOSZUL_CAP))
    for cap in range(2, KOSZUL_CAP + 1):
        if forced:
            table = support.ranked(dga, support.koszul_layout(dga, cap))
        else:
            table = eigen_table(dga, cap)
        assert table.slices == chain.slices[:cap], cap


@pytest.mark.parametrize("name", ["s2", "cp2", "cp3", "flag3", "gr24"])
def test_reduced_borel_barcode_gives_the_loop_betti_numbers(name):
    # the Gysin sequence reads the loop betti numbers off the Q[alpha]
    # barcode of C/(u), as it does off the whole Borel complex's
    model = KOSZUL_MODELS[name]
    loop = loop_model(model)
    for cap in (36, 40):
        assert _routes(borel_model(model), cap) == [("koszul", 1)]
        _, ((layout, _),) = build_layout(borel_model(model), cap)
        assert layout.g_step == (2, -1)
        betti = [s.betti for s in support.ranked(loop, support.chain_layout(loop, cap)).slices]
        assert support.gysin_betti(cohomology._bars(layout), cap) == betti, cap


# a2 b2 x3 y3 z4: not pure (d z = a y - b x has odd factors), and x, y
# occur in d z
NON_PURE = "gen a 2\ngen b 2\ngen x 3\ngen y 3\ngen z 4\nd x = a^2\nd y = a*b\nd z = a*y - b*x\n"


def test_other_models_keep_their_route_and_do_no_groebner_work(monkeypatch):
    # S^3 x S^3 (no odd generator with a value), the sphere bundles (one
    # closed generator), the non-pure model and random models with zero
    # differential take the chain or the product route in every form, and
    # the plan that prices them builds no Koszul layout and computes no
    # Groebner basis
    workloads = _workloads()  # random-batch's own models, at its default seed
    batch = [parse_model(text) for text, _ in workloads.random_batch(workloads.DEFAULT_SEED)]
    zero = [m for m in random_models_within_budget(seed=25, count=12, cap=16) + batch
            if not any(m.differential.values())]
    assert len(zero) > 10
    models = [dict(NAMED_MODELS)["s3xs3"], parse_model(NON_PURE), *zero]
    models += [load_model(f"sphere-bundle-d{d}.model") for d in (2, 3, 4)]
    bases, forms = _spy(monkeypatch, "_groebner"), _spy(monkeypatch, "_normal_form")
    reduced = _spy(monkeypatch, "_koszul")
    for model in models:
        for dga in _spaces(model):
            for cap in (12, 24, 40):
                assert {route for route, _ in _routes(dga, cap)} == {"chain"}
                _, layouts = build_layout(dga, cap)
                if layouts[0][1] == 1 and len(layouts) == 1:
                    assert layouts[0][0] == support.chain_layout(dga, cap)
    assert not reduced and not bases and not forms
    # nor does any table random-batch serves, each of its models' Borel and
    # loop tables at its cap: the plan prices the Koszul route too high
    for model in batch:
        for dga in (borel_model(model), loop_model(model)):
            build_layout(dga, workloads.RANDOM_CAP)
    assert not reduced and not bases and not forms


# a2 b2 x3 y3: u = (a^2, a b) lies in |Y| = 2 generators with g = a, but
# its Groebner basis has no pure power of b, so u is not regular
NOT_REGULAR = "gen a 2\ngen b 2\ngen x 3\ngen y 3\nd x = a^2\nd y = a*b\n"


def test_a_koszul_layout_whose_u_is_not_regular_falls_back_to_the_chain_route(monkeypatch):
    # the plan prices C/(u) with no g from the count tables, as if u were
    # regular; the Groebner basis then shows it is not, and build_layout
    # builds the chain layout the plan priced against it: along g, with its
    # 75 g-free cells (743 with g's powers)
    dga, cap = parse_model(NOT_REGULAR), 40
    assert _routes(dga, cap) == [("koszul-no-g", 1)]
    reduced = _spy(monkeypatch, "_koszul")
    counts, ((layout, _),) = build_layout(dga, cap)
    assert reduced == [None] and layout.g_step == support.chain_layout(dga, cap).g_step != (0, 0)
    assert counts == layout.counts and sum(counts) == 75
    chain = support.ranked(dga, support.chain_layout(dga, cap))
    assert eigen_table(dga, cap) == chain
    assert support.koszul_layout(dga, cap) is None


def _pinned_tables():
    """(key, dga, cap) for the tables whose plans are pinned: the base,
    loop and Borel tables of every bundled model at caps 12, 24 and 40,
    the s2-deep and multigen-betti tables, and random-batch's Borel and
    loop tables at its default seed."""
    for path in sorted(MODELS_DIR.glob("*.model")):
        model = parse_model(path.read_text(encoding="utf-8"))
        for space, dga in zip(("borel", "loop", "base"), _spaces(model)):
            for cap in (12, 24, 40):
                yield f"{path.stem}/{space}/{cap}", dga, cap
    s2 = load_model("s2.model")
    yield "s2-deep/borel/24", borel_model(s2), 24  # eigen, and pseudoisotopy's Borel table
    yield "s2-deep/base/24", s2, 24  # pseudoisotopy's base table
    for name, cap in (("s2xs2", 10), ("s3xs3", 26)):
        model = dict(NAMED_MODELS)[name]
        yield f"multigen-betti/{name}/borel/{cap}", borel_model(model), cap
    workloads = _workloads()
    for i, (text, _) in enumerate(workloads.random_batch(workloads.DEFAULT_SEED)):
        model = parse_model(text)
        for space, dga in (("borel", borel_model(model)), ("loop", loop_model(model))):
            yield f"random-batch/m{i:02d}/{space}/{workloads.RANDOM_CAP}", dga, workloads.RANDOM_CAP


def _workloads():
    """benchmark/workloads.py, loaded by path."""
    path = MODELS_DIR.parent / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


PLANS = MODELS_DIR.parent / "tests" / "golden" / "plans.json"


def test_the_plan_of_every_pinned_table(monkeypatch):
    """The route, multiplicity and predicted cells of each distinct layout
    of every pinned table (tests/golden/plans.json), and the work the plan
    does to find them: ``_shape`` never runs on a table of one factor, no
    count table is computed twice (each distinct generator set is counted
    once, and isomorphic factors share one), and a Groebner basis is
    computed only for a table the plan sends by the Koszul route.  A table
    whose route changes here needs an A/B that shows the new route faster;
    the tables that changed when the plan replaced the calibrated rules are
    listed in CHANGES.md."""
    factors, shapes = _spy(monkeypatch, "_factors"), _spy(monkeypatch, "_shape")
    counted, bases = [], _spy(monkeypatch, "_groebner")
    real_counts = cohomology._counts
    monkeypatch.setattr(
        cohomology, "_counts", lambda key, top: counted.append(key) or real_counts(key, top)
    )
    plans = {}
    for key, dga, cap in _pinned_tables():
        del factors[:], shapes[:], counted[:], bases[:]
        planned = cohomology._plan(dga, cap)[2]
        plans[key] = [[route, k, cells] for _, route, k, cells, *_ in planned]
        assert not shapes or len(factors[-1]) > 1, key
        assert len(counted) == len(set(counted)), key
        build_layout(dga, cap)
        assert bool(bases) == any(route != "chain" for route, _, _ in plans[key]), key
    assert plans == json.loads(PLANS.read_text(encoding="utf-8"))


def test_s2xs2_tables_by_kunneth_from_s2():
    """S^2 x S^2 (models/s2xs2.model) against its closed form, read off
    S^2's tables by the Kunneth theorem.

    S^2: H*(LS^2) has one class in every degree, and its Borel cohomology
    is H_S1(LS^2) = Q[alpha] 1 + sum over j >= 0 of Q z_(2j+1) with
    alpha z = 0 (one class in every degree too).  The involution reverses
    the loop and the circle, so alpha^k lies in eigenspace (-1)^k and
    z_(2j+1) in (-1)^(j+1).

    Loop: L(X x Y) = LX x LY, and the Kunneth theorem over Q convolves
    the betti numbers: n + 1 classes in degree n.

    Borel: the Borel model of a product is the tensor product over Q[alpha]
    of the factors' (each free over Q[alpha]), so by the Kunneth theorem
    over the PID Q[alpha] its cohomology is H (x) H + Tor(H, H), Tor
    shifted down by one.  With H = Q[alpha] + T, T = sum Q z:
    Q[alpha] (x) Q[alpha] gives alpha^k in degree 2k; the two
    Q[alpha] (x) T give two classes z in each odd degree 2j+1, in
    eigenspace (-1)^(j+1); T (x) T gives z_d z_e in degree d + e = 2k, k
    of them for k >= 1, each in (-1)^(k+1); and Tor(T, T) gives, for each
    such pair, a class in degree d + e + deg(alpha) - 1 = 2j+1 (j of them),
    whose sign also takes alpha's, (-1)^j.  So degree 2k holds 1 + k
    classes, (-1)^k once and (-1)^(k+1) k times, and degree 2j+1 holds
    2 + j, (-1)^(j+1) twice and (-1)^j j times."""
    cap = 60
    s2, s2xs2 = load_model("s2.model"), load_model("s2xs2.model")
    sign = [(1, 0), (0, 1)]  # (inv_plus, inv_minus) of one class of eigenvalue +1, -1
    loop = eigen_table(loop_model(s2), cap).slices
    assert [s.betti for s in loop] == [1] * cap
    borel = [(s.inv_plus, s.inv_minus) for s in eigen_table(borel_model(s2), cap).slices]
    assert borel == [sign[n // 2 % 2] if n % 2 == 0 else sign[(n // 2 + 1) % 2] for n in range(cap)]
    loop = eigen_table(loop_model(s2xs2), cap).slices
    assert [s.betti for s in loop] == [n + 1 for n in range(cap)]
    want = []
    for n in range(cap):
        m = n // 2
        # (count, sign) of each kind of class in degree n
        kinds = [(1, m % 2), (m, (m + 1) % 2)] if n % 2 == 0 else [(2, (m + 1) % 2), (m, m % 2)]
        plus = sum(count for count, odd in kinds if not odd)
        minus = sum(count for count, odd in kinds if odd)
        want.append((plus + minus, plus, minus))
    borel = eigen_table(borel_model(s2xs2), cap).slices
    assert [(s.betti, s.inv_plus, s.inv_minus) for s in borel] == want


def test_a_barcode_folded_with_itself_visits_each_pair_once():
    # _fold of one barcode object with itself takes each unordered pair
    # once (twice over off the diagonal), and _power folds by squaring:
    # both give the barcodes of folding distinct copies one at a time
    cap = 40
    bars = cohomology._bars(support.factor_layout(borel_model(KOSZUL_MODELS["s2"]), cap)[1][0][0])
    fold = functools.partial(cohomology._fold, cap, 2, 1)
    assert fold(bars, bars) == fold(bars, dict(bars))
    one_by_one = bars
    for k in range(2, 9):
        one_by_one = fold(one_by_one, dict(bars))
        power = cohomology._power(fold, bars, k)
        assert cohomology._ends(power, cap, 2, 1) == cohomology._ends(one_by_one, cap, 2, 1), k
