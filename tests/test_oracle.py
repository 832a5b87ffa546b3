"""The block-rank tables of eigen_table against the general route of
support.py (kernel representatives and the induced involution on them),
slice by slice, and the sparse integer block matrices against the dense
matrices that support.py assembles through product_derivation, entry by
entry.  Every column that eigen_table clears is assembled anyway and must
reduce to zero, its pivots, apparent ones built, must equal those of the
eager route (support.eager_pivots), and Kunneth, the Gysin bound and the reduced split from
ker s on the loop model (support.ker_s_split) check tables at caps the
dense oracle cannot reach.

Every block is ranked along multiplication by the closed even generator
g, so the models here also cover the shapes of that chain: g = alpha in
every Borel model, g a generator of the minimal model or a barred one
in its base and loop models, no g at all, a lowest closed even generator that is not the
first generator, ties, and two closed even generators of different
degrees."""

from math import lcm

import pytest

import support
from loopinv import cohomology, linalg
from loopinv.cohomology import build_layout, eigen_table, integral_columns
from loopinv.models import borel_model, loop_model, parse_model
from loopinv.series import algebra_generating_function
from support import (
    MODELS_DIR,
    chain_basis,
    decode,
    chain_block_entries,
    load_model,
    oracle_split,
    random_models_within_budget,
)

CAP = 24
# the bundled models, then the benchmark's
MODEL_FILES = sorted(MODELS_DIR.glob("*.model")) + sorted(
    (MODELS_DIR.parent / "benchmark" / "inputs").glob("*.model")
)
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


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS_DIR.glob("*.model")))
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
    layout = build_layout(dga, cap)
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


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS_DIR.glob("*.model")))
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


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS_DIR.glob("*.model")))
def test_bundled_base_tables_match_oracle(name):
    _assert_matches_oracle(load_model(name), CAP)


@pytest.mark.parametrize("index", range(len(RANDOM)))
def test_random_base_tables_match_oracle(index):
    _assert_matches_oracle(RANDOM[index], CAP)


@pytest.mark.parametrize("text, g, cap", CHAIN_SHAPES)
def test_chain_shapes_match_oracle(text, g, cap):
    model = parse_model(text)
    loop, borel = loop_model(model), borel_model(model)
    assert support.closed_index(build_layout(model, cap)) == g
    assert support.closed_index(build_layout(borel, cap)) == 0
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
    """The layout of a table holds the g-free codes of degrees 0..cap-1
    only: each level holds, block by block and in basis order, exactly the
    g-free monomials of that block of support.blocks, so the weight parity
    read off a code's bits and the enumeration order are compared as
    lists.  The block dimensions that eigen_table carries along g count
    every monomial of each degree."""
    layout = build_layout(dga, cap)
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


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS_DIR.glob("*.model")))
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
    layout = build_layout(dga, cap)
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


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS_DIR.glob("*.model")))
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
    fields = build_layout(dga, cap).fields
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
    layout = build_layout(dga, cap)
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


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS_DIR.glob("*.model")))
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
    real_reduce = cohomology._reduce_block
    layout = build_layout(dga, cap)
    blocks = iter([codes for level in layout.free for codes in level.values()])
    assembled, skipped = [], []

    def expand(code):
        return integral_columns(layout.terms, [code])[0]

    def columns(table, sources):
        assembled.extend(sources)
        return integral_columns(table, sources)

    def reduce_block(table, codes, pivots):
        assert codes == next(blocks)
        cleared = [code for code in codes if code in pivots]
        eager = integral_columns(layout.terms, [code for code in codes if code not in pivots])
        want = linalg.rank(eager, dict(pivots), expand)
        del assembled[:]
        real_reduce(table, codes, pivots)
        assert len(pivots) == want, codes
        assert not set(assembled) & set(cleared), codes
        again = integral_columns(layout.terms, cleared)
        assert linalg.rank(again, dict(pivots), expand) == len(pivots), codes
        skipped.extend(cleared)

    monkeypatch.setattr(cohomology, "_reduce_block", reduce_block)
    monkeypatch.setattr(cohomology, "integral_columns", columns)
    eigen_table(dga, cap)
    monkeypatch.undo()
    assert next(blocks, None) is None
    return len(skipped)


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS_DIR.glob("*.model")))
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

    def reduce_block(table, codes, pivots):
        seen.append(pivots)
        real_reduce(table, codes, pivots)

    monkeypatch.setattr(cohomology, "_reduce_block", reduce_block)
    eigen_table(dga, cap)
    monkeypatch.undo()
    pivots = seen[0] if seen else {}
    assert all(p is pivots for p in seen)
    terms = build_layout(dga, cap).terms
    assembled = {
        k: linalg._primitive(integral_columns(terms, [v])[0]) if type(v) is int else v
        for k, v in pivots.items()
    }
    assert assembled == support.eager_pivots(dga, cap)


PIVOT_MODELS = (
    [pytest.param(p.read_text(encoding="utf-8"), CAP, id=p.name) for p in MODEL_FILES]
    + [pytest.param(model, CAP, id=f"random-{i}") for i, model in enumerate(RANDOM)]
    + [pytest.param(text, cap, id=f"rational-{i}") for i, (text, cap) in enumerate(RATIONAL)]
    + [pytest.param(text, cap, id=f"chain-{i}") for i, (text, _, cap) in enumerate(CHAIN_SHAPES)]
)


@pytest.mark.parametrize("model, cap", PIVOT_MODELS)
def test_pivots_match_the_eager_route(model, cap, monkeypatch):
    model = parse_model(model) if isinstance(model, str) else model
    for dga in _spaces(model):
        _assert_pivots_match_eager(dga, cap, monkeypatch)
