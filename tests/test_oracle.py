"""The block-rank tables of eigen_table against the general route of
support.py (kernel representatives and the induced involution on them),
slice by slice, and the sparse integer block matrices against the dense
matrices that support.py assembles through Derivation, entry by entry."""

from math import lcm

import pytest

import support
from loopinv.cohomology import cochain_matrix, eigen_table
from loopinv.models import borel_model, loop_model, parse_model
from support import (
    MODELS_DIR,
    QMatrix,
    dense,
    load_model,
    oracle_split,
    random_models_within_budget,
)

CAP = 24
RANDOM = random_models_within_budget(seed=20240, count=20, cap=CAP)
S2_X_S2 = "gen a 2\ngen b 3\nd b = a^2\ngen c 2\ngen e 3\nd e = c^2\n"
# (model, cap) with rational coefficients, so that the common denominator
# L is not 1; in the last, d x has odd factors on both sides of x
RATIONAL = [
    ("gen a 2\ngen b 5\nd b = 2/3*a^3\n", CAP),
    ("gen a 2\ngen c 2\ngen b 3\nd b = 1/2*a^2 - 1/3*a*c + 5/4*c^2\ngen e 5\n", 10),
    ("gen y 3\ngen x 5\ngen z 3\nd x = 1/2*y*z\n", 14),
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
    d = dga.differential
    scale = lcm(
        *(c.denominator for g in dga.algebra.generators for c in d.of_generator(g.name).terms.values())
    )
    for n in range(cap):
        for block in dga.blocks(n):
            want = support.cochain_matrix(dga, n, block)
            scaled = QMatrix(want.rows, want.cols, [scale * e for e in want.entries])
            assert dense(cochain_matrix(dga, n, block)) == scaled, f"degree {n}, block {block}"


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS_DIR.glob("*.model")))
def test_bundled_sparse_blocks_are_scaled_derivation(name):
    _assert_blocks_are_scaled_derivation(borel_model(load_model(name)), CAP)


@pytest.mark.parametrize("index", range(len(RANDOM)))
def test_random_sparse_blocks_are_scaled_derivation(index):
    _assert_blocks_are_scaled_derivation(borel_model(RANDOM[index]), CAP)


@pytest.mark.parametrize("text, cap", RATIONAL)
def test_rational_sparse_blocks_are_scaled_derivation(text, cap):
    model = parse_model(text)
    _assert_blocks_are_scaled_derivation(borel_model(model), cap)
    _assert_blocks_are_scaled_derivation(loop_model(model), cap)
    _assert_matches_oracle(borel_model(model), cap)
