from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopinv import linalg
from support import (
    DimensionMismatchError,
    NotAnInvolutionError,
    QMatrix,
    column_span_contains,
    echelon_rank,
    involution_eigen_dims,
    kernel_basis,
    solve_in_span,
    sparse,
)
from support import rank as oracle_rank


def rank(m: QMatrix) -> int:
    """loopinv's sparse rank of the columns of m (cleared of denominators)."""
    return linalg.rank(sparse(m))


def test_rank_identity():
    assert rank(QMatrix.identity(2)) == 2


def test_rank_zero():
    assert rank(QMatrix.zero(2, 2)) == 0


def test_rank_proportional_rows():
    # hand row reduction: rows 2 and 3 are multiples of row 1
    m = QMatrix.from_rows([[1, 2], [2, 4], [3, 6]])
    assert rank(m) == 1


def test_rank_empty_shapes():
    assert rank(QMatrix.zero(0, 3)) == 0
    assert rank(QMatrix.zero(3, 0)) == 0
    assert linalg.rank(({}, {}, {})) == 0
    assert linalg.rank(()) == 0


def test_rank_leaves_columns_unchanged():
    columns = ({0: 2, 1: 4}, {0: 3, 1: 6}, {1: 5, 2: -1})
    copy = tuple(dict(c) for c in columns)
    assert linalg.rank(columns) == 2
    assert linalg.rank(iter(columns)) == 2  # any iterable of columns
    assert columns == copy


def test_rank_rational_entries():
    m = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]])
    assert rank(m) == 2
    singular = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert rank(singular) == 1


def test_kernel_zero_matrix_spans_everything():
    basis = kernel_basis(QMatrix.zero(3, 3))
    assert len(basis) == 3
    assert rank(QMatrix.from_columns(basis)) == 3


def test_kernel_identity_empty():
    assert kernel_basis(QMatrix.identity(4)) == []


def test_kernel_one_relation():
    (v,) = kernel_basis(QMatrix.from_rows([[1, 1]]))
    assert v[0] == -v[1] != 0


def test_kernel_of_zero_row_count():
    basis = kernel_basis(QMatrix.zero(0, 3))
    assert len(basis) == 3


def test_span_identity_columns():
    w = column_span_contains(QMatrix.identity(3), [5, Fraction(1, 2), -1])
    assert w == (5, Fraction(1, 2), -1)


def test_span_empty_basis():
    assert column_span_contains(QMatrix.zero(2, 0), [0, 0]) is not None
    assert column_span_contains(QMatrix.zero(2, 0), [1, 0]) is None


def test_span_witness_example():
    basis = QMatrix.from_columns([(1, 0), (1, 1)])
    w = column_span_contains(basis, (0, 1))
    assert w == (-1, 1)
    assert basis.matvec(w) == (0, 1)


def test_span_outside():
    basis = QMatrix.from_columns([(1, 0, 0), (0, 1, 0)])
    assert column_span_contains(basis, (0, 0, 1)) is None


def test_span_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        column_span_contains(QMatrix.identity(2), (1, 2, 3))


def test_solve_many_mixed():
    basis = QMatrix.from_columns([(1, 0, 1), (0, 1, 1)])
    got = solve_in_span(basis, [(1, 1, 2), (0, 0, 1)])
    assert got[0] == (1, 1)
    assert got[1] is None


def test_involution_identity():
    assert involution_eigen_dims(QMatrix.identity(3)) == (3, 0)


def test_involution_negated_identity():
    m = QMatrix.diagonal([-1, -1, -1, -1])
    assert involution_eigen_dims(m) == (0, 4)


def test_involution_diagonal_mix():
    assert involution_eigen_dims(QMatrix.diagonal([1, -1, -1])) == (1, 2)


def test_involution_rejects_non_involution():
    with pytest.raises(NotAnInvolutionError):
        involution_eigen_dims(QMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(NotAnInvolutionError):
        involution_eigen_dims(QMatrix.zero(2, 3))


def test_swap_involution():
    swap = QMatrix.from_rows([[0, 1], [1, 0]])
    assert involution_eigen_dims(swap) == (1, 1)


small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    entries = draw(
        st.lists(small_entries, min_size=rows * cols, max_size=rows * cols)
    )
    return QMatrix(rows, cols, entries)


rational_entries = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def rank_cases(draw, max_dim=6):
    """Products of a rows x k and a k x cols matrix (so the rank is at
    most k) with integer or rational entries, and some columns zeroed."""
    entries = draw(st.sampled_from([small_entries, rational_entries]))
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    k = draw(st.integers(min_value=0, max_value=max_dim))
    a = QMatrix(rows, k, draw(st.lists(entries, min_size=rows * k, max_size=rows * k)))
    b = QMatrix(k, cols, draw(st.lists(entries, min_size=k * cols, max_size=k * cols)))
    zeroed = draw(st.sets(st.integers(min_value=0, max_value=max(cols - 1, 0))))
    columns = [c if j not in zeroed else (0,) * rows for j, c in enumerate((a * b).columns())]
    return QMatrix.from_columns(columns, rows=rows)


@settings(max_examples=300)
@given(st.one_of(matrices(), rank_cases()))
def test_sparse_rank_matches_oracles(m):
    assert rank(m) == oracle_rank(m) == echelon_rank(m)


@settings(max_examples=200)
@given(st.one_of(matrices(), rank_cases()), st.data())
def test_rank_extends_the_pivots_of_earlier_columns(m, data):
    # ranking the first k columns, then the rest into the pivots that
    # left, is the rank of all of them, and neither call changes the
    # pivots handed over except by adding to them
    k = data.draw(st.integers(min_value=0, max_value=m.cols))
    columns = sparse(m)
    pivots = {}
    first = linalg.rank(columns[:k], pivots)
    assert first == len(pivots) == oracle_rank(QMatrix.from_columns(m.columns()[:k], rows=m.rows))
    kept = dict(pivots)
    assert linalg.rank(columns[k:], pivots) == oracle_rank(m)
    assert all(pivots[lead] == vector for lead, vector in kept.items())


@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(matrices())
def test_kernel_vectors_annihilated(m):
    for v in kernel_basis(m):
        assert all(x == 0 for x in m.matvec(v))


@given(matrices())
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


@given(matrices(max_dim=4), st.data())
def test_witness_reconstructs_exactly(m, data):
    if m.cols == 0:
        return
    x = data.draw(st.lists(small_entries, min_size=m.cols, max_size=m.cols))
    v = m.matvec(x)
    w = column_span_contains(m, v)
    assert w is not None
    assert m.matvec(w) == v


@st.composite
def involution_with_conjugator(draw):
    """diag(+/-1) conjugated by a product of elementary integer matrices,
    with the exact inverse tracked alongside."""
    n = draw(st.integers(min_value=1, max_value=4))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    t = QMatrix.diagonal(signs)
    p = QMatrix.identity(n)
    p_inv = QMatrix.identity(n)
    n_ops = draw(st.integers(min_value=0, max_value=6))
    for _ in range(n_ops):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i == j:
            continue
        c = draw(st.integers(min_value=-3, max_value=3))
        entries = list(QMatrix.identity(n).entries)
        entries[i * n + j] = Fraction(c)
        e = QMatrix(n, n, entries)
        entries_inv = list(QMatrix.identity(n).entries)
        entries_inv[i * n + j] = Fraction(-c)
        e_inv = QMatrix(n, n, entries_inv)
        p = p * e
        p_inv = e_inv * p_inv
    return signs, p * t * p_inv


@settings(max_examples=60)
@given(involution_with_conjugator())
def test_eigen_dims_invariant_under_conjugation(case):
    signs, conjugated = case
    plus = sum(1 for s in signs if s == 1)
    minus = len(signs) - plus
    assert involution_eigen_dims(conjugated) == (plus, minus)


def test_matmul_shape_check():
    with pytest.raises(DimensionMismatchError):
        QMatrix.identity(2) * QMatrix.identity(3)


def test_entry_count_check():
    with pytest.raises(DimensionMismatchError):
        QMatrix(2, 2, [1, 2, 3])
