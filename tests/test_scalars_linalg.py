from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from motive_ring.linalg import (
    integer_kernel,
    kernel_intersection_int,
    nullspace_field,
    nullspace_int,
    nullspace_rational,
    rank_field,
    rank_rational,
    solve_upper_triangular,
)
from motive_ring.scalars import (
    QQ,
    ZZ,
    ScalarError,
    p_local,
    prime_field,
    ring_from_tag,
)


def test_tag_roundtrip():
    for tag in ["Z", "Q", "Zp:3", "Fp:5", "Fp:2:3"]:
        assert ring_from_tag(tag).tag == tag
    with pytest.raises(ScalarError):
        ring_from_tag("R")


def test_integer_ring_rejects_fractions():
    with pytest.raises(ScalarError):
        ZZ.coerce(Fraction(1, 2))
    assert ZZ.coerce(Fraction(4, 2)) == 2


def test_p_local_denominator_check():
    R = p_local(3)
    assert R.coerce(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(ScalarError):
        R.coerce(Fraction(1, 3))
    with pytest.raises(ScalarError):
        p_local(4)


def test_prime_field_arithmetic():
    F5 = prime_field(5)
    assert F5.add(3, 4) == 2
    assert F5.mul(3, 4) == 2
    assert F5.inv(2) == 3
    assert F5.coerce(Fraction(1, 2)) == 3


def test_extension_field_is_a_field():
    F4 = prime_field(2, 2)
    els = F4.elements()
    assert len(els) == 4
    for a in els:
        if F4.is_zero(a):
            continue
        assert F4.mul(a, F4.inv(a)) == F4.one
    # multiplicative group has order q-1
    a = next(e for e in els if e not in (F4.zero, F4.one))
    assert F4.pow(a, 3) == F4.one
    assert F4.pow(a, 1) != F4.one


def test_extension_field_frobenius_additivity():
    F9 = prime_field(3, 2)
    for a in F9.elements():
        for b in F9.elements():
            lhs = F9.pow(F9.add(a, b), 3)
            rhs = F9.add(F9.pow(a, 3), F9.pow(b, 3))
            assert lhs == rhs


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_field_format_parse_roundtrip(a, b):
    F7 = prime_field(7)
    x = F7.coerce(a)
    assert F7.parse(F7.format(x)) == x
    assert QQ.parse(QQ.format(Fraction(a, b or 1))) == Fraction(a, b or 1)


def test_triangular_solve():
    m = [[2, 1], [0, 1]]
    x = solve_upper_triangular(m, [Fraction(1), Fraction(0)])
    assert x == [Fraction(1, 2), Fraction(0)]
    x = solve_upper_triangular(m, [Fraction(0), Fraction(1)])
    assert x == [Fraction(-1, 2), Fraction(1)]


def test_rank_and_nullspace_rational():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    rows = [[Fraction(v) for v in r] for r in rows]
    assert rank_rational(rows) == 2
    ns = nullspace_rational(rows)
    assert len(ns) == 1
    for r in rows:
        assert sum(a * b for a, b in zip(r, ns[0])) == 0


def test_nullspace_int_matches_rational():
    rows = [[2, 4, -2, 0], [1, 1, 1, 1], [3, 5, -1, 1]]
    frac = nullspace_rational([[Fraction(v) for v in r] for r in rows], ncols=4)
    ints = nullspace_int(rows, ncols=4)
    assert len(frac) == len(ints) == 2
    for vec in ints:
        for r in rows:
            assert sum(a * b for a, b in zip(r, vec)) == 0


def test_rank_field_mod_2():
    F2 = prime_field(2)
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert rank_field(rows, F2) == 2
    assert rank_rational([[Fraction(v) for v in r] for r in rows]) == 3


def test_kernel_intersection():
    # kernels of two projections intersect in the last coordinate axis
    op1 = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    op2 = [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
    basis = kernel_intersection_int(3, [op1, op2])
    assert len(basis) == 1
    assert basis[0][0] == 0 and basis[0][1] == 0 and basis[0][2] != 0


small_matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols), max_size=6
    ).map(lambda rows: (rows, ncols))
)


@given(small_matrices)
def test_integer_kernel_matches_dense_elimination(matrix):
    rows, ncols = matrix
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    over_q = integer_kernel(sparse, ncols)
    dense_q = nullspace_rational([[Fraction(v) for v in row] for row in rows], ncols)
    assert len(over_q) == len(dense_q)
    for vec in over_q:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
    for ring in (prime_field(2), prime_field(3), prime_field(2, 2)):
        fast = integer_kernel(sparse, ncols, ring)
        dense = nullspace_field([[ring.coerce(v) for v in row] for row in rows], ring, ncols)
        assert len(fast) == len(dense)
        if dense:
            assert rank_field(fast + dense, ring) == len(dense)


def test_integer_kernel_support_leaves_other_columns_zero():
    # x0 = x2 with only x0 and x2 unknown: one kernel vector, zero elsewhere
    assert integer_kernel([{0: 1, 2: -1}], 4, QQ, support=[0, 2]) == [[1, 0, 1, 0]]
    assert integer_kernel([{0: 1, 2: 1}], 4, prime_field(2), support=[0, 2]) == [[1, 0, 1, 0]]
