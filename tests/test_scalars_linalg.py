from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from dense_linalg import back_substitute, nullspace_field, rank_field

from motive_ring.groups import GroupTooLarge
from motive_ring.linalg import integer_kernel, integer_rank, solve_upper_triangular
from motive_ring.scalars import (
    MAX_FIELD_ORDER,
    PRIME_BOUND,
    QQ,
    ZZ,
    PrimeFieldRing,
    ScalarError,
    _is_prime,
    p_local,
    parse_int,
    prime_field,
    ring_from_tag,
)


def test_tag_roundtrip():
    for tag in ["Z", "Q", "Zp:3", "Fp:5", "Fp:2:3"]:
        assert ring_from_tag(tag).tag == tag
    with pytest.raises(ScalarError):
        ring_from_tag("R")


def test_a_field_is_bounded_before_it_is_built():
    assert prime_field(2, 16).q == MAX_FIELD_ORDER == 65536
    assert prime_field(65521).q == 65521  # the largest prime inside the bound
    with pytest.raises(GroupTooLarge, match=r"^field too large: q = 2\^17 = 131072 > field bound 65536$"):
        PrimeFieldRing(2, 17)
    with pytest.raises(GroupTooLarge, match=r"^field too large: q = 65537\^1 = 65537 > field bound 65536$"):
        ring_from_tag("Fp:65537")
    # an exponent whose power would not fit in memory is named, not formed
    with pytest.raises(GroupTooLarge, match=r"^field too large: q = 3\^99999999999 > field bound 65536$"):
        ring_from_tag("Fp:3:99999999999")
    # names of no field are still refused as input errors
    for tag, error in [
        ("Fp:4", "4 is not prime"),
        ("Fp:2:0", "field exponent must be >= 1"),
        ("Fp:1:9", "1 is not prime"),
    ]:
        with pytest.raises(ScalarError, match=error):
            ring_from_tag(tag)


def is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_miller_rabin_agrees_with_trial_division():
    assert [n for n in range(-3, 20000) if _is_prime(n)] == [
        n for n in range(-3, 20000) if is_prime_by_trial_division(n)
    ]
    for n in range(10**9, 10**9 + 200):
        assert _is_prime(n) == is_prime_by_trial_division(n)


def test_miller_rabin_at_the_strong_pseudoprimes():
    # the least odd composites passing the bases 2..37 and 2..41 (OEIS A014233)
    assert not _is_prime(318665857834031151167461)
    assert PRIME_BOUND + 1 == 3317044064679887385961981
    assert not _is_prime(3215031751) and not _is_prime(561)
    assert _is_prime(2**61 - 1) and _is_prime(10**24 + 7)


def test_a_p_local_prime_is_bounded_before_it_is_tested():
    assert p_local(10**24 + 7).tag == "Zp:1000000000000000000000007"
    with pytest.raises(GroupTooLarge, match=rf"^prime too large: p = {PRIME_BOUND + 1} > prime bound {PRIME_BOUND}$"):
        ring_from_tag(f"Zp:{PRIME_BOUND + 1}")
    for tag, error in [
        ("Zp:x", "malformed coefficient tag 'Zp:x'"),
        ("Fp:3:y", "malformed coefficient tag 'Fp:3:y'"),
        ("Zp:0", "0 is not prime"),
        ("Zp:-7", "-7 is not prime"),
        ("Zp:91", "91 is not prime"),
    ]:
        with pytest.raises(ScalarError, match=error):
            ring_from_tag(tag)


def test_parse_int_leaves_a_numeral_past_the_int_digit_limit_unconverted():
    assert parse_int("12") == 12 and parse_int(" -5 ") == -5 and parse_int("1_000") == 1000
    assert parse_int("1" * 4300) == int("1" * 4300)
    assert parse_int("1" * 4301) == "1" * 4301
    assert parse_int(" +" + "0" * 5000 + "17 ") == 17  # leading zeros are not significant
    assert parse_int("0" * 5000) == 0
    for text in ["x", "", "-" + "1" * 4301, "1_" * 4400 + "1", "١" * 4301]:
        with pytest.raises(ValueError):
            parse_int(text)
    with pytest.raises(GroupTooLarge, match=r"^prime too large: p = <4301 digits> > prime bound"):
        ring_from_tag("Zp:" + "7" * 4301)
    with pytest.raises(GroupTooLarge, match=r"^field too large: q = 3\^<4301 digits> > field bound 65536$"):
        ring_from_tag("Fp:3:" + "7" * 4301)
    with pytest.raises(ScalarError, match="^1 is not prime$"):  # p = 1 names no field, whatever e is
        ring_from_tag("Fp:1:" + "7" * 4301)


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
    assert F5.mul(2, 3) == 1  # 3 is the inverse of 2
    assert F5.coerce(Fraction(1, 2)) == 3


def cube(field, a):
    return field.mul(field.mul(a, a), a)


def test_extension_field_is_a_field():
    F4 = prime_field(2, 2)
    els = F4.elements()
    assert len(els) == 4
    for a in els:
        if F4.is_zero(a):
            continue
        assert sum(F4.mul(a, b) == F4.one for b in els) == 1  # exactly one inverse
    # multiplicative group has order q-1
    a = next(e for e in els if e not in (F4.zero, F4.one))
    assert cube(F4, a) == F4.one
    assert a != F4.one


def test_extension_field_frobenius_additivity():
    F9 = prime_field(3, 2)
    for a in F9.elements():
        for b in F9.elements():
            assert cube(F9, F9.add(a, b)) == F9.add(cube(F9, a), cube(F9, b))


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


@st.composite
def triangular_systems(draw):
    """Upper-triangular integer M, mostly zero above a nonzero diagonal, and a rhs."""
    n = draw(st.integers(1, 9))
    sparse = st.one_of(st.just(0), st.just(0), st.integers(-6, 6))
    diagonal = st.integers(-7, 7).filter(bool)
    matrix = [
        [draw(diagonal) if j == i else draw(sparse) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    rhs = [draw(st.one_of(st.just(Fraction(0)), st.fractions(-9, 9, max_denominator=6))) for _ in range(n)]
    return matrix, rhs


@given(triangular_systems())
def test_triangular_solve_matches_dense_back_substitution(system):
    matrix, rhs = system
    assert solve_upper_triangular(matrix, rhs) == back_substitute(matrix, rhs)


def test_triangular_solve_rejects_a_zero_diagonal():
    with pytest.raises(ZeroDivisionError):
        solve_upper_triangular([[1, 2], [0, 0]], [Fraction(1), Fraction(0)])
    with pytest.raises(ZeroDivisionError):
        solve_upper_triangular([[0, 1], [0, 3]], [Fraction(1), Fraction(1)])


def test_rank_field_mod_2():
    F2 = prime_field(2)
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert rank_field(rows, F2) == 2


small_matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols), max_size=6
    ).map(lambda rows: (rows, ncols))
)


def check_against_dense_elimination(rows, ncols):
    """integer_kernel and integer_rank against the dense field elimination."""
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    dense_q = [[QQ.coerce(v) for v in row] for row in rows]
    rank_q = rank_field(dense_q, QQ)
    for ring in (QQ, ZZ, p_local(2)):
        assert integer_rank(sparse, ring) == rank_q
    over_q = integer_kernel(sparse, ncols)
    oracle_q = nullspace_field(dense_q, QQ, ncols)
    assert len(over_q) == len(oracle_q) == ncols - rank_q
    for vec in over_q:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
    if oracle_q:
        both = [[QQ.coerce(v) for v in vec] for vec in over_q] + oracle_q
        assert rank_field(both, QQ) == len(oracle_q)
    for ring in (prime_field(2), prime_field(3), prime_field(2, 2)):
        dense = [[ring.coerce(v) for v in row] for row in rows]
        assert integer_rank(sparse, ring) == rank_field(dense, ring)
        fast = integer_kernel(sparse, ncols, ring)
        oracle = nullspace_field(dense, ring, ncols)
        assert len(fast) == len(oracle)
        if oracle:
            assert rank_field(fast + oracle, ring) == len(oracle)


@given(small_matrices)
def test_integer_kernel_matches_dense_elimination(matrix):
    check_against_dense_elimination(*matrix)


# (rows, rank over Q, rank over F2, kernel over Q where it is checked by hand)
FIXED_EXAMPLES = {
    "dependent-rows": ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 2, 2, [[-1, -1, 1]]),
    "two-dim-kernel": ([[2, 4, -2, 0], [1, 1, 1, 1], [3, 5, -1, 1]], 2, 1, None),
    # the stacked operators diag(1,0,0) and diag(0,1,0): common kernel is the last axis
    "kernel-intersection": (
        [[1, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 0]], 2, 2, [[0, 0, 1]]
    ),
    "rank-drops-mod-2": ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3, 2, []),
}


@pytest.mark.parametrize("name", list(FIXED_EXAMPLES))
def test_integer_elimination_fixed_examples(name):
    rows, rank_q, rank_f2, kernel_q = FIXED_EXAMPLES[name]
    ncols = len(rows[0])
    check_against_dense_elimination(rows, ncols)
    sparse = [dict(enumerate(row)) for row in rows]
    assert integer_rank(sparse, QQ) == rank_q
    assert integer_rank(sparse, prime_field(2)) == rank_f2
    if kernel_q is not None:
        assert integer_kernel(sparse, ncols) == kernel_q


def test_integer_kernel_support_leaves_other_columns_zero():
    # x0 = x2 with only x0 and x2 unknown: one kernel vector, zero elsewhere
    assert integer_kernel([{0: 1, 2: -1}], 4, QQ, support=[0, 2]) == [[1, 0, 1, 0]]
    assert integer_kernel([{0: 1, 2: 1}], 4, prime_field(2), support=[0, 2]) == [[1, 0, 1, 0]]
