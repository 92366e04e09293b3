"""Algebra.primitive_idempotents, the split on one Frobenius matrix, against
the dense reference split of reference_split: the same field and the same
sorted idempotents, as many as the dimension of the fixed space of the
reference's own dense q-th powers."""

from __future__ import annotations

import pytest
import reference_split
from dense_linalg import rank_field
from hypothesis import HealthCheck, given, settings
from test_algebra import crossed_ring
from test_center import center_of
from test_subgroups import gens_specs, small_group

from motive_ring.center import CenterAlgebra
from motive_ring.groups import GroupTooLarge, construct_group
from motive_ring.scalars import prime_field
from motive_ring.subgroups import prime_divisors


def assert_split_matches_reference(algebra, p, exponent=None):
    """The split equals the reference; returns its field."""
    field, idempotents = algebra.primitive_idempotents(p, exponent)
    ref_field, ref = reference_split.primitive_idempotents(algebra, p, exponent)
    assert field.tag == ref_field.tag
    assert [e.coeffs for e in idempotents] == [e.coeffs for e in ref]
    rows = reference_split.fixed_space_rows(algebra, p, field.e)
    assert len(idempotents) == algebra.n - rank_field(rows, prime_field(p))
    return field


LADDER = [
    ("S3", 2), ("S3", 3), ("D8", 2), ("A4", 2), ("A4", 3), ("S4", 2), ("S4", 3),
    ("A5", 2), ("A5", 3), ("A5", 5), ("S5", 2), ("S5", 3), ("S5", 5),
]


@pytest.mark.parametrize("name,p", LADDER, ids=[f"{name}-{p}" for name, p in LADDER])
def test_blocks_match_the_reference_on_the_ladder(name, p, ws):
    _, Z = center_of(name, ws)
    assert_split_matches_reference(Z, p)


@pytest.mark.parametrize(
    "group,p,e", [("cyclic:3", 2, 2), ("cyclic:5", 2, 4), ("cyclic:7", 2, 3), ("cyclic:9", 2, 6), ("cyclic:7", 3, 6)]
)
def test_cyclic_splitting_exponents_match_the_reference(group, p, e):
    Z = CenterAlgebra(construct_group(group))
    assert assert_split_matches_reference(Z, p).e == e


@pytest.mark.parametrize("name,p", [("C3", 2), ("A5", 3)])
def test_exponent_one_short_of_the_splitting_field(name, p, ws):
    Z = ws.center(name)
    assert reference_split.splitting_exponent(Z, p) > 1
    assert assert_split_matches_reference(Z, p, exponent=1).tag == f"Fp:{p}"


CROSSED = [("A4", 2), ("A4", 3), ("A5", 2), ("A5", 3), ("A5", 5), ("S5", 2), ("S5", 3), ("S5", 5)]


@pytest.mark.parametrize("name,p", CROSSED, ids=[f"{name}-{p}" for name, p in CROSSED])
def test_crossed_split_matches_the_reference(name, p, ws):
    assert_split_matches_reference(crossed_ring(name, ws), p, exponent=1)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs())
def test_blocks_match_the_reference_on_random_groups(spec):
    Z = CenterAlgebra(small_group(spec, max_order=24))
    for p in prime_divisors(Z.group.order):
        assert_split_matches_reference(Z, p)


def test_a_large_exponent_is_found_before_the_field_bound():
    Z = CenterAlgebra(construct_group("cyclic:101", degree_bound=101, order_bound=101))
    with pytest.raises(GroupTooLarge, match=r"q = 3\^100 = \d+ > field bound 65536"):
        Z.primitive_idempotents(3)
