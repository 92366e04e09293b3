"""The oracles of verify-all on plain ints against their earlier forms
(reference_checks): the crossed orbit oracle on flat points with its own
orbit loop, against groups.orbits on flat and on tuple points, the integer
convolution, the int block scan over F_p, the Dress and rational
idempotents from one integer solve per fiber, the sparse idempotent-family
check, the one conjugation pass per class of group_checks, and the class
centralizers scanned inside the normalizers.
"""

from __future__ import annotations

import copy
from random import Random

import pytest
import reference_checks as ref
from hypothesis import HealthCheck, given, settings
from test_algebra import broken_families, crossed_ring, true_families
from test_center import SCAN_CASES, center_of
from test_subgroups import gens_specs, small_group

from motive_ring import crossed, groups, verify
from motive_ring.burnside import BurnsideRing, TableOfMarks
from motive_ring.center import CenterAlgebra, block_scan_oracle
from motive_ring.crossed import CrossedBurnsideRing
from motive_ring.scalars import ZZ, PrimeFieldRing
from motive_ring.subgroups import SubgroupClassTable, prime_divisors

LADDER = ["S3", "D8", "A4", "S4", "A5", "S5"]


def verdicts(checks, names=None):
    return [(c.name, c.passed, c.detail) for c in checks if names is None or c.name in names]


# -- the crossed orbit oracle ------------------------------------------------------------


def assert_oracle_matches(xr, pairs):
    for i, j in pairs:
        assert xr.basis_product_oracle(i, j) == ref.tuple_orbit_product(xr, i, j), (i, j)


@pytest.mark.parametrize("name", ["S3", "D8", "A4"])
def test_flat_orbit_oracle_matches_tuple_orbits_on_every_pair(name, ws):
    xr = ws.crossed(name)
    assert_oracle_matches(xr, [(i, j) for i in range(xr.n) for j in range(xr.n)])


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_flat_orbit_oracle_matches_tuple_orbits_on_drawn_pairs(name, ws):
    xr = ws.crossed(name)
    rng = Random(name)
    assert_oracle_matches(xr, [(rng.randrange(xr.n), rng.randrange(xr.n)) for _ in range(200)])


def oracle_pairs(name, xr):
    """Every pair of S4 and D8, and 40 drawn pairs of A5."""
    if name == "A5":
        rng = Random(name)
        return [(rng.randrange(xr.n), rng.randrange(xr.n)) for _ in range(40)]
    return [(i, j) for i in range(xr.n) for j in range(xr.n)]


@pytest.mark.parametrize("name", ["S4", "D8", "A5"])
def test_inline_orbit_oracle_calls_no_orbit_routine_and_matches_the_product(name, ws, monkeypatch):
    xr = ws.crossed(name)  # built first: its labels come from groups.orbits
    pairs = oracle_pairs(name, xr)
    products = [xr._basis_product(i, j) for i, j in pairs]
    references = [ref.flat_orbit_product(xr, i, j) for i, j in pairs]

    def refuse(*args):
        raise AssertionError("the product oracle called a routine of the fast path")

    monkeypatch.setattr(groups, "orbits", refuse)
    monkeypatch.setattr(crossed, "orbits", refuse)
    monkeypatch.setattr(SubgroupClassTable, "double_coset_meets", refuse)
    got = [xr.basis_product_oracle(i, j) for i, j in pairs]
    assert got == products
    assert got == references


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs())
def test_flat_orbit_oracle_and_conjugation_pass_on_random_groups(spec):
    table = SubgroupClassTable(small_group(spec, max_order=24))
    xr = CrossedBurnsideRing(table)
    rng = Random(spec)
    pairs = [(i, j) for i in range(xr.n) for j in range(xr.n)] if xr.n <= 12 else [
        (rng.randrange(xr.n), rng.randrange(xr.n)) for _ in range(144)
    ]
    assert_oracle_matches(xr, pairs)
    assert conjugation_verdicts(table) == verdicts(ref.conjugation_checks(table))
    G = table.group
    assert all(cls.centralizer == G.centralizer(cls.representative, range(G.order)) for cls in table.classes)
    ring = xr.burnside
    assert ring.rational_idempotents() == ref.fraction_rational_idempotents(ring)
    for mode in ["solvable", *prime_divisors(G.order)]:
        assert ring.dress_idempotents(mode) == ref.fraction_dress_idempotents(ring, mode)


# -- the convolution and the block scan ------------------------------------------------------


CONVOLUTION = "center-multiplication-matches-convolution"


def convolution_verdict(xr):
    return verdicts(verify.center_checks(xr), {CONVOLUTION})


@pytest.mark.parametrize("name", ["S3", "D8", "A4", "S4", "A5"])
def test_integer_convolution_matches_the_convolution_over_q(name, ws):
    xr = ws.crossed(name)
    want = verdicts([verify._check(CONVOLUTION, ref.convolution_failures_over_q(ws.center(name)))])
    assert want == [(CONVOLUTION, True, "")]
    assert convolution_verdict(xr) == want


@pytest.mark.parametrize("name", ["S3", "A4"])
def test_integer_convolution_fails_as_over_q_on_a_shifted_structure_constant(name, ws, monkeypatch):
    right = CenterAlgebra._basis_product

    def shifted(self, i, j):
        (k, c), *rest = right(self, i, j)
        return ((k, c + 1), *rest) if (i, j) == (1, self.n - 1) else ((k, c), *rest)

    monkeypatch.setattr(CenterAlgebra, "_basis_product", shifted)
    failures = list(ref.convolution_failures_over_q(CenterAlgebra(ws.group(name))))
    assert failures
    assert convolution_verdict(ws.crossed(name)) == [(CONVOLUTION, False, failures[-1])]


@pytest.mark.parametrize(
    "name,p,exponent",
    SCAN_CASES,
    ids=[f"{name}-{p}" + (f"-e{e}" if e else "") for name, p, e in SCAN_CASES],
)
def test_int_block_scan_matches_the_field_scan(name, p, exponent, ws):
    _, Z = center_of(name, ws)
    field, _ = Z.primitive_idempotents(p, exponent)
    assert field.q**Z.n <= 200000
    scan = [b.coeffs for b in block_scan_oracle(Z, field)]
    assert scan and scan == [b.coeffs for b in ref.field_block_scan(Z, field)]


# -- the Dress and rational idempotents ---------------------------------------------------------


@pytest.mark.parametrize("name", LADDER)
def test_integer_solves_match_the_fraction_sums(name, ws):
    ring = crossed_ring(name, ws).burnside
    assert ring.rational_idempotents() == ref.fraction_rational_idempotents(ring)
    for mode in ["solvable", *prime_divisors(ring.group.order), 7]:
        family = ring.dress_idempotents(mode)
        assert family == ref.fraction_dress_idempotents(ring, mode)
        assert [e.scalar for _, e in family] == [family[0][1].scalar] * len(family)


def test_a_division_that_is_not_exact_raises(ws):
    ring = BurnsideRing(ws.table("S3"))
    marks = [list(row) for row in ring.table_of_marks().marks]
    marks[0][0] = 7  # no longer |N(1):1| = 6, and prime to |G|
    ring._marks = TableOfMarks(ring.labels, tuple(map(tuple, marks)))
    with pytest.raises(RuntimeError, match="denominator 6"):
        ring.rational_idempotents()
    with pytest.raises(RuntimeError, match="denominator 6"):
        ring.dress_idempotents(2)  # the fiber {1, C2}


# -- the idempotent-family check --------------------------------------------------------------


def integer_families(name, ws):
    """(algebra, family) pairs over Z: the solvable Dress family in the
    Burnside ring and embedded in the crossed ring."""
    xr = crossed_ring(name, ws)
    family = [f for _, f in xr.burnside.dress_idempotents("solvable")]
    return [(xr.burnside, family), (xr, [xr.with_identity_labels(f) for f in family])]


@pytest.mark.parametrize("name", ["A4", "S4", "A5"])
def test_sparse_family_check_matches_the_dense_check(name, ws):
    Z = ws.center(name)
    cases = true_families(name, ws) + integer_families(name, ws)
    cases += [(Z, Z.primitive_idempotents(p)[1]) for p in prime_divisors(Z.group.order)]
    for algebra, family in cases:
        if len(family) < 2:
            continue  # broken_families needs two members
        assert algebra.idempotent_family(family) == ref.dense_idempotent_family(algebra, family)
        for broken, facts in broken_families(family):
            verdict = ref.dense_idempotent_family(algebra, broken)
            # over F_2, e0 + e0 = 0 is idempotent
            assert verdict == facts or isinstance(family[0].scalar, PrimeFieldRing)
            assert algebra.idempotent_family(broken) == verdict
    xr = ws.crossed(name)
    scaled = [xr.element([3 * c for c in xr.one().coeffs], ZZ)]
    assert xr.idempotent_family(scaled) == ref.dense_idempotent_family(xr, scaled) == (False, True, False)


# -- the conjugation pass of group_checks ----------------------------------------------------------

CONJUGATION = {"normalizer-is-stabilizer", "fixed-points-iff-subconjugate"}


def conjugation_verdicts(table):
    return verdicts(verify.group_checks(table, Random(0)), CONJUGATION)


@pytest.mark.parametrize("name", LADDER[:-1])
def test_conjugation_pass_matches_the_full_conjugation(name, ws):
    table = ws.table(name)
    want = verdicts(ref.conjugation_checks(table))
    assert all(passed for _, passed, _ in want)
    assert conjugation_verdicts(table) == want


@pytest.mark.parametrize("name", ["S3", "A4", "S4"])
def test_conjugation_pass_fails_as_the_reference_on_a_broken_normalizer(name, ws):
    table = SubgroupClassTable(ws.group(name))
    for k, cls in enumerate(table.classes):
        broken = table.classes[k] = copy.copy(cls)
        broken.normalizer = cls.normalizer - {max(cls.normalizer)}
        want = verdicts(ref.conjugation_checks(table))
        assert want[0][1] is False and "stabilizer mismatch" in want[0][2]
        assert conjugation_verdicts(table) == want
        table.classes[k] = cls


@pytest.mark.parametrize("name", ["S3", "A4", "S4"])
def test_conjugation_pass_fails_as_the_reference_on_a_conjugate_representative(name, ws):
    table = SubgroupClassTable(ws.group(name))
    G = table.group
    failed = 0
    for k, cls in enumerate(table.classes):
        g = next((g for g in range(G.order) if g not in cls.normalizer), None)
        if g is None:
            continue  # a normal subgroup is its only conjugate
        moved = table.classes[k] = copy.copy(cls)
        moved.representative = G.conjugate_subgroup(g, cls.representative)
        want = verdicts(ref.conjugation_checks(table))
        assert conjugation_verdicts(table) == want
        # the check fails where the conjugate has another normalizer
        failed += not want[0][1]
        table.classes[k] = cls
    assert failed


@pytest.mark.parametrize("name", LADDER)
def test_class_centralizers_match_a_scan_of_the_group(name, ws):
    table = crossed_ring(name, ws).table
    G = table.group
    for cls in table.classes:
        assert cls.centralizer == G.centralizer(cls.representative, range(G.order))
