from __future__ import annotations

from fractions import Fraction

import pytest

from motive_ring.burnside import BurnsideRing
from motive_ring.groups import construct_group
from motive_ring.scalars import QQ, ZZ, ScalarError, p_local
from motive_ring.subgroups import SubgroupClassTable


def orbit_product_oracle(G, table, H, K):
    """Independent product of [G/H][G/K]: decompose the product set into
    orbits and fuse each point stabilizer."""
    reps_h, where_h = G.coset_lookup(H)
    reps_k, where_k = G.coset_lookup(K)
    points = {(x, y) for x in range(len(reps_h)) for y in range(len(reps_k))}
    coeffs = [0] * len(table)
    while points:
        x0, y0 = min(points)
        orbit = {
            (where_h[G.mul(g, reps_h[x0])], where_k[G.mul(g, reps_k[y0])])
            for g in range(G.order)
        }
        points -= orbit
        stab = frozenset(
            g
            for g in range(G.order)
            if where_h[G.mul(g, reps_h[x0])] == x0 and where_k[G.mul(g, reps_k[y0])] == y0
        )
        coeffs[table.fusion(stab)[0]] += 1
    return tuple(coeffs)


# -- table of marks ---------------------------------------------------------


def test_c2_marks(ws):
    assert ws.burnside("C2").table_of_marks().marks == ((2, 1), (0, 1))


@pytest.mark.parametrize("name", ["C2", "S3", "D8", "A4", "A5"])
def test_marks_shape(name, ws):
    ring = ws.burnside(name)
    table = ws.table(name)
    tom = ring.table_of_marks().marks
    n = len(table)
    for i in range(n):
        # one coset of the whole group, always fixed
        assert tom[i][n - 1] == 1
        # the trivial subgroup fixes every coset
        assert tom[0][i] == table.group.order // table.classes[i].order
        # triangular, nonzero diagonal |N(H)/H|
        assert tom[i][i] == len(table.classes[i].normalizer) // table.classes[i].order
        for j in range(i):
            assert tom[i][j] == 0


# -- multiplication ------------------------------------------------------------


def test_identity_element(ws):
    ring = ws.burnside("S3")
    one = ring.one()
    for i in range(ring.n):
        b = ring.basis_element(i)
        assert (one * b).coeffs == b.coeffs


def test_c2_regular_square(ws):
    ring = ws.burnside("C2")
    free = ring.basis_element(0)
    assert (free * free).to_json() == {"1#1": "2"}


def test_s3_transitive_square_frozen(ws):
    ring = ws.burnside("S3")
    table = ws.table("S3")
    c2 = table.class_named("C2#1").index
    x = ring.basis_element(c2)
    product = x * x
    # oracle: orbit decomposition of the 9-point product set
    oracle = orbit_product_oracle(
        ws.group("S3"), table, table.classes[c2].representative, table.classes[c2].representative
    )
    assert product.coeffs == oracle
    assert product.to_json() == {"1#1": "1", "C2#1": "1"}


@pytest.mark.parametrize("name", ["C2", "S3", "D8", "A4"])
def test_double_coset_product_matches_orbit_oracle(name, ws):
    ring = ws.burnside(name)
    table = ws.table(name)
    G = ws.group(name)
    for i in range(ring.n):
        for j in range(ring.n):
            fast = (ring.basis_element(i) * ring.basis_element(j)).coeffs
            slow = orbit_product_oracle(
                G, table, table.classes[i].representative, table.classes[j].representative
            )
            assert fast == slow


@pytest.mark.parametrize("name", ["C2", "S3", "D8", "A4", "S4"])
def test_marks_are_multiplicative(name, ws):
    ring = ws.burnside(name)
    for i in range(ring.n):
        for j in range(ring.n):
            x = ring.basis_element(i, QQ)
            y = ring.basis_element(j, QQ)
            mx = ring.marks(x)
            my = ring.marks(y)
            assert ring.marks(x * y) == tuple(a * b for a, b in zip(mx, my))


def test_marks_multiplicative_sampled_a5(ws):
    ring = ws.burnside("A5")
    pairs = [(i, j) for i in range(ring.n) for j in range(ring.n)]
    for i, j in pairs:
        x = ring.basis_element(i, QQ)
        y = ring.basis_element(j, QQ)
        mx = ring.marks(x)
        my = ring.marks(y)
        assert ring.marks(x * y) == tuple(a * b for a, b in zip(mx, my))


def test_marks_multiplicative_s5():
    ring = BurnsideRing(SubgroupClassTable(construct_group("sym:5")))
    marks = [ring.marks(ring.basis_element(i, QQ)) for i in range(ring.n)]
    for i in range(ring.n):
        for j in range(ring.n):
            product = ring.basis_element(i, QQ) * ring.basis_element(j, QQ)
            assert ring.marks(product) == tuple(a * b for a, b in zip(marks[i], marks[j]))


def test_mixed_scalars_rejected(ws):
    ring = ws.burnside("S3")
    with pytest.raises(ScalarError, match="mixed scalar"):
        ring.multiply(ring.basis_element(0, ZZ), ring.basis_element(0, QQ))


# -- idempotents -------------------------------------------------------------------


def test_rational_idempotent_marks_are_indicators(ws):
    ring = ws.burnside("S4")
    for i, e in enumerate(ring.rational_idempotents()):
        marks = ring.marks(e)
        assert marks == tuple(Fraction(1 if k == i else 0) for k in range(ring.n))


def test_c2_rational_idempotents_frozen(ws):
    ring = ws.burnside("C2")
    e1, e2 = ring.rational_idempotents()
    assert e1.to_json() == {"1#1": "1/2"}
    assert e2.to_json() == {"1#1": "-1/2", "C2#1": "1"}


@pytest.mark.parametrize("name", ["C2", "S3", "D8", "A4", "S4", "A5"])
def test_rational_idempotents_orthogonal_sum_one(name, ws):
    ring = ws.burnside(name)
    idem = ring.rational_idempotents()
    total = ring.zero(QQ)
    for i, e in enumerate(idem):
        total = total + e
        assert (e * e).coeffs == e.coeffs
        for j in range(i + 1, len(idem)):
            assert (e * idem[j]).is_zero()
    assert total.coeffs == ring.one(QQ).coeffs


@pytest.mark.parametrize("name", ["C2", "C4", "V4", "S3", "D8", "Q8", "A4", "S4"])
def test_soluble_groups_have_single_residual_idempotent(name, ws):
    ring = ws.burnside(name)
    family = ring.dress_idempotents("solvable")
    assert len(family) == 1
    j, e = family[0]
    assert ws.table(name).classes[j].order == 1
    assert e.to_json() == {ws.table(name).classes[-1].name: "1"}


def test_a5_solvable_residual_idempotents_published_values(ws):
    ring = ws.burnside("A5")
    family = ring.dress_idempotents("solvable")
    assert len(family) == 2
    by_name = {ws.table("A5").classes[j].name: e.to_json() for j, e in family}
    assert by_name["1#1"] == {
        "1#1": "1",
        "C2#1": "-2",
        "C3#1": "-1",
        "S3#1": "1",
        "D10#1": "1",
        "A4#1": "1",
    }
    assert by_name["A5#1"] == {
        "1#1": "-1",
        "C2#1": "2",
        "C3#1": "1",
        "S3#1": "-1",
        "D10#1": "-1",
        "A4#1": "-1",
        "A5#1": "1",
    }


def test_a5_p2_residual_idempotents(ws):
    ring = ws.burnside("A5")
    table = ws.table("A5")
    family = ring.dress_idempotents(2)
    assert [table.classes[j].name for j, _ in family] == [
        "1#1",
        "C3#1",
        "C5#1",
        "A4#1",
        "A5#1",
    ]
    scalar = p_local(2)
    total = ring.zero(scalar)
    for a, (_, e) in enumerate(family):
        total = total + e
        assert (e * e).coeffs == e.coeffs
        for b in range(a + 1, len(family)):
            assert (e * family[b][1]).is_zero()
        assert all(c.denominator % 2 != 0 for c in e.coeffs)
    assert total.coeffs == ring.one(scalar).coeffs


@pytest.mark.parametrize("name,p", [("S4", 2), ("S4", 3), ("A5", 3), ("A5", 5), ("Q8", 2), ("D8", 2)])
def test_p_residual_idempotents_are_p_local_decompositions(name, p, ws):
    ring = ws.burnside(name)
    table = ws.table(name)
    family = ring.dress_idempotents(p)
    fibers = table.residual_fiber_classes(p)
    assert sorted(j for j, _ in family) == sorted(fibers)
    scalar = p_local(p)
    total = ring.zero(scalar)
    for j, e in family:
        total = total + e
        assert (e * e).coeffs == e.coeffs
        marks = ring.marks(e)
        for k in range(ring.n):
            assert marks[k] == (1 if k in fibers[j] else 0)
    assert total.coeffs == ring.one(scalar).coeffs


def test_ghost_pullback_roundtrip(ws):
    ring = ws.burnside("S4")
    for i in range(ring.n):
        b = ring.basis_element(i, QQ)
        back = ring.from_marks(ring.marks(b), QQ)
        assert back.coeffs == b.coeffs
