from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from test_subgroups import gens_specs, small_group

import motive_ring.center as center
from motive_ring.algebra import Algebra
from motive_ring.center import (
    CenterAlgebra,
    block_scan_oracle,
    blocks_in_rho_span,
    counted_structure_constants,
)
from motive_ring.groups import GroupTooLarge, construct_group
from motive_ring.scalars import QQ, ZZ, prime_field
from motive_ring.subgroups import prime_divisors


def test_class_sum_counts(ws):
    assert ws.center("C2").n == 2
    assert ws.center("S3").n == 3
    assert ws.center("A5").n == 5


def test_identity_class_first(ws):
    Z = ws.center("S4")
    assert Z.classes[0] == (0,)
    assert Z.one().coeffs[0] == 1


def test_unit_and_c2_square(ws):
    Z = ws.center("C2")
    sums = Z.class_sums(QQ)
    assert Z.multiply(Z.one(QQ), sums[1]).coeffs == sums[1].coeffs
    assert Z.multiply(sums[1], sums[1]).coeffs == sums[0].coeffs


def test_s3_transposition_square_via_convolution(ws):
    Z = ws.center("S3")
    sums = Z.class_sums(QQ)
    transpositions = next(
        s for i, s in enumerate(sums) if len(Z.classes[i]) == 3
    )
    square = Z.multiply_oracle(transpositions, transpositions)
    assert Z.multiply(transpositions, transpositions).coeffs == square.coeffs
    by_size = {len(Z.classes[i]): c for i, c in enumerate(square.coeffs)}
    assert by_size[1] == 3 and by_size[2] == 3


@pytest.mark.parametrize("name", ["C2", "S3", "D8", "A4", "S4", "A5"])
def test_structure_constants_match_convolution(name, ws):
    Z = ws.center(name)
    sums = Z.class_sums(QQ)
    for i in range(Z.n):
        for j in range(Z.n):
            fast = Z.multiply(sums[i], sums[j])
            slow = Z.multiply_oracle(sums[i], sums[j])
            assert fast.coeffs == slow.coeffs
            assert fast.coeffs == Z.multiply(sums[j], sums[i]).coeffs


def test_augmentation_basics(ws):
    # the augmentation (coefficient sum) of a class sum is the class size
    Z = ws.center("S3")
    assert sum(Z.to_group_algebra(Z.one(ZZ)).values()) == 1
    sums = [sum(Z.to_group_algebra(z).values()) for z in Z.class_sums(ZZ)]
    assert sums == [len(c) for c in Z.classes] == [1, 3, 2]


def test_augmentation_of_center_images_counts_points(ws):
    for name in ["C2", "S3", "A5"]:
        xr = ws.crossed(name)
        G = ws.group(name)
        images = xr.mark_rows(0)  # the center image of each basis pair
        for i, pair in enumerate(xr.pairs):
            expected = G.order // xr.table.classes[pair.subgroup_class].order
            assert sum(images[i].values()) == expected


def test_c2_center_image_augmentation(ws):
    xr = ws.crossed("C2")
    img = xr.mark_rows(0)[0]  # the free pair with trivial label
    assert img == {0: 2} and sum(img.values()) == 2


# -- blocks --------------------------------------------------------------------------


def test_blocks_c2():
    G = construct_group("cyclic:2")
    field, blocks = CenterAlgebra(G).primitive_idempotents(2)
    assert field.tag == "Fp:2" and len(blocks) == 1
    field, blocks = CenterAlgebra(G).primitive_idempotents(3)
    assert field.tag == "Fp:3" and len(blocks) == 2
    assert [b.to_json() for b in blocks] == [
        {"()": "2", "(1 2)": "1"},
        {"()": "2", "(1 2)": "2"},
    ]


def test_blocks_s3(ws):
    field, blocks = ws.center("S3").primitive_idempotents(2)
    assert len(blocks) == 2
    field, blocks = ws.center("S3").primitive_idempotents(3)
    assert len(blocks) == 1


def test_blocks_default_exponent_splits_c3():
    G = construct_group("cyclic:3")
    field, blocks = CenterAlgebra(G).primitive_idempotents(2)
    assert field.tag == "Fp:2:2"
    assert len(blocks) == 3
    field1, blocks1 = CenterAlgebra(G).primitive_idempotents(2, exponent=1)
    assert field1.tag == "Fp:2" and len(blocks1) == 2


def literal_block_scan(Z, field):
    """Every vector of F_q^n squared by Z.multiply; the minimal nonzero
    idempotents under e <= f iff ef = e, sorted."""
    idems = [
        x
        for x in (Z.element(list(v), field) for v in itertools.product(field.elements(), repeat=Z.n))
        if not x.is_zero() and Z.multiply(x, x).coeffs == x.coeffs
    ]
    minimal = [
        e
        for e in idems
        if not any(f.coeffs != e.coeffs and Z.multiply(e, f).coeffs == f.coeffs for f in idems)
    ]
    return sorted(minimal, key=lambda e: e.coeffs)


@functools.cache
def s5_center():
    return CenterAlgebra(construct_group("sym:5"))


def center_of(name, ws):
    """The conftest workspace's center, or Z(Z S5), which it does not hold."""
    Z = s5_center() if name == "S5" else ws.center(name)
    return Z.group, Z


SCAN_CASES = [
    ("C2", 2, None),
    ("C2", 3, None),
    ("S3", 2, None),
    ("S3", 3, None),
    ("A4", 2, None),
    ("A4", 3, None),
    ("A5", 2, None),
    ("C3", 2, None),  # default field F_4
    ("D10", 2, None),  # default field F_4
    ("S3", 2, 2),
    ("C4", 3, 2),
    ("S4", 5, None),
    ("A5", 5, None),
    ("S5", 3, None),
    ("S5", 2, None),
    # the scan fixes all but the last coordinate t and solves coordinate
    # 0's form for t: one coordinate, so no head (C1); a head of one
    # coordinate with a t^2 term and two blocks (C2 over F_5); a form with
    # no term in t over F_4 (C4)
    ("C1", 2, None),
    ("C1", 3, None),
    ("C2", 5, None),
    ("C4", 2, 2),
]


@pytest.mark.parametrize(
    "name,p,exponent",
    SCAN_CASES,
    ids=[f"{name}-{p}" + (f"-e{e}" if e else "") for name, p, e in SCAN_CASES],
)
def test_blocks_match_exhaustive_scan(name, p, exponent, ws):
    _, Z = center_of(name, ws)
    field, blocks = Z.primitive_idempotents(p, exponent)
    assert exponent is None or field.q == p**exponent
    if field.q**Z.n > 200000:
        pytest.skip("scan too large")
    scan = block_scan_oracle(Z, field)
    assert [b.coeffs for b in blocks] == [b.coeffs for b in scan]
    assert [b.coeffs for b in scan] == [b.coeffs for b in literal_block_scan(Z, field)]


def terms_in_the_last_coordinate(Z, p):
    """The folded rows (i <= j) of coordinate 0's form, nonzero mod p,
    that read the last coordinate."""
    rows: dict = {}
    for (i, j, k), c in counted_structure_constants(Z.group).items():
        if k == 0:
            rows[min(i, j), max(i, j)] = rows.get((min(i, j), max(i, j)), 0) + c
    return [ij for ij, c in rows.items() if Z.n - 1 in ij and c % p]


def test_the_scan_cases_hold_each_shape_of_the_split(ws):
    """One coordinate, and coordinate 0's form with and without a term in
    the last coordinate, over F_p and over F_q with e > 1."""
    shapes = set()
    for name, p, exponent in SCAN_CASES:
        _, Z = center_of(name, ws)
        field, _ = Z.primitive_idempotents(p, exponent)
        shapes.add("n=1" if Z.n == 1 else (field.e > 1, bool(terms_in_the_last_coordinate(Z, p))))
    assert shapes == {"n=1", (False, False), (False, True), (True, False), (True, True)}


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs())
def test_blocks_match_the_scan_on_random_groups(spec):
    Z = CenterAlgebra(small_group(spec, max_order=24))
    for p in prime_divisors(Z.group.order):
        field, blocks = Z.primitive_idempotents(p)
        assert Z.idempotent_family(blocks) == (True, True, True)
        if field.q**Z.n <= 200000:
            assert [b.coeffs for b in blocks] == [b.coeffs for b in block_scan_oracle(Z, field)]


@pytest.mark.parametrize("name", ["S3", "D8", "A4", "S4", "A5", "S5"])
def test_counted_structure_constants_equal_the_products(name, ws):
    G, Z = center_of(name, ws)
    by_pair: dict = {}
    for (i, j, k), c in sorted(counted_structure_constants(G).items()):
        by_pair.setdefault((i, j), []).append((k, c))
    for i in range(Z.n):
        for j in range(Z.n):
            assert tuple(by_pair.get((i, j), ())) == Z.product(i, j)


def test_block_scan_reads_no_product_from_the_algebra(ws, monkeypatch):
    Z = CenterAlgebra(ws.group("A4"))
    field, blocks = ws.center("A4").primitive_idempotents(3)

    def refuse(*args):
        raise AssertionError("the scan multiplied in the algebra")

    monkeypatch.setattr(Algebra, "multiply", refuse)
    monkeypatch.setattr(Algebra, "product", refuse)
    scan = block_scan_oracle(Z, field)
    assert [b.coeffs for b in scan] == [b.coeffs for b in blocks]


def test_block_scan_bound_raises_before_any_enumeration(ws, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the bound check")

    monkeypatch.setattr(center, "product", refuse)
    monkeypatch.setattr(center, "counted_structure_constants", refuse)
    Z = ws.center("S4")  # 13^5 = 371293 vectors
    with pytest.raises(ValueError, match="too large for the exhaustive"):
        block_scan_oracle(Z, prime_field(13))


@pytest.mark.parametrize("name", ["C2", "S3", "A4", "S4", "A5"])
def test_blocks_properties_and_rho_span(name, ws):
    Z = ws.center(name)
    xr = ws.crossed(name)
    rows = xr.center_image_rows()
    for p in prime_divisors(ws.group(name).order):
        field, blocks = Z.primitive_idempotents(p)
        total = Z.zero(field)
        for a, b in enumerate(blocks):
            total = total + b
            assert Z.multiply(b, b).coeffs == b.coeffs
            for c in range(a + 1, len(blocks)):
                assert Z.multiply(b, blocks[c]).is_zero()
        assert total.coeffs == Z.one(field).coeffs
        assert blocks_in_rho_span(blocks, rows, field)


@pytest.mark.parametrize(
    "group,p,tag",
    [
        ("cyclic:5", 2, "Fp:2:4"),
        ("cyclic:7", 2, "Fp:2:3"),
        ("cyclic:9", 2, "Fp:2:6"),
        ("cyclic:7", 3, "Fp:3:6"),
        ("alt:5", 3, "Fp:3:2"),
        ("alt:5", 2, "Fp:2"),
    ],
)
def test_default_field_is_the_splitting_field(group, p, tag):
    field, blocks = CenterAlgebra(construct_group(group)).primitive_idempotents(p)
    assert field.tag == tag


def test_blocks_outside_one_center_image_row(ws):
    # over F_2 the blocks of S3 are not multiples of 1, the image of [S3/S3, 1]
    Z = ws.center("S3")
    xr = ws.crossed("S3")
    field, blocks = Z.primitive_idempotents(2)
    one_row = [list(Z.one(ZZ).coeffs)]
    assert one_row[0] in xr.center_image_rows()
    assert len(blocks) == 2
    assert not blocks_in_rho_span(blocks, one_row, field)
    assert blocks_in_rho_span(blocks, xr.center_image_rows(), field)


def test_blocks_field_bound():
    with pytest.raises(GroupTooLarge, match="field bound 65536"):
        CenterAlgebra(construct_group("sym:3")).primitive_idempotents(2, exponent=17)
    with pytest.raises(GroupTooLarge, match="7\\^10"):
        CenterAlgebra(construct_group("cyclic:11")).primitive_idempotents(7)


def test_blocks_minimality_via_scan(ws):
    # the scan returns minimal nonzero idempotents; equality with the block
    # algorithm is the minimality statement for these centers
    Z = ws.center("S3")
    for p in (2, 3):
        field, blocks = Z.primitive_idempotents(p)
        scan = block_scan_oracle(Z, field)
        assert [b.coeffs for b in blocks] == [b.coeffs for b in scan]


def test_from_group_algebra_validates_constancy(ws):
    Z = ws.center("S3")
    with pytest.raises(ValueError, match="not constant"):
        Z.from_group_algebra({1: 1}, ZZ)
