from __future__ import annotations

import pytest

from motive_ring.center import (
    augmentation,
    block_scan_oracle,
    blocks_in_rho_span,
    blocks_mod_p,
)
from motive_ring.groups import GroupTooLarge, construct_group
from motive_ring.scalars import QQ, ZZ
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
    Z = ws.center("S3")
    assert augmentation({}, ZZ) == 0
    assert augmentation({0: 1}, ZZ) == 1
    assert Z.augmentation(Z.one(ZZ)) == 1


def test_augmentation_of_center_images_counts_points(ws):
    for name in ["C2", "S3", "A5"]:
        xr = ws.crossed(name)
        G = ws.group(name)
        for i, pair in enumerate(xr.pairs):
            img = xr.center_image(xr.basis_element(i))
            expected = G.order // xr.table.classes[pair.subgroup_class].order
            assert augmentation(img, ZZ) == expected


def test_c2_center_image_augmentation(ws):
    xr = ws.crossed("C2")
    img = xr.center_image(xr.basis_element(0))  # the free pair with trivial label
    assert augmentation(img, ZZ) == 2


# -- blocks --------------------------------------------------------------------------


def test_blocks_c2():
    G = construct_group("cyclic:2")
    field, blocks = blocks_mod_p(G, 2)
    assert field.tag == "Fp:2" and len(blocks) == 1
    field, blocks = blocks_mod_p(G, 3)
    assert field.tag == "Fp:3" and len(blocks) == 2
    assert [b.to_json() for b in blocks] == [
        {"()": "2", "(1 2)": "1"},
        {"()": "2", "(1 2)": "2"},
    ]


def test_blocks_s3(ws):
    G = ws.group("S3")
    field, blocks = blocks_mod_p(G, 2, algebra=ws.center("S3"))
    assert len(blocks) == 2
    field, blocks = blocks_mod_p(G, 3, algebra=ws.center("S3"))
    assert len(blocks) == 1


def test_blocks_default_exponent_splits_c3():
    G = construct_group("cyclic:3")
    field, blocks = blocks_mod_p(G, 2)
    assert field.tag == "Fp:2:2"
    assert len(blocks) == 3
    field1, blocks1 = blocks_mod_p(G, 2, exponent=1)
    assert field1.tag == "Fp:2" and len(blocks1) == 2


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
]


@pytest.mark.parametrize(
    "name,p,exponent",
    SCAN_CASES,
    ids=[f"{name}-{p}" + (f"-e{e}" if e else "") for name, p, e in SCAN_CASES],
)
def test_blocks_match_exhaustive_scan(name, p, exponent, ws):
    Z = ws.center(name)
    field, blocks = blocks_mod_p(ws.group(name), p, exponent, algebra=Z)
    assert exponent is None or field.q == p**exponent
    if field.q**Z.n > 200000:
        pytest.skip("scan too large")
    scan = block_scan_oracle(Z, field)
    assert [b.coeffs for b in blocks] == [b.coeffs for b in scan]


@pytest.mark.parametrize("name", ["C2", "S3", "A4", "S4", "A5"])
def test_blocks_properties_and_rho_span(name, ws):
    Z = ws.center(name)
    xr = ws.crossed(name)
    rows = xr.center_image_rows(ZZ)
    for p in prime_divisors(ws.group(name).order):
        field, blocks = blocks_mod_p(ws.group(name), p, algebra=Z)
        total = Z.zero(field)
        for a, b in enumerate(blocks):
            total = total + b
            assert Z.multiply(b, b).coeffs == b.coeffs
            for c in range(a + 1, len(blocks)):
                assert Z.multiply(b, blocks[c]).is_zero()
        assert total.coeffs == Z.one(field).coeffs
        assert blocks_in_rho_span(ws.group(name), blocks, rows, field)


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
    field, blocks = blocks_mod_p(construct_group(group), p)
    assert field.tag == tag


def test_blocks_outside_one_center_image_row(ws):
    # over F_2 the blocks of S3 are not multiples of 1, the image of [S3/S3, 1]
    Z = ws.center("S3")
    xr = ws.crossed("S3")
    field, blocks = blocks_mod_p(ws.group("S3"), 2, algebra=Z)
    one_row = [list(Z.one(ZZ).coeffs)]
    assert one_row[0] in xr.center_image_rows(ZZ)
    assert len(blocks) == 2
    assert not blocks_in_rho_span(ws.group("S3"), blocks, one_row, field)
    assert blocks_in_rho_span(ws.group("S3"), blocks, xr.center_image_rows(ZZ), field)


def test_blocks_field_bound():
    with pytest.raises(GroupTooLarge, match="field bound 65536"):
        blocks_mod_p(construct_group("sym:3"), 2, exponent=17)
    with pytest.raises(GroupTooLarge, match="7\\^10"):
        blocks_mod_p(construct_group("cyclic:11"), 7)


def test_blocks_minimality_via_scan(ws):
    # the scan returns minimal nonzero idempotents; equality with the block
    # algorithm is the minimality statement for these centers
    Z = ws.center("S3")
    for p in (2, 3):
        field, blocks = blocks_mod_p(ws.group("S3"), p, algebra=Z)
        scan = block_scan_oracle(Z, field)
        assert [b.coeffs for b in blocks] == [b.coeffs for b in scan]


def test_from_group_algebra_validates_constancy(ws):
    Z = ws.center("S3")
    with pytest.raises(ValueError, match="not constant"):
        Z.from_group_algebra({1: 1}, ZZ)
