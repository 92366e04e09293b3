from __future__ import annotations

import pytest

from motive_ring.groups import GroupTooLarge, construct_group
from motive_ring.linalg import nullspace_field, rank_field
from motive_ring.mackey import (
    HeckeAlgebra,
    MackeyAlgebra,
    center_to_hecke,
    crossed_to_mackey_center,
    mat_mul_scalar,
    span_rank,
)
from motive_ring.scalars import QQ, prime_field
from motive_ring.subgroups import SubgroupClassTable
from motive_ring.verify import hecke_center_dimension

F2 = prime_field(2)
F3 = prime_field(3)
F4 = prime_field(2, 2)


def identity_matrix(n, scalar):
    return [
        [scalar.one if i == j else scalar.zero for j in range(n)] for i in range(n)
    ]


# -- basis ------------------------------------------------------------------------


def test_trivial_group_span():
    mk = MackeyAlgebra(SubgroupClassTable(construct_group("cyclic:1")))
    assert mk.n == 1
    assert mk.npoints == 1
    assert mk.one().coeffs == (1,)


def test_span_sizes(ws):
    assert ws.mackey("C2").n == 6
    assert ws.mackey("C3").n == 7
    assert ws.mackey("S3").n == 87


@pytest.mark.parametrize("name", ["C2", "C3", "S3", "C4", "V4"])
def test_span_count_matches_orbit_formula(name, ws):
    mk = ws.mackey(name)
    assert mk.n == mk.orbit_count_formula()


def test_c2_breakdown_by_stabilizer(ws):
    mk = ws.mackey("C2")
    sizes = {}
    for b in mk.basis:
        sizes[len(b.stabilizer)] = sizes.get(len(b.stabilizer), 0) + 1
    assert sizes == {1: 5, 2: 1}


def test_omega_size(ws):
    # one coset space per subgroup
    mk = ws.mackey("S3")
    G = ws.group("S3")
    assert mk.npoints == sum(
        G.order // len(H) for H in ws.table("S3").all_subgroups
    )


def test_bound_exceeded():
    G = construct_group("alt:5")
    with pytest.raises(ValueError, match="bound exceeded"):
        MackeyAlgebra(SubgroupClassTable(G), bound=24)


def test_bound_exceeded_is_a_safety_bound():
    G = construct_group("alt:5")
    with pytest.raises(GroupTooLarge, match="span bound 24"):
        MackeyAlgebra(SubgroupClassTable(G), bound=24)


# -- composition --------------------------------------------------------------------


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
def test_identity_neutral(name, ws):
    mk = ws.mackey(name)
    one = mk.one()
    for i in range(mk.n):
        b = mk.basis_element(i)
        assert (one * b).coeffs == b.coeffs
        assert (b * one).coeffs == b.coeffs


@pytest.mark.parametrize("name", ["C2", "C3"])
def test_associativity_exhaustive(name, ws):
    mk = ws.mackey(name)
    tbl = mk.structure_table()
    for i in range(mk.n):
        for j in range(mk.n):
            for k in range(mk.n):
                left = [0] * mk.n
                for m, c in enumerate(tbl[(i, j)]):
                    if c:
                        for t, d in enumerate(tbl[(m, k)]):
                            left[t] += c * d
                right = [0] * mk.n
                for m, c in enumerate(tbl[(j, k)]):
                    if c:
                        for t, d in enumerate(tbl[(i, m)]):
                            right[t] += c * d
                assert left == right


def test_associativity_s3_sampled(ws):
    import random

    mk = ws.mackey("S3")
    tbl = mk.structure_table()
    rng = random.Random(1)
    for _ in range(300):
        i, j, k = (rng.randrange(mk.n) for _ in range(3))
        left = [0] * mk.n
        for m, c in enumerate(tbl[(i, j)]):
            if c:
                for t, d in enumerate(tbl[(m, k)]):
                    left[t] += c * d
        right = [0] * mk.n
        for m, c in enumerate(tbl[(j, k)]):
            if c:
                for t, d in enumerate(tbl[(i, m)]):
                    right[t] += c * d
        assert left == right


def test_c2_regular_spans_square_to_twice_their_sum(ws):
    # the sum of the two free spans over the free component squares to
    # twice itself, the span shadow of [free][free] = 2[free]
    mk = ws.mackey("C2")
    G = ws.group("C2")
    free_idx = mk.subgroups.index(frozenset({0}))
    p0 = mk.point_of(free_idx, 0)
    p1 = mk.point_of(free_idx, 1)
    diag = mk.span_index(frozenset({0}), p0, p0)
    off = mk.span_index(frozenset({0}), p0, p1)
    assert diag != off
    coeffs = [0] * mk.n
    coeffs[diag] = 1
    coeffs[off] = 1
    z = mk.element(coeffs, QQ)
    square = z * z
    assert square.coeffs == tuple(QQ.coerce(2 * c) for c in coeffs)


# -- center ---------------------------------------------------------------------------


def test_center_dimensions_frozen(ws):
    assert len(ws.mackey("C2").center_basis(QQ)) == 3
    assert len(ws.mackey("C3").center_basis(QQ)) == 4
    assert len(ws.mackey("S3").center_basis(QQ)) == 7
    assert len(ws.mackey("C2").center_basis(F2)) == 3
    assert len(ws.mackey("S3").center_basis(F2)) == 7


def all_basis_commutant(mk, scalar):
    """Center by brute force: every span coordinate is an unknown, and the
    kernels of x -> b x - x b over every basis span b are intersected one
    at a time with the dense field elimination (not the sparse one, the
    diagonal ansatz or the generator set of center_basis)."""
    n = mk.n
    basis = [
        [scalar.one if i == j else scalar.zero for j in range(n)] for i in range(n)
    ]
    for j in range(n):
        b = mk.basis_element(j, scalar)
        images = []
        for vec in basis:
            z = mk.element(vec, scalar)
            images.append((b * z - z * b).coeffs)
        columns = [[img[k] for img in images] for k in range(n)]
        new_basis = []
        for c in nullspace_field(columns, scalar, ncols=len(basis)):
            vec = [scalar.zero] * n
            for coeff, old in zip(c, basis):
                if not scalar.is_zero(coeff):
                    vec = [scalar.add(v, scalar.mul(coeff, w)) for v, w in zip(vec, old)]
            new_basis.append(vec)
        basis = new_basis
    return basis


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "V4", "S3"])
@pytest.mark.parametrize("scalar", [QQ, F2])
def test_center_basis_matches_all_basis_commutant(name, scalar, ws):
    mk = ws.mackey(name)
    fast = [[scalar.coerce(v) for v in vec] for vec in mk.center_basis(scalar)]
    oracle = all_basis_commutant(mk, scalar)
    assert len(fast) == len(oracle) == rank_field(fast, scalar)
    assert rank_field(fast + oracle, scalar) == len(oracle)


def class_number(G, elements):
    """Number of conjugacy classes of the subgroup on the given elements."""
    seen, classes = set(), 0
    for a in elements:
        if a not in seen:
            classes += 1
            seen |= {G.conj(g, a) for g in elements}
    return classes


def quotient_class_number(G, H, N):
    """k(N/H): N-conjugacy classes of the cosets nH, n in N."""
    cosets = {frozenset(G.mul(n, h) for h in H) for n in N}
    seen, classes = set(), 0
    for coset in cosets:
        if coset not in seen:
            classes += 1
            seen |= {frozenset(G.conj(g, a) for a in coset) for g in N}
    return classes


@pytest.mark.parametrize(
    "name, expected",
    [("C2", 3), ("C3", 4), ("C4", 7), ("V4", 11), ("S3", 7), ("A4", 11), ("D8", 20)],
)
def test_center_dimension_closed_form(name, expected, ws):
    # Thevenaz-Webb: mu_Q(G) is semisimple with one simple module per pair
    # (H up to conjugacy, simple Q Out-module of N_G(H)/H), so its center
    # has dimension sum over classes of subgroups H of k(N_G(H)/H)
    G = ws.group(name)
    formula = sum(
        quotient_class_number(G, cls.representative, cls.normalizer)
        for cls in ws.table(name).classes
    )
    assert formula == expected
    assert len(ws.mackey(name).center_basis(QQ)) == expected


@pytest.mark.parametrize("name", ["C2", "C4", "V4", "S3"])
def test_center_dimension_over_f4_is_the_f2_dimension(name, ws):
    mk = ws.mackey(name)
    over_f4 = mk.center_basis(F4)
    assert len(over_f4) == len(mk.center_basis(F2))
    assert all(len(v) == mk.n and all(len(c) == 2 for c in v) for v in over_f4)
    assert rank_field(over_f4, F4) == len(over_f4)


def test_center_basis_vectors_are_central_over_f4(ws):
    mk = ws.mackey("S3")
    for vec in mk.center_basis(F4):
        assert mk.is_central(mk.element(vec, F4))


def test_identity_is_central(ws):
    for name in ["C2", "C3", "S3"]:
        mk = ws.mackey(name)
        assert mk.is_central(mk.one(QQ))


def test_center_vectors_commute(ws):
    mk = ws.mackey("C3")
    for vec in mk.center_basis(QQ):
        assert mk.is_central(mk.element(vec, QQ))


# -- the central span image of the crossed ring ------------------------------------------


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
@pytest.mark.parametrize("scalar", [QQ, F2])
def test_zeta_unital(name, scalar, ws):
    mk = ws.mackey(name)
    xr = ws.crossed(name)
    assert (
        crossed_to_mackey_center(mk, xr, xr.one(scalar)).coeffs
        == mk.one(scalar).coeffs
    )


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
def test_zeta_lands_in_center(name, ws):
    mk = ws.mackey(name)
    xr = ws.crossed(name)
    for i in range(xr.n):
        assert mk.is_central(crossed_to_mackey_center(mk, xr, xr.basis_element(i, QQ)))


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
@pytest.mark.parametrize("scalar", [QQ, F2, F3])
def test_zeta_ring_homomorphism(name, scalar, ws):
    mk = ws.mackey(name)
    xr = ws.crossed(name)
    imgs = [
        crossed_to_mackey_center(mk, xr, xr.basis_element(i, scalar))
        for i in range(xr.n)
    ]
    for i in range(xr.n):
        for j in range(xr.n):
            prod = xr.multiply(xr.basis_element(i, scalar), xr.basis_element(j, scalar))
            lhs = crossed_to_mackey_center(mk, xr, prod)
            rhs = mk.compose(imgs[i], imgs[j])
            assert lhs.coeffs == rhs.coeffs


def test_zeta_rank_versus_center_dimension(ws):
    # the image spans the center for the cyclic groups but misses one
    # central direction for the smallest nonabelian group
    for name, expect_rank, expect_dim in [("C2", 3, 3), ("C3", 4, 4), ("S3", 6, 7)]:
        mk = ws.mackey(name)
        xr = ws.crossed(name)
        for scalar in (QQ, F2):
            imgs = [
                crossed_to_mackey_center(mk, xr, xr.basis_element(i, scalar))
                for i in range(xr.n)
            ]
            rank = span_rank([z.coeffs for z in imgs], scalar)
            dim = len(mk.center_basis(scalar))
            assert (rank, dim) == (expect_rank, expect_dim)


# -- hecke algebra -------------------------------------------------------------------------


def test_hecke_dimension_c2(ws):
    assert HeckeAlgebra(ws.mackey("C2")).n == 5


def test_hecke_dimensions(ws):
    assert HeckeAlgebra(ws.mackey("C3")).n == 6
    assert HeckeAlgebra(ws.mackey("S3")).n == 65


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
def test_hecke_dimension_is_double_coset_count(name, ws):
    from motive_ring.groups import double_cosets

    mk = ws.mackey(name)
    G = ws.group(name)
    total = 0
    for H in mk.subgroups:
        for K in mk.subgroups:
            total += len(double_cosets(G, H, K)[0])
    assert HeckeAlgebra(mk).n == total


def test_hecke_operators_are_equivariant(ws):
    mk = ws.mackey("C2")
    hk = HeckeAlgebra(mk)
    G = ws.group("C2")
    for k in range(hk.n):
        mat = hk.basis_matrix(k)
        for g in range(G.order):
            for x in range(mk.npoints):
                for y in range(mk.npoints):
                    assert mat[y][x] == mat[mk.act[g][y]][mk.act[g][x]]


def test_projection_of_identity(ws):
    mk = ws.mackey("S3")
    assert mk.project(mk.one(QQ)) == identity_matrix(mk.npoints, QQ)


@pytest.mark.parametrize("name", ["C2", "C3"])
@pytest.mark.parametrize("scalar", [QQ, F2])
def test_projection_is_algebra_homomorphism(name, scalar, ws):
    mk = ws.mackey(name)
    for i in range(mk.n):
        for j in range(mk.n):
            lhs = mk.project(
                mk.compose(mk.basis_element(i, scalar), mk.basis_element(j, scalar))
            )
            rhs = mat_mul_scalar(
                mk.project(mk.basis_element(i, scalar)),
                mk.project(mk.basis_element(j, scalar)),
                scalar,
            )
            assert lhs == rhs


def test_projection_is_algebra_homomorphism_s3_sampled(ws):
    import random

    mk = ws.mackey("S3")
    rng = random.Random(2)
    for _ in range(60):
        i, j = rng.randrange(mk.n), rng.randrange(mk.n)
        lhs = mk.project(mk.compose(mk.basis_element(i, QQ), mk.basis_element(j, QQ)))
        rhs = mat_mul_scalar(
            mk.project(mk.basis_element(i, QQ)),
            mk.project(mk.basis_element(j, QQ)),
            QQ,
        )
        assert lhs == rhs


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
def test_projection_surjective_onto_hecke(name, ws):
    mk = ws.mackey(name)
    hk = HeckeAlgebra(mk)
    vecs = [
        [v for row in mk.project(mk.basis_element(i)) for v in row]
        for i in range(mk.n)
    ]
    assert span_rank(vecs, QQ) == hk.n


# -- the center embedding and the commuting square ---------------------------------------------


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
@pytest.mark.parametrize("scalar", [QQ, F2])
def test_center_embedding_is_unital_ring_homomorphism(name, scalar, ws):
    mk = ws.mackey(name)
    Z = ws.center(name)
    sums = Z.class_sums(scalar)
    assert center_to_hecke(mk, Z, Z.one(scalar)) == identity_matrix(mk.npoints, scalar)
    ops = [center_to_hecke(mk, Z, z) for z in sums]
    for i in range(Z.n):
        for j in range(Z.n):
            lhs = center_to_hecke(mk, Z, Z.multiply(sums[i], sums[j]))
            assert lhs == mat_mul_scalar(ops[i], ops[j], scalar)


def test_center_embedding_lands_in_hecke_center(ws):
    mk = ws.mackey("C2")
    Z = ws.center("C2")
    hk = HeckeAlgebra(mk)
    t_sum = Z.class_sums(QQ)[1]
    op = center_to_hecke(mk, Z, t_sum)
    for k in range(hk.n):
        m = [[QQ.coerce(v) for v in row] for row in hk.basis_matrix(k)]
        assert mat_mul_scalar(op, m, QQ) == mat_mul_scalar(m, op, QQ)
    assert mat_mul_scalar(op, op, QQ) == center_to_hecke(
        mk, Z, Z.multiply(t_sum, t_sum)
    )


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
@pytest.mark.parametrize("scalar", [QQ, F2, F3])
def test_square_commutes_on_every_crossed_basis_element(name, scalar, ws):
    mk = ws.mackey(name)
    xr = ws.crossed(name)
    Z = ws.center(name)
    for i in range(xr.n):
        x = xr.basis_element(i, scalar)
        rho = Z.from_group_algebra(xr.center_image(x), scalar)
        lhs = mk.project(crossed_to_mackey_center(mk, xr, x))
        rhs = center_to_hecke(mk, Z, rho)
        assert lhs == rhs


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "V4", "S3"])
@pytest.mark.parametrize("scalar", [QQ, F2, F3])
def test_composite_reaches_hecke_center(name, scalar, ws):
    mk = ws.mackey(name)
    xr = ws.crossed(name)
    Z = ws.center(name)
    hk = HeckeAlgebra(mk)
    dim_zy = hecke_center_dimension(mk, hk, scalar)
    # k Omega contains the regular module kG, so it is a generator and
    # Z(End_kG(k Omega)) is Z(kG), of dimension k(G), in every characteristic
    assert dim_zy == Z.n == class_number(ws.group(name), range(ws.group(name).order))
    comp = [
        [
            v
            for row in mk.project(
                crossed_to_mackey_center(mk, xr, xr.basis_element(i, scalar))
            )
            for v in row
        ]
        for i in range(xr.n)
    ]
    assert span_rank(comp, scalar) == dim_zy
