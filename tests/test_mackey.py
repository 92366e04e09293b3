from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from dense_linalg import dense, mat_mul, nullspace_field, rank_field
from reference_checks import is_central
from reference_groups import double_cosets, left_cosets
from test_subgroups import gens_specs, small_group

from motive_ring.algebra import combine
from motive_ring.groups import GroupTooLarge, construct_group
from motive_ring.linalg import sparse_mat_mul
from motive_ring.mackey import HeckeAlgebra, MackeyAlgebra
from motive_ring.scalars import QQ, ZZ, prime_field
from motive_ring.subgroups import SubgroupClassTable, subgroup_key
from motive_ring.verify import _vanishes, hecke_center_dimension

F2 = prime_field(2)
F3 = prime_field(3)
F4 = prime_field(2, 2)


def identity_operator(n, scalar):
    return {(i, i): scalar.one for i in range(n)}


def read(row, x) -> dict:
    """The image of x over Z or Z_(p) under the map with the integer rows
    row(i)."""
    return combine(enumerate(x.coeffs), lambda i: row(i).items())


def over(op: dict, scalar) -> dict:
    """An integer operator read over the scalar ring: its nonzero images."""
    images = {key: scalar.coerce(v) for key, v in op.items()}
    return {key: v for key, v in images.items() if not scalar.is_zero(v)}


def zeta(mk, xr, x, scalar):
    """The central span image of x over Z, as an element over the scalar ring."""
    image = read(lambda i: mk.zeta_row(xr, i), x)
    return mk.element([image.get(k, 0) for k in range(mk.n)], scalar)


def orbit_operator(hk, k):
    """Sparse indicator operator of Hecke orbit k: sends point x toward y."""
    return {(y, x): 1 for (x, y) in hk.orbits[k]}


# -- basis ------------------------------------------------------------------------


def canonical_triple(mk, S, x, y):
    """Least (key of gSg^-1, gx, gy) over all g in G: a sweep over G, not the
    generator orbits of MackeyAlgebra."""
    G = mk.group
    return min(
        (subgroup_key(G.conjugate_subgroup(g, S)), mk.act[g][x], mk.act[g][y])
        for g in range(G.order)
    )


def basis_oracle(mk):
    """The span basis enumerated per subgroup class: every pair of points
    fixed by the class representative, canonicalised by canonical_triple,
    sorted by (|S|, key S, x, y)."""
    G = mk.group
    keys = set()
    for cls in mk.table.classes:
        S = cls.representative
        gens = G.small_generating_set(S) or [0]
        fixed = [p for p in range(mk.npoints) if all(mk.act[g][p] == p for g in gens)]
        keys |= {canonical_triple(mk, S, x, y) for x in fixed for y in fixed}
    return sorted(keys, key=lambda k: (len(k[0]), k))


def assert_basis_matches_oracle(mk):
    G = mk.group
    expected = basis_oracle(mk)
    assert [(subgroup_key(b.stabilizer), b.x, b.y) for b in mk.basis] == expected
    position = {subgroup_key(S): si for si, S in enumerate(mk.subgroups)}
    index = {}
    for i, (key, x, y) in enumerate(expected):
        for g in range(G.order):
            conjugate = position[subgroup_key(G.conjugate_subgroup(g, key))]
            index[(conjugate, mk.act[g][x], mk.act[g][y])] = i
    assert mk._index == index


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "V4", "S3", "D8", "A4"])
def test_basis_matches_class_enumeration_oracle(name, ws):
    assert_basis_matches_oracle(ws.mackey(name))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs())
def test_basis_matches_class_enumeration_oracle_on_random_groups(spec):
    assert_basis_matches_oracle(MackeyAlgebra(SubgroupClassTable(small_group(spec, max_order=12))))


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


def fibered_product_oracle(mk, i, j):
    """Product of basis spans i and j by a BFS over all of G on the fibered
    product, each orbit canonicalised by canonical_triple and looked up among
    the canonical basis triples (not the conjugate-closed index or the
    double-coset formula of MackeyAlgebra._basis_product)."""
    G = mk.group
    canonical = {(subgroup_key(b.stabilizer), b.x, b.y): b.index for b in mk.basis}
    bi, bj = mk.basis[i], mk.basis[j]
    Si, Sj = bi.stabilizer, bj.stabilizer
    where_i = {G.mul(v, h): v for v in left_cosets(G, Si) for h in Si}
    where_j = {G.mul(w, h): w for w in left_cosets(G, Sj) for h in Sj}
    fiber = [
        (v, w)
        for v in left_cosets(G, Si)
        for w in left_cosets(G, Sj)
        if mk.act[v][bi.x] == mk.act[w][bj.y]
    ]
    counts, assigned = {}, set()
    for v0, w0 in fiber:
        if (v0, w0) in assigned:
            continue
        orbit, frontier = {(v0, w0)}, [(v0, w0)]
        while frontier:
            v, w = frontier.pop()
            for g in range(G.order):
                moved = (where_i[G.mul(g, v)], where_j[G.mul(g, w)])
                if moved not in orbit:
                    orbit.add(moved)
                    frontier.append(moved)
        assigned |= orbit
        stab = G.conjugate_subgroup(v0, Si) & G.conjugate_subgroup(w0, Sj)
        k = canonical[canonical_triple(mk, stab, mk.act[w0][bj.x], mk.act[v0][bi.y])]
        counts[k] = counts.get(k, 0) + 1
    return tuple(sorted(counts.items()))


@pytest.mark.parametrize("name", ["C2", "C3", "C4", "V4", "S3"])
def test_composition_matches_fibered_product_oracle(name, ws):
    mk = ws.mackey(name)
    for i in range(mk.n):
        for j in range(mk.n):
            assert mk._basis_product(i, j) == fibered_product_oracle(mk, i, j)


def assert_sampled_products_match_oracle(mk, count):
    rng = random.Random(7)
    for _ in range(count):
        i, j = rng.randrange(mk.n), rng.randrange(mk.n)
        assert mk._basis_product(i, j) == fibered_product_oracle(mk, i, j)


@pytest.mark.parametrize("name", ["D8", "A4"])
def test_composition_matches_fibered_product_oracle_sampled(name, ws):
    assert_sampled_products_match_oracle(ws.mackey(name), 2000)


def test_composition_matches_fibered_product_oracle_sampled_on_s4(ws):
    # most of the 4,252^2 pairs have legs in different coset spaces, so j
    # is drawn among the spans whose target lies in the space of i's source
    mk = ws.mackey("S4")
    by_target = {}
    for b in mk.basis:
        by_target.setdefault(mk.component(b.y), []).append(b.index)
    rng = random.Random(7)
    nonempty = 0
    for _ in range(300):
        i = rng.randrange(mk.n)
        j = rng.choice(by_target[mk.component(mk.basis[i].x)])
        product = mk._basis_product(i, j)
        assert product == fibered_product_oracle(mk, i, j)
        nonempty += bool(product)
    assert nonempty == 300


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs(), st.randoms(use_true_random=False))
def test_composition_matches_fibered_product_oracle_on_random_groups(spec, rng):
    mk = MackeyAlgebra(SubgroupClassTable(small_group(spec, max_order=24)))
    for _ in range(40):
        i, j = rng.randrange(mk.n), rng.randrange(mk.n)
        assert mk._basis_product(i, j) == fibered_product_oracle(mk, i, j)


@pytest.mark.parametrize("name", ["C4", "S3", "D8"])
def test_the_slice_memo_does_not_depend_on_the_order_of_requests(name, ws):
    # two fresh algebras fill their slice memos in opposite orders
    pairs = [(i, j) for i in range(ws.mackey(name).n) for j in range(ws.mackey(name).n)]
    forward, backward = MackeyAlgebra(ws.table(name)), MackeyAlgebra(ws.table(name))
    ahead = [forward._basis_product(i, j) for i, j in pairs]
    behind = [backward._basis_product(i, j) for i, j in reversed(pairs)]
    assert ahead == behind[::-1]
    assert forward._slices == backward._slices


def associator_sides(mk, i, j, k):
    """(i j) k and i (j k) from the sparse basis products, as {span: count}."""
    left, right = {}, {}
    for m, c in mk._basis_product(i, j):
        for t, d in mk._basis_product(m, k):
            left[t] = left.get(t, 0) + c * d
    for m, c in mk._basis_product(j, k):
        for t, d in mk._basis_product(i, m):
            right[t] = right.get(t, 0) + c * d
    return left, right


@pytest.mark.parametrize("name", ["C2", "C3"])
def test_associativity_exhaustive(name, ws):
    mk = ws.mackey(name)
    for i in range(mk.n):
        for j in range(mk.n):
            for k in range(mk.n):
                left, right = associator_sides(mk, i, j, k)
                assert left == right


def test_associativity_s3_sampled(ws):
    mk = ws.mackey("S3")
    rng = random.Random(1)
    for _ in range(300):
        i, j, k = (rng.randrange(mk.n) for _ in range(3))
        left, right = associator_sides(mk, i, j, k)
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
        assert is_central(mk, mk.element(vec, F4))


def test_identity_is_central(ws):
    for name in ["C2", "C3", "S3"]:
        mk = ws.mackey(name)
        assert is_central(mk, mk.one(QQ))


def test_center_vectors_commute(ws):
    mk = ws.mackey("C3")
    for vec in mk.center_basis(QQ):
        assert is_central(mk, mk.element(vec, QQ))


@pytest.mark.parametrize("name", ["C4", "V4", "S3"])
@pytest.mark.parametrize("scalar", [QQ, F2])
def test_is_central_matches_the_every_span_commutator(name, scalar, ws):
    """The integer commutator, read over the scalar ring as verify reads it,
    against the oracle is_central, which sums in the scalar ring itself."""
    mk = ws.mackey(name)
    central = mk.center_basis(QQ) if scalar == QQ else [[int(c) for c in v] for v in mk.center_basis(scalar)]
    spans = [[int(k == a) for k in range(mk.n)] for a in mk.generator_spans()]
    verdicts = [_vanishes(mk.commutator({i: c for i, c in enumerate(x) if c}), scalar) for x in central + spans]
    assert verdicts == [is_central(mk, mk.element(x, scalar)) for x in central + spans]
    assert all(verdicts[: len(central)]) and not all(verdicts[len(central) :])


# -- the central span image of the crossed ring ------------------------------------------


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
@pytest.mark.parametrize("scalar", [QQ, F2])
def test_zeta_unital(name, scalar, ws):
    mk = ws.mackey(name)
    xr = ws.crossed(name)
    assert zeta(mk, xr, xr.one(), scalar).coeffs == mk.one(scalar).coeffs


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
def test_zeta_lands_in_center(name, ws):
    mk = ws.mackey(name)
    xr = ws.crossed(name)
    for i in range(xr.n):
        assert is_central(mk, zeta(mk, xr, xr.basis_element(i), QQ))


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
@pytest.mark.parametrize("scalar", [QQ, F2, F3])
def test_zeta_ring_homomorphism(name, scalar, ws):
    mk = ws.mackey(name)
    xr = ws.crossed(name)
    imgs = [zeta(mk, xr, xr.basis_element(i), scalar) for i in range(xr.n)]
    for i in range(xr.n):
        for j in range(xr.n):
            lhs = zeta(mk, xr, xr.basis_element(i) * xr.basis_element(j), scalar)
            assert lhs.coeffs == mk.multiply(imgs[i], imgs[j]).coeffs


def test_zeta_rank_versus_center_dimension(ws):
    # the image spans the center for the cyclic groups but misses one
    # central direction for the smallest nonabelian group
    for name, expect_rank, expect_dim in [("C2", 3, 3), ("C3", 4, 4), ("S3", 6, 7)]:
        mk = ws.mackey(name)
        xr = ws.crossed(name)
        for scalar in (QQ, F2):
            imgs = [zeta(mk, xr, xr.basis_element(i), scalar) for i in range(xr.n)]
            rank = rank_field([z.coeffs for z in imgs], scalar)
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
    mk = ws.mackey(name)
    G = ws.group(name)
    total = 0
    for H in mk.subgroups:
        for K in mk.subgroups:
            total += len(double_cosets(G, H, K)[0])
    assert HeckeAlgebra(mk).n == total


def hecke_dimension_by_sweep(mk):
    """Number of G-orbits on Omega x Omega, each orbit one sweep over all of G."""
    G = mk.group
    seen, count = set(), 0
    for x in range(mk.npoints):
        for y in range(mk.npoints):
            if (x, y) not in seen:
                count += 1
                seen |= {(mk.act[g][x], mk.act[g][y]) for g in range(G.order)}
    return count


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs())
def test_span_and_hecke_counts_match_sweeps_on_random_groups(spec):
    mk = MackeyAlgebra(SubgroupClassTable(small_group(spec, max_order=24)))
    assert mk.n == mk.orbit_count_formula()
    assert HeckeAlgebra(mk).n == hecke_dimension_by_sweep(mk)


def test_hecke_operators_are_equivariant(ws):
    mk = ws.mackey("C2")
    hk = HeckeAlgebra(mk)
    G = ws.group("C2")
    for k in range(hk.n):
        op = orbit_operator(hk, k)
        for g in range(G.order):
            assert {(mk.act[g][y], mk.act[g][x]) for (y, x) in op} == set(op)


def test_projection_of_identity(ws):
    mk = ws.mackey("S3")
    assert read(mk.project_matrix, mk.one()) == identity_operator(mk.npoints, ZZ)


def assert_projection_multiplicative(mk, i, j, scalar):
    """project(i . j) = project(i) project(j), sparse over Z and against the
    dense product over the scalar ring."""
    lhs = combine(mk.product(i, j), lambda k: mk.project_matrix(k).items())
    assert lhs == sparse_mat_mul(mk.project_matrix(i), mk.project_matrix(j))
    lhs, a, b = (over(op, scalar) for op in (lhs, mk.project_matrix(i), mk.project_matrix(j)))
    n = mk.npoints
    assert dense(lhs, n, scalar) == mat_mul(dense(a, n, scalar), dense(b, n, scalar), scalar)


@pytest.mark.parametrize("name", ["C2", "C3"])
@pytest.mark.parametrize("scalar", [QQ, F2])
def test_projection_is_algebra_homomorphism(name, scalar, ws):
    mk = ws.mackey(name)
    for i in range(mk.n):
        for j in range(mk.n):
            assert_projection_multiplicative(mk, i, j, scalar)


def test_projection_is_algebra_homomorphism_s3_sampled(ws):
    mk = ws.mackey("S3")
    rng = random.Random(2)
    for _ in range(60):
        assert_projection_multiplicative(mk, rng.randrange(mk.n), rng.randrange(mk.n), QQ)


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
def test_projection_surjective_onto_hecke(name, ws):
    mk = ws.mackey(name)
    hk = HeckeAlgebra(mk)
    n = mk.npoints
    vecs = [
        [v for row in dense(over(mk.project_matrix(i), QQ), n, QQ) for v in row]
        for i in range(mk.n)
    ]
    assert rank_field(vecs, QQ) == hk.n


# -- the center embedding and the commuting square ---------------------------------------------


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
@pytest.mark.parametrize("scalar", [QQ, F2])
def test_center_embedding_is_unital_ring_homomorphism(name, scalar, ws):
    mk = ws.mackey(name)
    Z = ws.center(name)
    sums = Z.class_sums(ZZ)
    assert over(read(mk.iota_row, Z.one()), scalar) == identity_operator(mk.npoints, scalar)
    n = mk.npoints
    ops = [mk.iota_row(k) for k in range(Z.n)]
    for i in range(Z.n):
        for j in range(Z.n):
            lhs = read(mk.iota_row, Z.multiply(sums[i], sums[j]))
            assert lhs == sparse_mat_mul(ops[i], ops[j])
            a, b = over(ops[i], scalar), over(ops[j], scalar)
            rhs = mat_mul(dense(a, n, scalar), dense(b, n, scalar), scalar)
            assert dense(over(lhs, scalar), n, scalar) == rhs


def test_center_embedding_lands_in_hecke_center(ws):
    mk = ws.mackey("C2")
    Z = ws.center("C2")
    hk = HeckeAlgebra(mk)
    t_sum = Z.class_sums(ZZ)[1]
    op = read(mk.iota_row, t_sum)
    for k in range(hk.n):
        m = orbit_operator(hk, k)
        assert sparse_mat_mul(op, m) == sparse_mat_mul(m, op)
    assert sparse_mat_mul(op, op) == read(mk.iota_row, Z.multiply(t_sum, t_sum))


@pytest.mark.parametrize("name", ["C2", "C3", "S3"])
@pytest.mark.parametrize("scalar", [QQ, F2, F3])
def test_square_commutes_on_every_crossed_basis_element(name, scalar, ws):
    mk = ws.mackey(name)
    xr = ws.crossed(name)
    Z = ws.center(name)
    for i in range(xr.n):
        rho = Z.from_group_algebra(xr.mark_rows(0)[i], ZZ)
        lhs = read(mk.project_matrix, zeta(mk, xr, xr.basis_element(i), ZZ))
        assert over(lhs, scalar) == over(read(mk.iota_row, rho), scalar)


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
            for row in dense(
                over(read(mk.project_matrix, zeta(mk, xr, xr.basis_element(i), ZZ)), scalar),
                mk.npoints,
                scalar,
            )
            for v in row
        ]
        for i in range(xr.n)
    ]
    assert rank_field(comp, scalar) == dim_zy
