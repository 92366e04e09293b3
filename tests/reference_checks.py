"""The ring and comparison-map checks evaluated on dense elements, for
the tests only.

verify decides each identity between the comparison maps once over Z,
from their integer rows and the sparse products, and reads every scalar's
verdict off the integer result.  This module keeps the direct evaluation
as the reference: every identity is computed again on dense Element
tuples with Algebra.multiply, the maps by the per-element walks of
reference_maps, with the same samples drawn from rng in the same order,
the same check names and the same failure details.  mackey_map_checks
does so in each scalar ring and is called after verify.span_checks, which
draws first; burnside_ring_checks, crossed_ring_checks and
augmentation_check cover the checks of the marks and of the center image
in burnside_checks, crossed_checks and center_checks.
crossed_axiom_failures is the same kind of reference for the unit and
associativity of verify.crossed_checks, and associative the per-triple
reference for the one-pass associativity of both algebras
(verify._nonassociative).  is_central is the center-membership test on a
dense element.
"""

from __future__ import annotations

from random import Random

import reference_maps as walks

from motive_ring.algebra import combine
from motive_ring.center import CenterAlgebra, ga_mul
from motive_ring.linalg import integer_rank, sparse_mat_mul
from motive_ring.mackey import HeckeAlgebra
from motive_ring.scalars import QQ, ZZ
from motive_ring.verify import (
    EXHAUSTIVE_PAIR_ORDER,
    EXHAUSTIVE_TRIPLE_ORDER,
    SAMPLE_SIZE,
    Check,
    _check,
    _flat,
    _pairs,
    _triples,
    hecke_center_dimension,
)


def is_central(mk, x) -> bool:
    """True if x commutes with every basis span of mk.

    This is the oracle for center membership: it tests the whole basis
    (MackeyAlgebra.commutator), not the generator_spans that center_basis
    relies on.
    """
    s = x.scalar
    return not mk.commutator({i: a for i, a in enumerate(x.coeffs) if not s.is_zero(a)}, s)


def mackey_map_checks(mk, xr, scalars, rng: Random) -> list[Check]:
    """The checks of verify.mackey_checks after its span checks, one scalar
    ring at a time."""
    checks = []
    Z = CenterAlgebra(mk.table.group)
    hk = HeckeAlgebra(mk)
    # zeta, pi o zeta, pi and iota of the basis elements over Z, walked
    zeta_zz = [walks.crossed_to_mackey_center(mk, xr, xr.basis_element(i, ZZ)) for i in range(xr.n)]
    proj_rows = [_flat(walks.project(mk, mk.basis_element(i, ZZ)), mk.npoints) for i in range(mk.n)]
    comp_rows = [_flat(walks.project(mk, z), mk.npoints) for z in zeta_zz]
    iota_rows = [_flat(walks.center_to_hecke(mk, Z, z), mk.npoints) for z in Z.class_sums(ZZ)]
    for scalar in scalars:
        tag = scalar.tag
        zimgs = [mk.element(z.coeffs, scalar) for z in zeta_zz]

        ok = walks.crossed_to_mackey_center(mk, xr, xr.one(scalar)).coeffs == mk.one(scalar).coeffs
        checks.append(Check(f"zeta-unital[{tag}]", ok))

        checks.append(_check(f"zeta-lands-in-center[{tag}]", (
            f"image of {xr.pairs[i].name} not central"
            for i in (rng.sample(range(xr.n), min(xr.n, 6)) if xr.n > 8 else range(xr.n))
            if not is_central(mk, zimgs[i])
        )))

        def zeta_multiplicative(i, j):
            x, y = xr.basis_element(i, scalar), xr.basis_element(j, scalar)
            lhs = walks.crossed_to_mackey_center(mk, xr, xr.multiply(x, y))
            return lhs.coeffs == mk.multiply(zimgs[i], zimgs[j]).coeffs

        checks.append(_check(f"zeta-ring-homomorphism[{tag}]", (
            f"multiplicativity fails on ({xr.pairs[i].name},{xr.pairs[j].name})"
            for i, j in _pairs(xr.n, xr.n <= 10, rng)
            if not zeta_multiplicative(i, j)
        )))

        def projection_multiplicative(i, j):
            x, y = mk.basis_element(i, scalar), mk.basis_element(j, scalar)
            lhs = walks.project(mk, mk.multiply(x, y))
            return lhs == sparse_mat_mul(walks.project(mk, x), walks.project(mk, y), scalar)

        checks.append(_check(f"projection-algebra-homomorphism[{tag}]", (
            f"projection not multiplicative on spans ({i},{j})"
            for i, j in _pairs(mk.n, mk.n <= 30, rng)
            if not projection_multiplicative(i, j)
        )))

        proj_rank = integer_rank(proj_rows, scalar)
        checks.append(_check(
            f"projection-onto-hecke[{tag}]", [] if proj_rank == hk.n else [f"rank {proj_rank}, dim {hk.n}"]
        ))

        def diagram_commutes(i):
            zc = Z.from_group_algebra(walks.center_image(xr, xr.basis_element(i, scalar)), scalar)
            return walks.project(mk, zimgs[i]) == walks.center_to_hecke(mk, Z, zc)

        checks.append(_check(f"projection-of-zeta-is-hecke-image-of-rho[{tag}]", (
            f"diagram fails on {xr.pairs[i].name}" for i in range(xr.n) if not diagram_commutes(i)
        )))

        def embedding_failures():
            sums = Z.class_sums(scalar)
            iota_ops = [walks.center_to_hecke(mk, Z, z) for z in sums]
            if walks.center_to_hecke(mk, Z, Z.one(scalar)) != {(a, a): scalar.one for a in range(mk.npoints)}:
                yield "unit not preserved"
            for i in range(Z.n):
                for j in range(Z.n):
                    lhs = walks.center_to_hecke(mk, Z, Z.multiply(sums[i], sums[j]))
                    if lhs != sparse_mat_mul(iota_ops[i], iota_ops[j], scalar):
                        yield f"center embedding not multiplicative on classes ({i},{j})"

        checks.append(_check(f"center-embedding-ring-homomorphism[{tag}]", embedding_failures()))

        # composite image spans the center of the Hecke algebra
        zy = hecke_center_dimension(mk, hk, scalar)
        comp_rank = integer_rank(comp_rows, scalar)
        iota_rank = integer_rank(iota_rows, scalar)
        checks.append(_check(f"hecke-center-reached[{tag}]", [] if comp_rank == iota_rank == zy else [
            f"dim Z(hecke) {zy}, composite rank {comp_rank}, embedding rank {iota_rank}"
        ]))

    return checks


def burnside_ring_checks(ring, rng: Random) -> list[Check]:
    """marks-ring-homomorphism of verify.burnside_checks, the only draws
    of that suite: the marks of b_i b_j over Q against the products of
    the marks of b_i and b_j."""
    table = ring.table

    def multiplicative(i, j):
        x, y = ring.basis_element(i, QQ), ring.basis_element(j, QQ)
        return ring.marks(x * y) == tuple(a * b for a, b in zip(ring.marks(x), ring.marks(y)))

    return [_check("marks-ring-homomorphism", (
        f"marks not multiplicative on ({table.classes[i].name},{table.classes[j].name})"
        for i, j in _pairs(ring.n, ring.group.order <= EXHAUSTIVE_PAIR_ORDER, rng)
        if not multiplicative(i, j)
    ))]


def crossed_ring_checks(xring, rng: Random) -> list[Check]:
    """The five checks of verify.crossed_checks on the crossed marks and
    the center image, in its order and with its draws: the draws of the
    product-oracle and axiom checks before them are made and discarded."""
    G, table, n, names = xring.group, xring.table, xring.n, xring.labels
    exhaustive = G.order <= EXHAUSTIVE_PAIR_ORDER
    _pairs(n, exhaustive, rng)  # crossed-product-matches-orbit-oracle
    _pairs(n, exhaustive, rng)  # crossed-ring-axioms: commutativity
    _triples(n, G.order <= EXHAUSTIVE_TRIPLE_ORDER, rng)  # and associativity

    def marks(x):
        return walks.crossed_marks(xring, x)

    def image(x):
        return walks.center_image(xring, x)

    def marks_multiplicative(i, j):
        x, y = xring.basis_element(i), xring.basis_element(j)
        return marks(x * y) == tuple(ga_mul(G, a, b, ZZ) for a, b in zip(marks(x), marks(y)))

    def image_multiplicative(i, j):
        x, y = xring.basis_element(i), xring.basis_element(j)
        return image(x * y) == ga_mul(G, image(x), image(y), ZZ)

    def square_failures():
        for i in range(n):
            x = xring.basis_element(i)
            if tuple(sum(c.values()) for c in marks(x)) != xring.burnside.marks(xring.forget_labels(x)):
                yield f"augmentation square fails on {names[i]}"
        for k in range(len(table)):
            b = xring.burnside.basis_element(k)
            lifted = tuple({0: m} if m else {} for m in xring.burnside.marks(b))
            if marks(xring.with_identity_labels(b)) != lifted:
                yield f"lift square fails on {table.classes[k].name}"

    def component_failures():
        sample = range(n) if n <= 30 else [rng.randrange(n) for _ in range(SAMPLE_SIZE)]
        for i in sample:
            ghost = marks(xring.basis_element(i))
            for k, cls in enumerate(table.classes):
                comp = ghost[k]
                for c in sorted(cls.centralizer):
                    if {G.conj(c, t): v for t, v in comp.items()} != comp:
                        yield f"component {cls.name} of marks({names[i]}) not central"
                for nrm in G.small_generating_set(cls.normalizer) or [0]:
                    if {G.conj(nrm, t): v for t, v in comp.items()} != comp:
                        yield f"component {cls.name} of marks({names[i]}) not normalizer-stable"

    def integral_image_failures():
        for j, e in xring.dress_idempotents("solvable"):
            img = image(e)
            if img != ({} if table.classes[j].order > 1 else {0: 1}):
                yield f"center image of the {table.classes[j].name} idempotent is {img}"

    return [
        _check("crossed-marks-ring-homomorphism", (
            f"crossed marks not multiplicative on ({names[i]},{names[j]})"
            for i, j in _pairs(n, exhaustive, rng)
            if not marks_multiplicative(i, j)
        )),
        _check("mark-squares-commute", square_failures()),
        _check("ghost-components-central-and-stable", component_failures()),
        _check("center-image-ring-homomorphism", (
            f"center image not multiplicative on ({names[i]},{names[j]})"
            for i, j in _pairs(n, exhaustive, rng)
            if not image_multiplicative(i, j)
        )),
        _check("center-image-of-integral-idempotents", integral_image_failures()),
    ]


def augmentation_check(xring) -> Check:
    """augmentation-counts-points of verify.center_checks: the coefficient
    sum of the center image of each basis pair [D,a] is |G:D|."""

    def failures():
        for i, pair in enumerate(xring.pairs):
            points = xring.group.order // xring.table.classes[pair.subgroup_class].order
            if sum(walks.center_image(xring, xring.basis_element(i)).values()) != points:
                yield f"augmentation of the image of {pair.name} is not {points}"

    return _check("augmentation-counts-points", failures())


def crossed_axiom_failures(xring, triples):
    """Unit and associativity of the crossed ring with dense products, in
    the order and with the messages of crossed-ring-axioms (its
    commutativity cases, which read the products directly, are left out)."""
    names = xring.labels
    one = xring.one()
    for i in range(xring.n):
        b = xring.basis_element(i)
        if (one * b).coeffs != b.coeffs or (b * one).coeffs != b.coeffs:
            yield f"unit fails on {names[i]}"
    for i, j, k in triples:
        bi, bj, bk = (xring.basis_element(t) for t in (i, j, k))
        if ((bi * bj) * bk).coeffs != (bi * (bj * bk)).coeffs:
            yield f"associativity fails on ({i},{j},{k})"


def associative(algebra, i: int, j: int, k: int) -> bool:
    """(b_i b_j) b_k = b_i (b_j b_k) for one triple, through the sparse
    products."""
    left = combine(algebra.product(i, j), lambda m: algebra.product(m, k))
    return left == combine(algebra.product(j, k), lambda m: algebra.product(i, m))
