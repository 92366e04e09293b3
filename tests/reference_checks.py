"""The Mackey comparison-map checks evaluated per scalar ring on dense
elements, for the tests only.

verify.mackey_checks decides each integer identity once over Z and reads
every scalar's verdict off the integer defect.  This module keeps the
direct evaluation as the reference: every identity is computed again in
each scalar ring with Algebra.multiply on dense Element tuples, with the
same samples drawn from rng in the same order, the same check names and
the same failure details.  It is called after verify.span_checks, which
draws first.  crossed_axiom_failures is the same kind of reference for
the unit and associativity of verify.crossed_checks, and associative the
per-triple reference for the one-pass associativity of both algebras
(verify._nonassociative).  is_central is the center-membership test on a
dense element.
"""

from __future__ import annotations

from random import Random

from motive_ring.center import CenterAlgebra
from motive_ring.linalg import integer_rank, sparse_mat_mul
from motive_ring.mackey import HeckeAlgebra, center_to_hecke, crossed_to_mackey_center
from motive_ring.scalars import ZZ
from motive_ring.verify import Check, _check, _combine, _flat, _pairs, hecke_center_dimension


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
    # the integer rows of zeta, pi o zeta, pi and iota, read over each scalar
    zeta_zz = [crossed_to_mackey_center(mk, xr, xr.basis_element(i, ZZ)) for i in range(xr.n)]
    proj_rows = [_flat(mk.project_matrix(i), mk.npoints) for i in range(mk.n)]
    comp_rows = [_flat(mk.project(z), mk.npoints) for z in zeta_zz]
    iota_rows = [_flat(mk.iota_row(k), mk.npoints) for k in range(Z.n)]
    for scalar in scalars:
        tag = scalar.tag
        zimgs = [mk.element(z.coeffs, scalar) for z in zeta_zz]

        ok = crossed_to_mackey_center(mk, xr, xr.one(scalar)).coeffs == mk.one(scalar).coeffs
        checks.append(Check(f"zeta-unital[{tag}]", ok))

        checks.append(_check(f"zeta-lands-in-center[{tag}]", (
            f"image of {xr.pairs[i].name} not central"
            for i in (rng.sample(range(xr.n), min(xr.n, 6)) if xr.n > 8 else range(xr.n))
            if not is_central(mk, zimgs[i])
        )))

        def zeta_multiplicative(i, j):
            x, y = xr.basis_element(i, scalar), xr.basis_element(j, scalar)
            lhs = crossed_to_mackey_center(mk, xr, xr.multiply(x, y))
            return lhs.coeffs == mk.multiply(zimgs[i], zimgs[j]).coeffs

        checks.append(_check(f"zeta-ring-homomorphism[{tag}]", (
            f"multiplicativity fails on ({xr.pairs[i].name},{xr.pairs[j].name})"
            for i, j in _pairs(xr.n, xr.n <= 10, rng)
            if not zeta_multiplicative(i, j)
        )))

        def projection_multiplicative(i, j):
            x, y = mk.basis_element(i, scalar), mk.basis_element(j, scalar)
            return mk.project(mk.multiply(x, y)) == sparse_mat_mul(mk.project(x), mk.project(y), scalar)

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
            zc = Z.from_group_algebra(xr.center_image(xr.basis_element(i, scalar)), scalar)
            return mk.project(zimgs[i]) == center_to_hecke(mk, Z, zc)

        checks.append(_check(f"projection-of-zeta-is-hecke-image-of-rho[{tag}]", (
            f"diagram fails on {xr.pairs[i].name}" for i in range(xr.n) if not diagram_commutes(i)
        )))

        def embedding_failures():
            sums = Z.class_sums(scalar)
            iota_ops = [center_to_hecke(mk, Z, z) for z in sums]
            if center_to_hecke(mk, Z, Z.one(scalar)) != {(a, a): scalar.one for a in range(mk.npoints)}:
                yield "unit not preserved"
            for i in range(Z.n):
                for j in range(Z.n):
                    lhs = center_to_hecke(mk, Z, Z.multiply(sums[i], sums[j]))
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
    left = _combine(algebra.product(i, j), lambda m: algebra.product(m, k))
    return left == _combine(algebra.product(j, k), lambda m: algebra.product(i, m))
