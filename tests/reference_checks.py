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

The oracles of verify-all run on plain ints; their earlier forms are kept
here as references: the orbit oracle on tuple points (tuple_orbit_product),
the flat-point oracle split by groups.orbits (flat_orbit_product), the
convolution over Q (convolution_failures_over_q), the block scan in
the field's own operations (field_block_scan), the Dress and rational
idempotents as sums of from_marks pullbacks (fraction_dress_idempotents,
fraction_rational_idempotents), the dense idempotent-family check
(dense_idempotent_family), and the two group checks that conjugate every
representative by all of G once per case (conjugation_checks).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from random import Random

import reference_maps as walks
from dense_linalg import operator_product
from reference_groups import fixed_cosets, left_cosets

from motive_ring.algebra import Element, combine
from motive_ring.center import CenterAlgebra, counted_structure_constants, ga_mul
from motive_ring.groups import orbits
from motive_ring.linalg import integer_rank
from motive_ring.mackey import HeckeAlgebra
from motive_ring.scalars import QQ, ZZ, ScalarError, p_local
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

    This is the oracle for center membership: it tests the whole basis,
    not the generator_spans that center_basis relies on.  x b - b x is
    summed in x's own scalar ring over every support span of x, with no
    filter on the legs, so it shares no code with the integer
    MackeyAlgebra.commutator that verify reads over each scalar ring.
    """
    s = x.scalar
    support = [(i, a) for i, a in enumerate(x.coeffs) if not s.is_zero(a)]
    for j in range(mk.n):
        diff: dict = {}
        for i, a in support:
            for k, c in mk.product(i, j):
                diff[k] = s.add(diff.get(k, s.zero), s.mul_int(a, c))
            for k, c in mk.product(j, i):
                diff[k] = s.sub(diff.get(k, s.zero), s.mul_int(a, c))
        if not all(s.is_zero(v) for v in diff.values()):
            return False
    return True


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
            return lhs == operator_product(walks.project(mk, x), walks.project(mk, y), mk.npoints, scalar)

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
                    if lhs != operator_product(iota_ops[i], iota_ops[j], mk.npoints, scalar):
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


# -- the oracles of verify-all, before they ran on plain ints -------------------


def tuple_orbit_product(xring, i: int, j: int) -> tuple[tuple[int, int], ...]:
    """CrossedBurnsideRing.basis_product_oracle on (x, y) tuple points,
    split into orbits by groups.orbits with one act call per point."""
    G = xring.group
    pi, pj = xring.pairs[i], xring.pairs[j]
    H = xring.table.classes[pi.subgroup_class].representative
    K = xring.table.classes[pj.subgroup_class].representative
    a, b = pi.label, pj.label
    reps_h, reps_k = left_cosets(G, H), left_cosets(G, K)
    where_h = {G.mul(r, h): x for x, r in enumerate(reps_h) for h in H}
    where_k = {G.mul(r, k): y for y, r in enumerate(reps_k) for k in K}
    gens = [
        ([where_h[G.mul(g, r)] for r in reps_h], [where_k[G.mul(g, r)] for r in reps_k])
        for g in G.generator_indices
    ]
    points = [(x, y) for x in range(len(reps_h)) for y in range(len(reps_k))]
    counts: dict[int, int] = {}
    for orbit in orbits(points, gens, lambda g, p: (g[0][p[0]], g[1][p[1]])):
        x0, y0 = orbit[0]
        rx, ry = reps_h[x0], reps_k[y0]
        stab = G.conjugate_subgroup(rx, H) & G.conjugate_subgroup(ry, K)
        label = G.mul(G.conj(rx, a), G.conj(ry, b))
        k = xring.canonical_pair(stab, label)
        counts[k] = counts.get(k, 0) + 1
    return tuple(sorted(counts.items()))


def flat_orbit_product(xring, i: int, j: int) -> tuple[tuple[int, int], ...]:
    """CrossedBurnsideRing.basis_product_oracle on the flat points
    x |G/K| + y, split into orbits by groups.orbits with the generators as
    permutation lists."""
    G = xring.group
    pi, pj = xring.pairs[i], xring.pairs[j]
    H = xring.table.classes[pi.subgroup_class].representative
    K = xring.table.classes[pj.subgroup_class].representative
    a, b = pi.label, pj.label
    reps_h, reps_k = left_cosets(G, H), left_cosets(G, K)
    where_h = {G.mul(r, h): x for x, r in enumerate(reps_h) for h in H}
    where_k = {G.mul(r, k): y for y, r in enumerate(reps_k) for k in K}
    nk = len(reps_k)
    perms = []
    for g in G.generator_indices:
        on_k = [where_k[G.mul(g, r)] for r in reps_k]
        perms.append([where_h[G.mul(g, r)] * nk + y for r in reps_h for y in on_k])
    counts: dict[int, int] = {}
    for orbit in orbits(range(len(reps_h) * nk), perms, list.__getitem__):
        rx, ry = reps_h[orbit[0] // nk], reps_k[orbit[0] % nk]
        stab = G.conjugate_subgroup(rx, H) & G.conjugate_subgroup(ry, K)
        label = G.mul(G.conj(rx, a), G.conj(ry, b))
        k = xring.canonical_pair(stab, label)
        counts[k] = counts.get(k, 0) + 1
    return tuple(sorted(counts.items()))


def convolution_failures_over_q(Z):
    """center-multiplication-matches-convolution on the class sums over Q."""
    sums = Z.class_sums(QQ)
    for i in range(Z.n):
        for j in range(Z.n):
            if Z.multiply(sums[i], sums[j]).coeffs != Z.multiply_oracle(sums[i], sums[j]).coeffs:
                yield f"structure constants disagree with convolution at ({i},{j})"
    if Z.multiply(Z.one(QQ), sums[0]).coeffs != sums[0].coeffs:
        yield "identity class sum is not the unit"


def field_block_scan(Z, field) -> list[Element]:
    """center.block_scan_oracle with every quadratic form evaluated in the
    field's own operations (ScalarRing add, mul and mul_int)."""
    n = Z.n
    counts = counted_structure_constants(Z.group)
    bilinear: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    folded: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    for (i, j, k), c in counts.items():
        bilinear[k].append((i, j, c))
        key = (min(i, j), max(i, j))
        folded[k][key] = folded[k].get(key, 0) + c
    forms = [[(i, j, c) for (i, j), c in form.items() if c % field.p] for form in folded]

    def value(rows, x, y):
        acc = field.zero
        for i, j, c in rows:
            acc = field.add(acc, field.mul_int(field.mul(x[i], y[j]), c))
        return acc

    zero = (field.zero,) * n
    idems = [
        x
        for x in product(field.elements(), repeat=n)
        if x != zero and all(value(rows, x, x) == x[k] for k, rows in enumerate(forms))
    ]

    def below(f, e):
        return all(value(rows, e, f) == f[k] for k, rows in enumerate(bilinear))

    minimal = [e for e in idems if not any(f != e and below(f, e) for f in idems)]
    return [Element(Z, field, e) for e in sorted(minimal)]


def fraction_rational_idempotents(ring) -> list[Element]:
    """The basic rational idempotents, one from_marks pullback each."""
    return [ring.from_marks([int(j == i) for j in range(ring.n)], QQ) for i in range(ring.n)]


def fraction_dress_idempotents(ring, mode) -> list[tuple[int, Element]]:
    """BurnsideRing.dress_idempotents as Fraction sums of the basic rational
    idempotents over each residual fiber."""
    scalar = ZZ if mode == "solvable" else p_local(mode)
    rational = fraction_rational_idempotents(ring)
    fibers = ring.table.residual_fiber_classes(mode)
    out = []
    for j in sorted(fibers):
        coeffs = [Fraction(0)] * ring.n
        for i in fibers[j]:
            coeffs = [a + b for a, b in zip(coeffs, rational[i].coeffs)]
        try:
            out.append((j, ring.element(coeffs, scalar)))
        except ScalarError as exc:
            raise RuntimeError(f"residual idempotent for class {j} not in {scalar.tag}") from exc
    return out


def dense_idempotent_family(algebra, family) -> tuple[bool, bool, bool]:
    """Algebra.idempotent_family on dense elements: over Q and Z_(p) scaled
    once to Z by the lcm d of the denominators, then E E = d E, E F = 0 and
    sum E = d 1 by Algebra.multiply."""
    scalar = family[0].scalar
    for e in family:
        algebra._check(e, scalar)
    d = 1
    if all(isinstance(c, Fraction) for e in family for c in e.coeffs):
        d = lcm(*(c.denominator for e in family for c in e.coeffs))
        scalar = ZZ
        family = [
            Element(algebra, ZZ, tuple(c.numerator * (d // c.denominator) for c in e.coeffs))
            for e in family
        ]

    def times_d(x: Element) -> tuple:
        return tuple(scalar.mul_int(c, d) for c in x.coeffs)

    total = algebra.zero(scalar)
    for e in family:
        total = total + e
    idempotent = all((e * e).coeffs == times_d(e) for e in family)
    orthogonal = all((e * f).is_zero() for a, e in enumerate(family) for f in family[a + 1 :])
    return idempotent, orthogonal, total.coeffs == times_d(algebra.one(scalar))


def conjugation_checks(table) -> list[Check]:
    """normalizer-is-stabilizer and fixed-points-iff-subconjugate of
    verify.group_checks, each conjugating the representatives by every
    element of G in every case."""
    G = table.group

    def normalizer_failures():
        for cls in table.classes:
            for n in cls.normalizer:
                if G.conjugate_subgroup(n, cls.representative) != cls.representative:
                    yield f"class {cls.name}: normalizer element {G.element_string(n)} moves the subgroup"
            for g in range(G.order):
                inside = G.conjugate_subgroup(g, cls.representative) == cls.representative
                if inside != (g in cls.normalizer):
                    yield f"class {cls.name}: stabilizer mismatch at {G.element_string(g)}"

    return [
        _check("normalizer-is-stabilizer", normalizer_failures()),
        _check("fixed-points-iff-subconjugate", (
            f"fixed cosets vs subconjugacy mismatch for ({a.name},{b.name})"
            for a in table.classes
            for b in table.classes
            if bool(fixed_cosets(G, a.representative, b.representative))
            != any(G.conjugate_subgroup(g, a.representative) <= b.representative for g in range(G.order))
        )),
    ]
