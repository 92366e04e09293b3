"""Named invariant checks, shared by the CLI verify commands and the tests.

Each suite returns Check records; a failing check carries a minimal
reproducer in its detail field.  Exhaustive where the group is small,
seeded sampling above that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .burnside import BurnsideRing
from .center import CenterAlgebra, augmentation as ga_augmentation, block_scan_oracle, blocks_mod_p, blocks_in_rho_span, ga_equal, ga_mul
from .crossed import CrossedBurnsideRing
from .groups import FiniteGroup, double_cosets, fixed_cosets
from .linalg import integer_kernel, rank_rational
from .mackey import (
    HeckeAlgebra,
    MackeyAlgebra,
    center_to_hecke,
    crossed_to_mackey_center,
    mat_mul_scalar,
    span_rank,
)
from .scalars import QQ, ZZ, ScalarRing, prime_field
from .subgroups import SubgroupClassTable, prime_divisors

EXHAUSTIVE_PAIR_ORDER = 24
EXHAUSTIVE_TRIPLE_ORDER = 12
SAMPLE_SIZE = 40


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def as_json(self) -> dict:
        doc = {"name": self.name, "pass": self.passed}
        if self.detail:
            doc["detail"] = self.detail
        return doc


def _pairs(n: int, exhaustive: bool, rng: Random):
    if exhaustive:
        return [(i, j) for i in range(n) for j in range(n)]
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(SAMPLE_SIZE)]


def _triples(n: int, exhaustive: bool, rng: Random):
    if exhaustive:
        return [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    return [
        (rng.randrange(n), rng.randrange(n), rng.randrange(n))
        for _ in range(SAMPLE_SIZE)
    ]


# -- group-core ---------------------------------------------------------------


def group_checks(table: SubgroupClassTable, rng: Random) -> list[Check]:
    G = table.group
    checks = []

    bad = ""
    for cls in table.classes:
        for c in cls.centralizer:
            for h in cls.representative:
                if G.mul(c, h) != G.mul(h, c):
                    bad = f"class {cls.name}: element {G.element_string(c)} does not commute with {G.element_string(h)}"
    checks.append(Check("centralizer-commutes", not bad, bad))

    bad = ""
    for cls in table.classes:
        for n in cls.normalizer:
            if G.conjugate_subgroup(n, cls.representative) != cls.representative:
                bad = f"class {cls.name}: normalizer element {G.element_string(n)} moves the subgroup"
        for g in range(G.order):
            inside = G.conjugate_subgroup(g, cls.representative) == cls.representative
            if inside != (g in cls.normalizer):
                bad = f"class {cls.name}: stabilizer mismatch at {G.element_string(g)}"
    checks.append(Check("normalizer-is-stabilizer", not bad, bad))

    bad = ""
    sample = range(G.order) if G.order <= EXHAUSTIVE_PAIR_ORDER else [
        rng.randrange(G.order) for _ in range(SAMPLE_SIZE)
    ]
    for cls in table.classes:
        for g in sample:
            K = G.conjugate_subgroup(g, cls.representative)
            idx, conj = table.fusion(K)
            if idx != cls.index:
                bad = f"conjugate of {cls.name} by {G.element_string(g)} fused to class {idx}"
            if G.conjugate_subgroup(conj, K) != cls.representative:
                bad = f"fusion conjugator wrong for {cls.name} at {G.element_string(g)}"
    checks.append(Check("fusion-conjugates", not bad, bad))

    bad = ""
    for a in range(len(table.classes)):
        for b in range(len(table.classes)):
            H = table.classes[a].representative
            K = table.classes[b].representative
            _, cells = double_cosets(G, H, K)
            total = sum(len(c) for c in cells)
            if total != G.order:
                bad = f"double cosets of ({table.classes[a].name},{table.classes[b].name}) cover {total} of {G.order}"
    checks.append(Check("double-cosets-partition", not bad, bad))

    bad = ""
    for a in range(len(table.classes)):
        for b in range(len(table.classes)):
            H = table.classes[a].representative
            K = table.classes[b].representative
            fixed = fixed_cosets(G, H, K)
            subconj = any(
                G.conjugate_subgroup(g, H) <= K for g in range(G.order)
            )
            if bool(fixed) != subconj:
                bad = f"fixed cosets vs subconjugacy mismatch for ({table.classes[a].name},{table.classes[b].name})"
    checks.append(Check("fixed-points-iff-subconjugate", not bad, bad))

    bad = ""
    for cls in table.classes:
        steps = 0
        cur = cls.representative
        from .subgroups import derived_subgroup

        while True:
            nxt = derived_subgroup(G, cur)
            if nxt == cur:
                break
            cur = nxt
            steps += 1
        if steps > max(1, int(math.log2(max(cls.order, 2)))):
            bad = f"derived series of {cls.name} took {steps} steps"
        if derived_subgroup(G, cur) != cur:
            bad = f"stable derived term of {cls.name} is not perfect"
    checks.append(Check("derived-series-stabilizes", not bad, bad))

    return checks


# -- burnside ------------------------------------------------------------------


def burnside_checks(ring: BurnsideRing, rng: Random) -> list[Check]:
    G = ring.group
    table = ring.table
    checks = []
    tom = ring.table_of_marks().marks
    n = ring.n

    bad = ""
    for i in range(n):
        if tom[i][i] == 0:
            bad = f"zero diagonal at {table.classes[i].name}"
        expected = len(table.classes[i].normalizer) // table.classes[i].order
        if tom[i][i] != expected:
            bad = f"diagonal at {table.classes[i].name} is {tom[i][i]}, expected {expected}"
        for j in range(i):
            if tom[i][j] != 0:
                bad = f"non-triangular entry at ({i},{j})"
        if tom[i][n - 1] != 1:
            bad = f"marks of the point set wrong at {table.classes[i].name}"
        if tom[0][i] != G.order // table.classes[i].order:
            bad = f"trivial-subgroup mark wrong at {table.classes[i].name}"
    checks.append(Check("mark-matrix-shape", not bad, bad))

    bad = ""
    exhaustive = G.order <= EXHAUSTIVE_PAIR_ORDER
    for i, j in _pairs(n, exhaustive, rng):
        x = ring.basis_element(i, QQ)
        y = ring.basis_element(j, QQ)
        lhs = ring.marks(ring.multiply(x, y)).values
        mx = ring.marks(x).values
        my = ring.marks(y).values
        rhs = tuple(a * b for a, b in zip(mx, my))
        if lhs != rhs:
            bad = f"marks not multiplicative on ({table.classes[i].name},{table.classes[j].name})"
    checks.append(Check("marks-ring-homomorphism", not bad, bad))

    idem = ring.rational_idempotents()
    bad = ""
    for i, e in enumerate(idem):
        marks = ring.marks(e).values
        want = tuple(Fraction(1 if k == i else 0) for k in range(n))
        if marks != want:
            bad = f"marks of rational idempotent {table.classes[i].name} not an indicator"
        if ring.multiply(e, e).coeffs != e.coeffs:
            bad = f"rational idempotent {table.classes[i].name} not idempotent"
    total = ring.zero(QQ)
    for e in idem:
        total = total + e
    if total.coeffs != ring.one(QQ).coeffs:
        bad = "rational idempotents do not sum to 1"
    checks.append(Check("rational-idempotents", not bad, bad))

    modes = ["solvable"] + prime_divisors(G.order)
    bad = ""
    for mode in modes:
        family = ring.dress_idempotents(mode)
        scalar = family[0][1].scalar
        total = ring.zero(scalar)
        for _, e in family:
            total = total + e
            if ring.multiply(e, e).coeffs != e.coeffs:
                bad = f"mode {mode}: residual idempotent not idempotent"
        if total.coeffs != ring.one(scalar).coeffs:
            bad = f"mode {mode}: residual idempotents do not sum to 1"
        for a in range(len(family)):
            for b in range(a + 1, len(family)):
                if not ring.multiply(family[a][1], family[b][1]).is_zero():
                    bad = f"mode {mode}: idempotents {a},{b} not orthogonal"
        fibers = table.residual_fiber_classes(mode)
        for j, e in family:
            marks = ring.marks(e).values
            for k in range(n):
                want = scalar.one if k in fibers[j] else scalar.zero
                if marks[k] != want:
                    bad = f"mode {mode}: marks of f_{table.classes[j].name} not the fiber indicator"
    checks.append(Check("residual-idempotents", not bad, bad))

    return checks


# -- crossed --------------------------------------------------------------------


def crossed_checks(xring: CrossedBurnsideRing, rng: Random) -> list[Check]:
    G = xring.group
    table = xring.table
    checks = []
    n = xring.n

    bad = ""
    exhaustive = G.order <= EXHAUSTIVE_PAIR_ORDER
    for i, j in _pairs(n, exhaustive, rng):
        if xring._basis_product(i, j) != xring.basis_product_oracle(i, j):
            bad = f"product mismatch on ({xring.pairs[i].name},{xring.pairs[j].name})"
    checks.append(Check("crossed-product-matches-orbit-oracle", not bad, bad))

    bad = ""
    one = xring.one()
    for i in range(n):
        b = xring.basis_element(i)
        if (one * b).coeffs != b.coeffs or (b * one).coeffs != b.coeffs:
            bad = f"unit fails on {xring.pairs[i].name}"
    for i, j in _pairs(n, exhaustive, rng):
        if xring._basis_product(i, j) != xring._basis_product(j, i):
            bad = f"commutativity fails on ({xring.pairs[i].name},{xring.pairs[j].name})"
    exhaustive3 = G.order <= EXHAUSTIVE_TRIPLE_ORDER
    for i, j, k in _triples(n, exhaustive3, rng):
        bi, bj, bk = (xring.basis_element(t) for t in (i, j, k))
        if ((bi * bj) * bk).coeffs != (bi * (bj * bk)).coeffs:
            bad = f"associativity fails on ({i},{j},{k})"
    checks.append(Check("crossed-ring-axioms", not bad, bad))

    bad = ""
    for i, j in _pairs(n, exhaustive, rng):
        x = xring.basis_element(i)
        y = xring.basis_element(j)
        lhs = xring.crossed_marks(x * y)
        rhs = xring.ghost_multiply(xring.crossed_marks(x), xring.crossed_marks(y))
        if not xring.ghost_equal(lhs, rhs):
            bad = f"crossed marks not multiplicative on ({xring.pairs[i].name},{xring.pairs[j].name})"
    checks.append(Check("crossed-marks-ring-homomorphism", not bad, bad))

    rank = rank_rational([
        [Fraction(v) for v in row] for row in xring.marks_matrix_rows()
    ])
    checks.append(
        Check(
            "crossed-marks-injective",
            rank == n,
            "" if rank == n else f"mark rank {rank} < basis size {n}",
        )
    )

    bad = ""
    for i in range(n):
        x = xring.basis_element(i)
        lhs = xring.ghost_augmentation(xring.crossed_marks(x)).values
        rhs = xring.burnside.marks(xring.forget_labels(x)).values
        if lhs != rhs:
            bad = f"augmentation square fails on {xring.pairs[i].name}"
    for k in range(len(table)):
        b = xring.burnside.basis_element(k)
        lhs2 = xring.crossed_marks(xring.with_identity_labels(b))
        rhs2 = xring.ghost_lift(xring.burnside.marks(b))
        if not xring.ghost_equal(lhs2, rhs2):
            bad = f"lift square fails on {table.classes[k].name}"
    checks.append(Check("mark-squares-commute", not bad, bad))

    bad = ""
    for k in range(len(table)):
        b = xring.burnside.basis_element(k)
        if xring.forget_labels(xring.with_identity_labels(b)).coeffs != b.coeffs:
            bad = f"forget(embed) != id on {table.classes[k].name}"
    checks.append(Check("embed-section", not bad, bad))

    bad = ""
    ghost_central = ""
    sample = range(n) if n <= 30 else [rng.randrange(n) for _ in range(SAMPLE_SIZE)]
    for i in sample:
        ghost = xring.crossed_marks(xring.basis_element(i))
        for k, cls in enumerate(table.classes):
            comp = ghost.components[k]
            C = sorted(cls.centralizer)
            for c in C:
                moved = {G.conj(c, t): v for t, v in comp.items()}
                if moved != comp:
                    ghost_central = f"component {cls.name} of marks({xring.pairs[i].name}) not central"
            for nrm in G.small_generating_set(cls.normalizer) or [0]:
                moved = {G.conj(nrm, t): v for t, v in comp.items()}
                if moved != comp:
                    ghost_central = f"component {cls.name} of marks({xring.pairs[i].name}) not normalizer-stable"
    checks.append(Check("ghost-components-central-and-stable", not ghost_central, ghost_central))

    bad = ""
    for i, j in _pairs(n, exhaustive, rng):
        x = xring.basis_element(i)
        y = xring.basis_element(j)
        lhs = xring.center_image(x * y)
        rhs = ga_mul(G, xring.center_image(x), xring.center_image(y), ZZ)
        if not ga_equal(lhs, rhs, ZZ):
            bad = f"center image not multiplicative on ({xring.pairs[i].name},{xring.pairs[j].name})"
    checks.append(Check("center-image-ring-homomorphism", not bad, bad))

    nclasses_conj = len(G.conjugacy_classes)
    bad = ""
    got = xring.center_image_rank(QQ)
    if got != nclasses_conj:
        bad = f"rank over Q is {got}, expected {nclasses_conj}"
    for p in prime_divisors(G.order):
        got = xring.center_image_rank(prime_field(p))
        if got != nclasses_conj:
            bad = f"rank over F_{p} is {got}, expected {nclasses_conj}"
    checks.append(Check("center-image-spans-center", not bad, bad))

    bad = ""
    for j, e in xring.integral_idempotents():
        img = xring.center_image(e)
        expected = {} if table.classes[j].order > 1 else {0: 1}
        if img != expected:
            bad = f"center image of the {table.classes[j].name} idempotent is {img}"
    checks.append(Check("center-image-of-integral-idempotents", not bad, bad))

    if len(table) <= 14:
        oracle = xring.idempotent_oracle()
        mine = sorted(e.coeffs for _, e in xring.integral_idempotents())
        theirs = sorted(e.coeffs for e in oracle)
        ok = mine == theirs
        checks.append(
            Check(
                "integral-idempotents-match-scan",
                ok,
                "" if ok else f"family sizes {len(mine)} vs {len(theirs)}",
            )
        )
        bad = ""
        for e in oracle:
            back = xring.with_identity_labels(xring.forget_labels(e))
            if back.coeffs != e.coeffs:
                bad = "embed(forget) does not fix a scanned idempotent"
        checks.append(Check("idempotents-fixed-by-embed-forget", not bad, bad))

    return checks


# -- center ---------------------------------------------------------------------


def center_checks(G: FiniteGroup, xring: CrossedBurnsideRing, rng: Random) -> list[Check]:
    Z = CenterAlgebra(G)
    checks = []
    sums = Z.class_sums(QQ)

    bad = ""
    for i in range(Z.n):
        for j in range(Z.n):
            fast = Z.multiply(sums[i], sums[j])
            slow = Z.multiply_oracle(sums[i], sums[j])
            if fast.coords != slow.coords:
                bad = f"structure constants disagree with convolution at ({i},{j})"
    if Z.multiply(Z.one(QQ), sums[0]).coords != sums[0].coords:
        bad = "identity class sum is not the unit"
    checks.append(Check("center-multiplication-matches-convolution", not bad, bad))

    bad = ""
    for i in range(xring.n):
        pair = xring.pairs[i]
        img = xring.center_image(xring.basis_element(i))
        points = G.order // xring.table.classes[pair.subgroup_class].order
        if ga_augmentation(img, ZZ) != points:
            bad = f"augmentation of the image of {pair.name} is not {points}"
    checks.append(Check("augmentation-counts-points", not bad, bad))

    bad = ""
    for p in prime_divisors(G.order):
        field, blocks = blocks_mod_p(G, p, algebra=Z)
        total = Z.zero(field)
        for b in blocks:
            bf = Z.element(b.coords, field)
            if Z.multiply(bf, bf).coords != bf.coords:
                bad = f"p={p}: block not idempotent"
            total = total + bf
        if total.coords != Z.one(field).coords:
            bad = f"p={p}: blocks do not sum to 1"
        for a in range(len(blocks)):
            for b2 in range(a + 1, len(blocks)):
                prod = Z.multiply(blocks[a], blocks[b2])
                if not prod.is_zero():
                    bad = f"p={p}: blocks {a},{b2} not orthogonal"
        if field.q**Z.n <= 5000:
            scan = block_scan_oracle(Z, field)
            if [b.coords for b in scan] != [b.coords for b in blocks]:
                bad = f"p={p}: blocks disagree with exhaustive scan"
        rows = xring.center_image_rows(ZZ)
        if not blocks_in_rho_span(G, blocks, rows, field):
            bad = f"p={p}: some block outside the span of the center images"
    checks.append(Check("blocks", not bad, bad))

    return checks


# -- mackey -----------------------------------------------------------------------


def mackey_checks(
    table: SubgroupClassTable,
    scalars: list[ScalarRing],
    rng: Random,
    bound: int = 24,
    mackey: MackeyAlgebra | None = None,
    xring: CrossedBurnsideRing | None = None,
) -> list[Check]:
    G = table.group
    checks = []
    mk = mackey if mackey is not None else MackeyAlgebra(table, bound=bound)
    xr = xring if xring is not None else CrossedBurnsideRing(table)
    Z = CenterAlgebra(G)

    formula = mk.orbit_count_formula()
    checks.append(
        Check(
            "span-count-formula",
            mk.n == formula,
            "" if mk.n == formula else f"enumerated {mk.n}, formula {formula}",
        )
    )

    one = mk.one()
    bad = ""
    for i in range(mk.n):
        b = mk.basis_element(i)
        if (one * b).coeffs != b.coeffs or (b * one).coeffs != b.coeffs:
            bad = f"identity fails on span {i}"
    checks.append(Check("span-identity", not bad, bad))

    tbl = mk.structure_table()
    bad = ""
    exhaustive3 = mk.n <= 30
    for i, j, k in _triples(mk.n, exhaustive3, rng):
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
        if left != right:
            bad = f"associativity fails on spans ({i},{j},{k})"
    checks.append(Check("span-associativity", not bad, bad))

    hk = HeckeAlgebra(mk)
    for scalar in scalars:
        tag = scalar.tag
        zimgs = [
            crossed_to_mackey_center(mk, xr, xr.basis_element(i, scalar))
            for i in range(xr.n)
        ]

        ok = crossed_to_mackey_center(mk, xr, xr.one(scalar)).coeffs == mk.one(scalar).coeffs
        checks.append(Check(f"zeta-unital[{tag}]", ok))

        bad = ""
        for i in rng.sample(range(xr.n), min(xr.n, 6)) if xr.n > 8 else range(xr.n):
            if not mk.is_central(zimgs[i]):
                bad = f"image of {xr.pairs[i].name} not central"
        checks.append(Check(f"zeta-lands-in-center[{tag}]", not bad, bad))

        bad = ""
        for i, j in _pairs(xr.n, xr.n <= 10, rng):
            lhs = crossed_to_mackey_center(
                mk, xr, xr.multiply(xr.basis_element(i, scalar), xr.basis_element(j, scalar))
            )
            rhs = mk.compose(zimgs[i], zimgs[j])
            if lhs.coeffs != rhs.coeffs:
                bad = f"multiplicativity fails on ({xr.pairs[i].name},{xr.pairs[j].name})"
        checks.append(Check(f"zeta-ring-homomorphism[{tag}]", not bad, bad))

        bad = ""
        for i, j in _pairs(mk.n, mk.n <= 30, rng):
            lhs = mk.project(mk.compose(mk.basis_element(i, scalar), mk.basis_element(j, scalar)))
            rhs = mat_mul_scalar(
                mk.project(mk.basis_element(i, scalar)),
                mk.project(mk.basis_element(j, scalar)),
                scalar,
            )
            if lhs != rhs:
                bad = f"projection not multiplicative on spans ({i},{j})"
        checks.append(Check(f"projection-algebra-homomorphism[{tag}]", not bad, bad))

        proj_rank = span_rank(
            [
                [v for row in mk.project(mk.basis_element(i, scalar)) for v in row]
                for i in range(mk.n)
            ],
            scalar,
        )
        checks.append(
            Check(
                f"projection-onto-hecke[{tag}]",
                proj_rank == hk.n,
                "" if proj_rank == hk.n else f"rank {proj_rank}, dim {hk.n}",
            )
        )

        bad = ""
        for i in range(xr.n):
            rho = xr.center_image(xr.basis_element(i, scalar))
            zc = Z.from_group_algebra(rho, scalar)
            lhs = mk.project(zimgs[i])
            rhs = center_to_hecke(mk, Z, zc)
            if lhs != rhs:
                bad = f"diagram fails on {xr.pairs[i].name}"
        checks.append(Check(f"projection-of-zeta-is-hecke-image-of-rho[{tag}]", not bad, bad))

        sums = Z.class_sums(scalar)
        bad = ""
        iota_ops = [center_to_hecke(mk, Z, z) for z in sums]
        ident = [
            [scalar.one if a == b else scalar.zero for b in range(mk.npoints)]
            for a in range(mk.npoints)
        ]
        if center_to_hecke(mk, Z, Z.one(scalar)) != ident:
            bad = "unit not preserved"
        for i in range(Z.n):
            for j in range(Z.n):
                lhs = center_to_hecke(mk, Z, Z.multiply(sums[i], sums[j]))
                rhs = mat_mul_scalar(iota_ops[i], iota_ops[j], scalar)
                if lhs != rhs:
                    bad = f"center embedding not multiplicative on classes ({i},{j})"
        checks.append(Check(f"center-embedding-ring-homomorphism[{tag}]", not bad, bad))

        # composite image spans the center of the Hecke algebra
        zy = hecke_center_dimension(mk, hk, scalar)
        comp_rank = span_rank(
            [[v for row in mk.project(z) for v in row] for z in zimgs], scalar
        )
        iota_rank = span_rank(
            [[v for row in op for v in row] for op in iota_ops], scalar
        )
        ok = comp_rank == zy and iota_rank == zy
        checks.append(
            Check(
                f"hecke-center-reached[{tag}]",
                ok,
                "" if ok else f"dim Z(hecke) {zy}, composite rank {comp_rank}, embedding rank {iota_rank}",
            )
        )

    return checks


def hecke_center_dimension(mk: MackeyAlgebra, hk: HeckeAlgebra, scalar: ScalarRing) -> int:
    """Dimension of the center of the Hecke algebra over the scalar.

    The orbit operators A_k multiply by intersection numbers:
    A_i A_j = sum_k a_ij^k A_k, where for a representative (x, y) of orbit
    k, a_ij^k counts the points z with (z, y) in orbit i and (x, z) in
    orbit j.  One pass over z for each orbit counts them all.

    The center is computed as in MackeyAlgebra.center_basis.  Span
    projection is a surjective algebra map onto the Hecke algebra, and a
    generator span, whose stabilizer is that of its point pair, projects to
    the orbit operator of that pair; so those operators generate.  The
    identities of the coset spaces G/H are orthogonal idempotents summing
    to 1, so the unknowns are the orbits inside some G/H x G/H.  The
    equations z A_g - A_g z = 0, in the intersection numbers, are solved by
    linalg.integer_kernel.
    """
    orbit_id = hk.orbit_id
    generators = {orbit_id[mk.basis[a].x][mk.basis[a].y] for a in mk.generator_spans()}
    diagonal = [
        k for k, orbit in enumerate(hk.orbits) if mk.component(orbit[0][0]) == mk.component(orbit[0][1])
    ]
    unknown = set(diagonal)
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for k, orbit in enumerate(hk.orbits):
        x, y = orbit[0]
        for z in range(mk.npoints):
            i, j = orbit_id[z][y], orbit_id[x][z]  # one count towards a_ij^k
            if i in unknown and j in generators:  # from z A_j with unknown A_i
                row = rows.setdefault((j, k), {})
                row[i] = row.get(i, 0) + 1
            if j in unknown and i in generators:  # from A_i z with unknown A_j
                row = rows.setdefault((i, k), {})
                row[j] = row.get(j, 0) - 1
    return len(integer_kernel(rows.values(), hk.n, scalar, support=diagonal))


def zeta_surjectivity_check(
    mk: MackeyAlgebra, xr: CrossedBurnsideRing, scalar: ScalarRing
) -> Check:
    """Rank of the central span images against the full center dimension."""
    zimgs = [
        crossed_to_mackey_center(mk, xr, xr.basis_element(i, scalar))
        for i in range(xr.n)
    ]
    rank = span_rank([z.coeffs for z in zimgs], scalar)
    dim = len(mk.center_basis(scalar))
    return Check(
        f"zeta-image-spans-mackey-center[{scalar.tag}]",
        rank == dim,
        "" if rank == dim else f"image rank {rank} < center dimension {dim}",
    )


# -- p-local --------------------------------------------------------------------


def p_local_checks(xring: CrossedBurnsideRing, p: int) -> tuple[list[Check], dict]:
    """Idempotent-family checks for one prime, plus the full report."""
    report = xring.p_local_report(p)
    checks = [
        Check(f"p-local-idempotent[p={p}]", report["idempotent"]),
        Check(f"p-local-orthogonal[p={p}]", report["orthogonal"]),
        Check(f"p-local-sum-is-one[p={p}]", report["sum_is_one"]),
    ]
    bad = ""
    for comp in report["components"]:
        if comp["ideal_rank"] != comp["fiber_pair_count"]:
            bad = f"J={comp['residual']}: ideal rank {comp['ideal_rank']} != fiber pair count {comp['fiber_pair_count']}"
    checks.append(Check(f"p-local-rank-matches-fiber-size[p={p}]", not bad, bad))
    return checks, report
