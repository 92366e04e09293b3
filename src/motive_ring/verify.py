"""Named invariant checks, shared by the CLI verify commands and the tests.

Each suite returns Check records; a failing check keeps as its detail the
last reproducer its failure generator yields (_check).  Exhaustive where
the group is small, seeded sampling above that.  The marks, the center
image and the maps of the Mackey algebra are integer rows, so each
identity between them is decided once over Z: one side is the
combination of the rows over a sparse product (algebra.combine), the
other the product of two rows or an entry of the table of marks, and a
scalar ring reads its verdict off the integer result (_vanishes).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from random import Random

from .algebra import combine
from .burnside import BurnsideRing
from .center import SCAN_SIZE, CenterAlgebra, block_scan_oracle, blocks_in_rho_span, ga_mul
from .crossed import SCAN_CLASSES, CrossedBurnsideRing
from .linalg import integer_kernel, integer_rank, sparse_mat_mul
from .mackey import HeckeAlgebra, MackeyAlgebra
from .scalars import QQ, ZZ, ScalarRing, prime_field
from .subgroups import SubgroupClassTable, derived_subgroup, prime_divisors

EXHAUSTIVE_PAIR_ORDER = 24
EXHAUSTIVE_TRIPLE_ORDER = 12
SAMPLE_SIZE = 40


class Check:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def as_json(self) -> dict:
        doc = {"name": self.name, "pass": self.passed}
        if self.detail:
            doc["detail"] = self.detail
        return doc


def _check(name: str, failures) -> Check:
    """A check over its failure messages: it passes when ``failures``
    yields nothing, and otherwise keeps the last failure as its detail.
    The whole iterable is walked, so a sampled check draws all its cases."""
    detail = ""
    for detail in failures:
        pass
    return Check(name, not detail, detail)


def _family_failures(algebra, family, member: str, members: str):
    """The verdicts of Algebra.idempotent_family, in the order idempotent,
    sum, orthogonal."""
    idempotent, orthogonal, sums_to_one = algebra.idempotent_family(family)
    if not idempotent:
        yield f"{member} not idempotent"
    if not sums_to_one:
        yield f"{members} do not sum to 1"
    if not orthogonal:
        yield f"{members} not orthogonal"


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
    class_pairs = [(a, b) for a in table.classes for b in table.classes]

    def conjugation_pass(R):
        """g R g^-1 once for every g in G: (the stabilizer of R, the set of
        its distinct conjugates)."""
        stabilizer, conjugates = set(), set()
        for g in range(G.order):
            K = G.conjugate_subgroup(g, R)
            if K == R:
                stabilizer.add(g)
            conjugates.add(K)
        return stabilizer, conjugates

    passes = [conjugation_pass(cls.representative) for cls in table.classes]

    def normalizer_failures():
        for cls, (stabilizer, _) in zip(table.classes, passes):
            for n in cls.normalizer:
                if n not in stabilizer:
                    yield f"class {cls.name}: normalizer element {G.element_string(n)} moves the subgroup"
            for g in range(G.order):
                if (g in stabilizer) != (g in cls.normalizer):
                    yield f"class {cls.name}: stabilizer mismatch at {G.element_string(g)}"

    def fusion_failures():
        sample = range(G.order) if G.order <= EXHAUSTIVE_PAIR_ORDER else [
            rng.randrange(G.order) for _ in range(SAMPLE_SIZE)
        ]
        for cls in table.classes:
            for g in sample:
                K = G.conjugate_subgroup(g, cls.representative)
                idx, conj = table.fusion(K)
                if idx != cls.index:
                    yield f"conjugate of {cls.name} by {G.element_string(g)} fused to class {idx}"
                if G.conjugate_subgroup(conj, K) != cls.representative:
                    yield f"fusion conjugator wrong for {cls.name} at {G.element_string(g)}"

    def coset_failures():
        for a, b in class_pairs:  # HgK has |H||K| / |H n gKg^-1| elements
            total = sum(a.order * b.order // table.classes[c].order for c, _, _ in table.double_coset_meets(a.index, b.index))
            if total != G.order:
                yield f"double cosets of ({a.name},{b.name}) cover {total} of {G.order}"

    def derived_failures():
        for cls in table.classes:
            steps = 0
            cur = cls.representative
            while True:
                nxt = derived_subgroup(G, cur)
                if nxt == cur:
                    break
                cur = nxt
                steps += 1
            if steps > max(1, int(math.log2(max(cls.order, 2)))):
                yield f"derived series of {cls.name} took {steps} steps"
            if derived_subgroup(G, cur) != cur:
                yield f"stable derived term of {cls.name} is not perfect"

    return [
        _check("centralizer-commutes", (
            f"class {cls.name}: element {G.element_string(c)} does not commute with {G.element_string(h)}"
            for cls in table.classes
            for c in cls.centralizer
            for h in cls.representative
            if G.mul(c, h) != G.mul(h, c)
        )),
        _check("normalizer-is-stabilizer", normalizer_failures()),
        _check("fusion-conjugates", fusion_failures()),
        _check("double-cosets-partition", coset_failures()),
        _check("fixed-points-iff-subconjugate", (
            f"fixed cosets vs subconjugacy mismatch for ({a.name},{b.name})"
            for a, b in class_pairs
            if any(c == a.index for c, _, _ in table.double_coset_meets(a.index, b.index))
            != any(K <= b.representative for K in passes[a.index][1])
        )),
        _check("derived-series-stabilizes", derived_failures()),
    ]


# -- burnside ------------------------------------------------------------------


def burnside_checks(ring: BurnsideRing, rng: Random) -> list[Check]:
    G = ring.group
    table = ring.table
    tom = ring.table_of_marks().marks
    n = ring.n

    def shape_failures():
        for i in range(n):
            if tom[i][i] == 0:
                yield f"zero diagonal at {table.classes[i].name}"
            expected = len(table.classes[i].normalizer) // table.classes[i].order
            if tom[i][i] != expected:
                yield f"diagonal at {table.classes[i].name} is {tom[i][i]}, expected {expected}"
            for j in range(i):
                if tom[i][j] != 0:
                    yield f"non-triangular entry at ({i},{j})"
            if tom[i][n - 1] != 1:
                yield f"marks of the point set wrong at {table.classes[i].name}"
            if tom[0][i] != G.order // table.classes[i].order:
                yield f"trivial-subgroup mark wrong at {table.classes[i].name}"

    # the marks of basis element l: column l of the table, sparse
    ghost = [{k: row[l] for k, row in enumerate(tom) if row[l]} for l in range(n)]

    def multiplicative(i, j):
        lhs = combine(ring.product(i, j), _items(ghost.__getitem__))
        return lhs == {k: a * ghost[j][k] for k, a in ghost[i].items() if k in ghost[j]}

    def rational_failures():
        idem = ring.rational_idempotents()
        yield from _family_failures(ring, idem, "rational idempotents", "rational idempotents")
        for i, e in enumerate(idem):
            if ring.marks(e) != tuple(Fraction(1 if k == i else 0) for k in range(n)):
                yield f"marks of rational idempotent {table.classes[i].name} not an indicator"

    def residual_failures():
        for mode in ["solvable"] + prime_divisors(G.order):
            family = ring.dress_idempotents(mode)
            scalar = family[0][1].scalar
            yield from _family_failures(
                ring, [e for _, e in family],
                f"mode {mode}: residual idempotent", f"mode {mode}: residual idempotents",
            )
            fibers = table.residual_fiber_classes(mode)
            for j, e in family:
                marks = ring.marks(e)
                for k in range(n):
                    if marks[k] != (scalar.one if k in fibers[j] else scalar.zero):
                        yield f"mode {mode}: marks of f_{table.classes[j].name} not the fiber indicator"

    return [
        _check("mark-matrix-shape", shape_failures()),
        _check("marks-ring-homomorphism", (
            f"marks not multiplicative on ({table.classes[i].name},{table.classes[j].name})"
            for i, j in _pairs(n, G.order <= EXHAUSTIVE_PAIR_ORDER, rng)
            if not multiplicative(i, j)
        )),
        _check("rational-idempotents", rational_failures()),
        _check("residual-idempotents", residual_failures()),
    ]


# -- crossed --------------------------------------------------------------------


def crossed_checks(xring: CrossedBurnsideRing, rng: Random) -> list[Check]:
    G = xring.group
    table = xring.table
    checks = []
    n = xring.n
    names = xring.labels
    exhaustive = G.order <= EXHAUSTIVE_PAIR_ORDER

    checks.append(_check("crossed-product-matches-orbit-oracle", (
        f"product mismatch on ({names[i]},{names[j]})"
        for i, j in _pairs(n, exhaustive, rng)
        if xring.product(i, j) != xring.basis_product_oracle(i, j)
    )))

    def axiom_failures():
        units = [(e, c) for e, c in enumerate(xring.one().coeffs) if c]
        for i in range(n):
            if not _unit_fixes(xring, units, i):
                yield f"unit fails on {names[i]}"
        for i, j in _pairs(n, exhaustive, rng):
            if xring._basis_product(i, j) != xring._basis_product(j, i):
                yield f"commutativity fails on ({names[i]},{names[j]})"
        for i, j, k in _nonassociative(xring, _triples(n, G.order <= EXHAUSTIVE_TRIPLE_ORDER, rng)):
            yield f"associativity fails on ({i},{j},{k})"

    checks.append(_check("crossed-ring-axioms", axiom_failures()))

    # the crossed marks: per subgroup class, one integer row per basis pair
    marks = [xring.mark_rows(k) for k in range(len(table))]

    def multiplicative(rows, i, j):
        """rows is a ring map on b_i b_j: the combination of the rows over
        the product against the group-algebra product of the two rows."""
        return combine(xring.product(i, j), _items(rows.__getitem__)) == ga_mul(G, rows[i], rows[j], ZZ)

    checks.append(_check("crossed-marks-ring-homomorphism", (
        f"crossed marks not multiplicative on ({names[i]},{names[j]})"
        for i, j in _pairs(n, exhaustive, rng)
        if not all(multiplicative(rows, i, j) for rows in marks)
    )))

    rank = integer_rank((dict(enumerate(row)) for row in xring.marks_matrix_rows()), QQ)
    checks.append(_check("crossed-marks-injective", [] if rank == n else [f"mark rank {rank} < basis size {n}"]))

    def square_failures():
        for i in range(n):
            augmented = tuple(sum(rows[i].values()) for rows in marks)
            if augmented != xring.burnside.marks(xring.forget_labels(xring.basis_element(i))):
                yield f"augmentation square fails on {names[i]}"
        for k in range(len(table)):
            b = xring.burnside.basis_element(k)
            embedded = list(enumerate(xring.with_identity_labels(b).coeffs))
            # the marks of b, lifted to the identity of each group algebra
            lifted = [{0: m} if m else {} for m in xring.burnside.marks(b)]
            if any(combine(embedded, _items(rows.__getitem__)) != lift for rows, lift in zip(marks, lifted)):
                yield f"lift square fails on {table.classes[k].name}"

    checks.append(_check("mark-squares-commute", square_failures()))
    checks.append(_check("embed-section", (
        f"forget(embed) != id on {table.classes[k].name}"
        for k, b in enumerate(map(xring.burnside.basis_element, range(len(table))))
        if xring.forget_labels(xring.with_identity_labels(b)).coeffs != b.coeffs
    )))

    def component_failures():
        # a component is invariant under a group iff under its generators
        gens = [
            (G.small_generating_set(cls.centralizer), G.small_generating_set(cls.normalizer))
            for cls in table.classes
        ]
        sample = range(n) if n <= 30 else [rng.randrange(n) for _ in range(SAMPLE_SIZE)]
        for i in sample:
            for k, (cls, (central, normal)) in enumerate(zip(table.classes, gens)):
                comp = marks[k][i]
                for c in central:
                    if {G.conj(c, t): v for t, v in comp.items()} != comp:
                        yield f"component {cls.name} of marks({names[i]}) not central"
                for nrm in normal:
                    if {G.conj(nrm, t): v for t, v in comp.items()} != comp:
                        yield f"component {cls.name} of marks({names[i]}) not normalizer-stable"

    checks.append(_check("ghost-components-central-and-stable", component_failures()))

    checks.append(_check("center-image-ring-homomorphism", (
        f"center image not multiplicative on ({names[i]},{names[j]})"
        for i, j in _pairs(n, exhaustive, rng)
        if not multiplicative(marks[0], i, j)
    )))

    def span_failures():
        expected = len(G.conjugacy_classes)
        rows = [dict(enumerate(row)) for row in xring.center_image_rows()]
        for name, scalar in [("Q", QQ)] + [(f"F_{p}", prime_field(p)) for p in prime_divisors(G.order)]:
            got = integer_rank(rows, scalar)
            if got != expected:
                yield f"rank over {name} is {got}, expected {expected}"

    def integral_image_failures():
        for j, e in xring.dress_idempotents("solvable"):
            img = combine(enumerate(e.coeffs), _items(marks[0].__getitem__))
            if img != ({} if table.classes[j].order > 1 else {0: 1}):
                yield f"center image of the {table.classes[j].name} idempotent is {img}"

    checks.append(_check("center-image-spans-center", span_failures()))
    checks.append(_check("center-image-of-integral-idempotents", integral_image_failures()))

    if len(table) <= SCAN_CLASSES:
        oracle = xring.idempotent_oracle()
        mine = sorted(e.coeffs for _, e in xring.dress_idempotents("solvable"))
        theirs = sorted(e.coeffs for e in oracle)
        checks.append(_check(
            "integral-idempotents-match-scan",
            [] if mine == theirs else [f"family sizes {len(mine)} vs {len(theirs)}"],
        ))
        checks.append(_check("idempotents-fixed-by-embed-forget", (
            "embed(forget) does not fix a scanned idempotent"
            for e in oracle
            if xring.with_identity_labels(xring.forget_labels(e)).coeffs != e.coeffs
        )))

    return checks


# -- center ---------------------------------------------------------------------


def center_checks(xring: CrossedBurnsideRing) -> list[Check]:
    G = xring.group
    Z = CenterAlgebra(G)
    sums = Z.class_sums(ZZ)  # integer structure constants: Z decides what Q would

    def convolution_failures():
        for i in range(Z.n):
            for j in range(Z.n):
                if Z.multiply(sums[i], sums[j]).coeffs != Z.multiply_oracle(sums[i], sums[j]).coeffs:
                    yield f"structure constants disagree with convolution at ({i},{j})"
        if Z.multiply(Z.one(ZZ), sums[0]).coeffs != sums[0].coeffs:
            yield "identity class sum is not the unit"

    def augmentation_failures():
        images = xring.mark_rows(0)  # the center image of each basis pair
        for i, pair in enumerate(xring.pairs):
            points = G.order // xring.table.classes[pair.subgroup_class].order
            if sum(images[i].values()) != points:
                yield f"augmentation of the image of {pair.name} is not {points}"

    def block_failures():
        rows = xring.center_image_rows()
        for p in prime_divisors(G.order):
            field, blocks = Z.primitive_idempotents(p)
            yield from _family_failures(Z, blocks, f"p={p}: block", f"p={p}: blocks")
            if field.q**Z.n <= SCAN_SIZE:
                scan = block_scan_oracle(Z, field)
                if [b.coeffs for b in scan] != [b.coeffs for b in blocks]:
                    yield f"p={p}: blocks disagree with exhaustive scan"
            if not blocks_in_rho_span(blocks, rows, field):
                yield f"p={p}: some block outside the span of the center images"

    return [
        _check("center-multiplication-matches-convolution", convolution_failures()),
        _check("augmentation-counts-points", augmentation_failures()),
        _check("blocks", block_failures()),
    ]


# -- mackey -----------------------------------------------------------------------


def span_checks(mk: MackeyAlgebra, rng: Random) -> list[Check]:
    """The span algebra itself: its basis count, its unit and associativity,
    through the sparse integer products."""
    formula = mk.orbit_count_formula()
    # the unit is a sum of diagonal spans e_H, one per subgroup
    units = [(e, c) for e, c in enumerate(mk.one().coeffs) if c]
    return [
        _check("span-count-formula", [] if mk.n == formula else [f"enumerated {mk.n}, formula {formula}"]),
        _check("span-identity", (f"identity fails on span {i}" for i in range(mk.n) if not _unit_fixes(mk, units, i))),
        _check("span-associativity", (
            f"associativity fails on spans ({i},{j},{k})"
            for i, j, k in _nonassociative(mk, _triples(mk.n, mk.n <= 30, rng))
        )),
    ]


def mackey_checks(
    mk: MackeyAlgebra, xr: CrossedBurnsideRing, scalars: list[ScalarRing], rng: Random
) -> list[Check]:
    """span_checks, then the comparison maps zeta, pi and iota over each scalar.

    Each identity between the maps is one integer identity: its inputs are
    basis elements and their zeta images, and every map has integer rows.
    So it is decided once over Z, as the integer defect lhs - rhs of each
    case, cached per case; a scalar ring sees the image of that defect
    along Z -> k (_vanishes), which is zero whenever it is zero over Z.  Each
    scalar still draws its own sample from rng.  Only the unit and the
    ranks are computed per scalar.
    """
    checks = span_checks(mk, rng)
    hk = HeckeAlgebra(mk)
    Z = CenterAlgebra(mk.table.group)
    zeta = [mk.zeta_row(xr, i) for i in range(xr.n)]
    pi_zeta = [combine(z.items(), _items(mk.project_matrix)) for z in zeta]
    iota = _items(mk.iota_row)
    # the square pi zeta = iota rho per crossed pair; rho's rows are class coordinates
    diagram = [
        _difference(pz, combine(enumerate(rho), iota))
        for pz, rho in zip(pi_zeta, xr.center_image_rows())
    ]
    unit = _difference(
        combine(enumerate(xr.one().coeffs), _items(zeta.__getitem__)),
        {k: c for k, c in enumerate(mk.one().coeffs) if c},
    )
    embedding = [("unit not preserved", _difference(
        combine(enumerate(Z.one().coeffs), iota), {(a, a): 1 for a in range(mk.npoints)}
    ))] + [
        (f"center embedding not multiplicative on classes ({i},{j})", _difference(
            combine(Z.product(i, j), iota), sparse_mat_mul(mk.iota_row(i), mk.iota_row(j))
        ))
        for i in range(Z.n)
        for j in range(Z.n)
    ]

    @cache
    def central_defect(i):
        return mk.commutator(zeta[i])

    @cache
    def zeta_defect(i, j):
        lhs = combine(xr.product(i, j), _items(zeta.__getitem__))
        return _difference(lhs, mk.sparse_product(zeta[i], zeta[j]))

    @cache
    def projection_defect(i, j):
        lhs = combine(mk.product(i, j), _items(mk.project_matrix))
        return _difference(lhs, sparse_mat_mul(mk.project_matrix(i), mk.project_matrix(j)))

    proj_rows = [_flat(mk.project_matrix(i), mk.npoints) for i in range(mk.n)]
    comp_rows = [_flat(op, mk.npoints) for op in pi_zeta]
    iota_rows = [_flat(mk.iota_row(k), mk.npoints) for k in range(Z.n)]
    for scalar in scalars:
        tag = scalar.tag

        checks.append(Check(f"zeta-unital[{tag}]", _vanishes(unit, scalar)))

        checks.append(_check(f"zeta-lands-in-center[{tag}]", (
            f"image of {xr.pairs[i].name} not central"
            for i in (rng.sample(range(xr.n), min(xr.n, 6)) if xr.n > 8 else range(xr.n))
            if not _vanishes(central_defect(i), scalar)
        )))
        checks.append(_check(f"zeta-ring-homomorphism[{tag}]", (
            f"multiplicativity fails on ({xr.pairs[i].name},{xr.pairs[j].name})"
            for i, j in _pairs(xr.n, xr.n <= 10, rng)
            if not _vanishes(zeta_defect(i, j), scalar)
        )))
        checks.append(_check(f"projection-algebra-homomorphism[{tag}]", (
            f"projection not multiplicative on spans ({i},{j})"
            for i, j in _pairs(mk.n, mk.n <= 30, rng)
            if not _vanishes(projection_defect(i, j), scalar)
        )))

        proj_rank = integer_rank(proj_rows, scalar)
        checks.append(_check(
            f"projection-onto-hecke[{tag}]", [] if proj_rank == hk.n else [f"rank {proj_rank}, dim {hk.n}"]
        ))
        checks.append(_check(f"projection-of-zeta-is-hecke-image-of-rho[{tag}]", (
            f"diagram fails on {xr.pairs[i].name}" for i in range(xr.n) if not _vanishes(diagram[i], scalar)
        )))
        checks.append(_check(f"center-embedding-ring-homomorphism[{tag}]", (
            detail for detail, defect in embedding if not _vanishes(defect, scalar)
        )))

        # composite image spans the center of the Hecke algebra
        zy = hecke_center_dimension(mk, hk, scalar)
        comp_rank = integer_rank(comp_rows, scalar)
        iota_rank = integer_rank(iota_rows, scalar)
        checks.append(_check(f"hecke-center-reached[{tag}]", [] if comp_rank == iota_rank == zy else [
            f"dim Z(hecke) {zy}, composite rank {comp_rank}, embedding rank {iota_rank}"
        ]))

    return checks


def _items(row):
    """row(k).items(), for algebra.combine."""
    return lambda k: row(k).items()


def _difference(a: dict, b: dict) -> dict:
    """a - b for sparse integer dicts: {key: nonzero int}."""
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, 0) - v
    return {key: v for key, v in out.items() if v}


def _vanishes(defect: dict, scalar: ScalarRing) -> bool:
    """The integer defect of an identity is zero over the scalar ring: its
    image along Z -> scalar vanishes, so the identity holds there."""
    return all(scalar.is_zero(scalar.coerce(v)) for v in defect.values())


def _unit_fixes(algebra, units, i: int) -> bool:
    """1 b = b 1 = b for basis element b = i, with the unit given by its
    nonzero (basis index, int) pairs, through the sparse products."""
    left = combine(units, lambda e: algebra.product(e, i))
    right = combine(units, lambda e: algebra.product(i, e))
    return left == right == {i: 1}


def _nonassociative(algebra, triples):
    """The triples (i, j, k), in order, where (b_i b_j) b_k != b_i (b_j b_k),
    in one pass through the sparse products.  Each basis product is read
    once into a memo local to the pass (functools.cache), the empty ones
    too.  The structure constants are positive, so no sum cancels and the
    two sides compare as they are summed."""
    product = cache(algebra.product)
    for i, j, k in triples:
        left: dict[int, int] = {}
        for m, c in product(i, j):
            for t, d in product(m, k):
                left[t] = left.get(t, 0) + c * d
        right: dict[int, int] = {}
        for m, c in product(j, k):
            for t, d in product(i, m):
                right[t] = right.get(t, 0) + c * d
        if left != right:
            yield i, j, k


def _flat(op: dict, npoints: int) -> dict[int, int]:
    """Sparse operator {(to, from): value} as one sparse row {column: value}."""
    return {to * npoints + frm: v for (to, frm), v in op.items()}


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
    rank = integer_rank((mk.zeta_row(xr, i) for i in range(xr.n)), scalar)
    dim = len(mk.center_basis(scalar))
    return _check(
        f"zeta-image-spans-mackey-center[{scalar.tag}]",
        [] if rank == dim else [f"image rank {rank} < center dimension {dim}"],
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
    checks.append(_check(f"p-local-rank-matches-fiber-size[p={p}]", (
        f"J={comp['residual']}: ideal rank {comp['ideal_rank']} != fiber pair count {comp['fiber_pair_count']}"
        for comp in report["components"]
        if comp["ideal_rank"] != comp["fiber_pair_count"]
    )))
    return checks, report
