"""The Mackey algebra as spans over Omega x Omega, and its Hecke quotient.

Omega is the disjoint union of the coset spaces G/H over every subgroup H
(one copy per subgroup, not per class).  A span basis element is a
transitive set G/S together with an equivariant map to Omega x Omega,
stored as a conjugation-canonical triple (S, x, y).  Composition is the
fibered product over the middle Omega.  The Hecke algebra is the
endomorphism algebra of the permutation module on Omega; spans project
onto it by counting fibers, and the projection direction is fixed so the
count is an algebra map onto matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .center import CenterAlgebra, CenterElement
from .crossed import CrossedBurnsideRing, CrossedElement
from .groups import GroupTooLarge, double_cosets
from .linalg import integer_kernel, rank_field, rank_rational
from .scalars import ScalarRing, ZZ
from .subgroups import SubgroupClassTable, subgroup_key

DEFAULT_SPAN_BOUND = 24


@dataclass(frozen=True)
class SpanBasisElement:
    """Transitive span over Omega x Omega: canonical (stabilizer, x, y)."""

    index: int
    stabilizer: frozenset[int]
    x: int
    y: int


@dataclass(frozen=True)
class SpanElement:
    algebra: "MackeyAlgebra"
    scalar: ScalarRing
    coeffs: tuple

    def __add__(self, other):
        s = self.scalar
        return SpanElement(
            self.algebra, s, tuple(s.add(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        s = self.scalar
        return SpanElement(
            self.algebra, s, tuple(s.sub(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        return self.algebra.compose(self, other)

    def is_zero(self) -> bool:
        return all(self.scalar.is_zero(c) for c in self.coeffs)

    def to_json(self) -> list[dict[str, str]]:
        out = []
        for i, c in enumerate(self.coeffs):
            if self.scalar.is_zero(c):
                continue
            b = self.algebra.basis[i]
            cls_idx, _ = self.algebra.table.fusion(b.stabilizer)
            out.append(
                {
                    "S": self.algebra.table.classes[cls_idx].name,
                    "x": self.algebra.point_name(b.x),
                    "y": self.algebra.point_name(b.y),
                    "coeff": self.scalar.format(c),
                }
            )
        return out


class MackeyAlgebra:
    """Span algebra on Omega x Omega for one group, with integer structure."""

    def __init__(self, table: SubgroupClassTable, bound: int = DEFAULT_SPAN_BOUND):
        G = table.group
        if G.order > bound:
            raise GroupTooLarge(f"bound exceeded: order {G.order} > span bound {bound}")
        self.table = table
        self.group = G
        # Omega: one coset space per subgroup, subgroups in canonical order
        self.subgroups = sorted(table.all_subgroups, key=lambda s: (len(s), subgroup_key(s)))
        self.points: list[tuple[int, int]] = []  # (subgroup idx, coset rep)
        self._point_id: dict[tuple[int, int], int] = {}
        for si, H in enumerate(self.subgroups):
            for r in G.left_cosets(H):
                pid = len(self.points)
                self.points.append((si, r))
                self._point_id[(si, r)] = pid
        self.npoints = len(self.points)
        # action table: act[g][point]
        self.act = [
            [0] * self.npoints for _ in range(G.order)
        ]
        for pid, (si, r) in enumerate(self.points):
            for g in range(G.order):
                moved = G.mul(g, r)
                self.act[g][pid] = self._point_id[(si, self._rep_of(si, moved))]
        self.basis = self._enumerate_basis()
        self.n = len(self.basis)
        self._triple_index: dict[tuple[tuple[int, ...], int, int], int] = {
            (subgroup_key(b.stabilizer), b.x, b.y): b.index for b in self.basis
        }
        self._products: dict[tuple[int, int], tuple[int, ...]] = {}
        self._no_product = (0,) * self.n
        self._proj: list[tuple[tuple[int, ...], ...]] | None = None

    # -- points ---------------------------------------------------------------

    def _rep_of(self, si: int, element: int) -> int:
        """Canonical representative of the coset of subgroup si containing element."""
        H = self.subgroups[si]
        return min(self.group.mul(element, h) for h in H)

    def point_of(self, si: int, element: int) -> int:
        return self._point_id[(si, self._rep_of(si, element))]

    def point_name(self, pid: int) -> str:
        si, r = self.points[pid]
        return f"({si},{self.group.element_string(r)})"

    # -- basis ------------------------------------------------------------------

    def _canonical_triple(self, S: frozenset[int], x: int, y: int):
        G = self.group
        best = None
        for g in range(G.order):
            cand = (
                subgroup_key(G.conjugate_subgroup(g, S)),
                self.act[g][x],
                self.act[g][y],
            )
            if best is None or cand < best:
                best = cand
        return best

    def _enumerate_basis(self) -> list[SpanBasisElement]:
        G = self.group
        seen = {}
        for cls in self.table.classes:
            S = cls.representative
            gens = G.small_generating_set(S) or [0]
            fixed = [
                p
                for p in range(self.npoints)
                if all(self.act[g][p] == p for g in gens)
            ]
            for x in fixed:
                for y in fixed:
                    key = self._canonical_triple(S, x, y)
                    if key not in seen:
                        seen[key] = (frozenset(key[0]), key[1], key[2])
        ordered = sorted(seen.keys(), key=lambda k: (len(k[0]), k))
        return [
            SpanBasisElement(i, frozenset(k[0]), k[1], k[2]) for i, k in enumerate(ordered)
        ]

    def orbit_count_formula(self) -> int:
        """Independent count: sum over classes S of N(S)-orbits on (Omega x Omega)^S."""
        G = self.group
        total = 0
        for cls in self.table.classes:
            gens = G.small_generating_set(cls.representative) or [0]
            fixed = [
                p
                for p in range(self.npoints)
                if all(self.act[g][p] == p for g in gens)
            ]
            pairs = {(x, y) for x in fixed for y in fixed}
            N = sorted(cls.normalizer)
            seen = set()
            for pair in sorted(pairs):
                if pair in seen:
                    continue
                total += 1
                for n in N:
                    seen.add((self.act[n][pair[0]], self.act[n][pair[1]]))
        return total

    # -- elements ----------------------------------------------------------------

    def element(self, coeffs, scalar: ScalarRing = ZZ) -> SpanElement:
        if len(coeffs) != self.n:
            raise ValueError("coefficient length mismatch")
        return SpanElement(self, scalar, tuple(scalar.coerce(c) for c in coeffs))

    def zero(self, scalar: ScalarRing = ZZ) -> SpanElement:
        return self.element([0] * self.n, scalar)

    def basis_element(self, i: int, scalar: ScalarRing = ZZ) -> SpanElement:
        coeffs = [0] * self.n
        coeffs[i] = 1
        return self.element(coeffs, scalar)

    def one(self, scalar: ScalarRing = ZZ) -> SpanElement:
        """Sum of the diagonal spans (H over (eH, eH)), one per subgroup."""
        coeffs = [0] * self.n
        for si, H in enumerate(self.subgroups):
            p = self.point_of(si, 0)
            key = self._canonical_triple(H, p, p)
            coeffs[self._triple_index[key]] += 1
        return self.element(coeffs, scalar)

    def span_index(self, S: frozenset[int], x: int, y: int) -> int:
        """Basis index of the span with stabilizer S over (x, y)."""
        gens = self.group.small_generating_set(S) or [0]
        if any(self.act[g][x] != x or self.act[g][y] != y for g in gens):
            raise ValueError("stabilizer does not fix the target pair")
        return self._triple_index[self._canonical_triple(S, x, y)]

    # -- composition ----------------------------------------------------------------

    def _basis_compose(self, i: int, j: int) -> tuple[int, ...]:
        """Fibered product over the middle Omega: input leg of i glued to
        output leg of j, so project(i . j) = project(i) @ project(j)."""
        key = (i, j)
        if key not in self._products:
            G = self.group
            bi, bj = self.basis[i], self.basis[j]
            if self.component(bi.x) != self.component(bj.y):
                # the glued legs lie in different coset spaces: empty fiber
                self._products[key] = self._no_product
                return self._no_product
            Si, Sj = bi.stabilizer, bj.stabilizer
            cos_i = G.left_cosets(Si)
            cos_j = G.left_cosets(Sj)
            pts = []
            for v in cos_i:
                fx = self.act[v][bi.x]
                for w in cos_j:
                    if fx == self.act[w][bj.y]:
                        pts.append((v, w))
            coeffs = [0] * self.n
            assigned = set()
            where_i = {}
            where_j = {}
            for v in cos_i:
                for h in Si:
                    where_i[G.mul(v, h)] = v
            for w in cos_j:
                for h in Sj:
                    where_j[G.mul(w, h)] = w
            for v0, w0 in pts:
                if (v0, w0) in assigned:
                    continue
                orbit = set()
                frontier = [(v0, w0)]
                orbit.add((v0, w0))
                while frontier:
                    (v, w) = frontier.pop()
                    for g in range(G.order):
                        moved = (where_i[G.mul(g, v)], where_j[G.mul(g, w)])
                        if moved not in orbit:
                            orbit.add(moved)
                            frontier.append(moved)
                assigned |= orbit
                stab = G.conjugate_subgroup(v0, Si) & G.conjugate_subgroup(w0, Sj)
                left = self.act[w0][bj.x]
                right = self.act[v0][bi.y]
                coeffs[self._triple_index[self._canonical_triple(stab, left, right)]] += 1
            self._products[key] = tuple(coeffs)
        return self._products[key]

    def compose(self, x: SpanElement, y: SpanElement) -> SpanElement:
        s = x.scalar
        ys = [(j, b) for j, b in enumerate(y.coeffs) if not s.is_zero(b)]
        acc = [s.zero] * self.n
        for i, a in enumerate(x.coeffs):
            if s.is_zero(a):
                continue
            for j, b in ys:
                ab = s.mul(a, b)
                for k, c in enumerate(self._basis_compose(i, j)):
                    if c:
                        acc[k] = s.add(acc[k], s.mul_int(ab, c))
        return SpanElement(self, s, tuple(acc))

    def structure_table(self) -> dict[tuple[int, int], tuple[int, ...]]:
        for i in range(self.n):
            for j in range(self.n):
                self._basis_compose(i, j)
        return self._products

    # -- center ------------------------------------------------------------------------

    def component(self, pid: int) -> int:
        """Index of the subgroup H whose coset space G/H contains the point."""
        return self.points[pid][0]

    def generator_spans(self) -> list[int]:
        """Basis indices of spans that generate the algebra, over any ring.

        Thevenaz-Webb: the Mackey algebra is generated by the transfers
        t^H_K, the restrictions r^H_K (K <= H) and the conjugations c_{g,H}.
        Transfer and restriction along K < H are products along a chain of
        maximal inclusions, and c_{gh,H} = c_{g,hHh^-1} c_{h,H} with every
        element a positive word in generators of G.  So these suffice, as
        spans (stabilizer, source point, target point):

        - e_H = c_{1,H} = (H, eH, eH) for every subgroup H;
        - t^H_K = (K, eK, eH) and r^H_K = (K, eH, eK) for every maximal
          inclusion K < H;
        - c_{g,H} = (gHg^-1, gH, e gHg^-1) for every H and every g in
          small_generating_set(G).

        In each the stabilizer is the full stabilizer of the point pair.
        """
        G = self.group
        where = {H: si for si, H in enumerate(self.subgroups)}
        group_gens = G.small_generating_set(range(G.order))
        gens: set[int] = set()
        for si, H in enumerate(self.subgroups):
            eH = self.point_of(si, 0)
            gens.add(self.span_index(H, eH, eH))
            below = [K for K in self.subgroups if K < H]
            for K in below:
                if any(K < L for L in below):
                    continue
                eK = self.point_of(where[K], 0)
                gens.add(self.span_index(K, eK, eH))
                gens.add(self.span_index(K, eH, eK))
            for g in group_gens:
                gHg = G.conjugate_subgroup(g, H)
                gens.add(self.span_index(gHg, self.point_of(si, g), self.point_of(where[gHg], 0)))
        return sorted(gens)

    def center_basis(self, scalar: ScalarRing):
        """Basis of the center over the scalar ring, as a sparse commutant.

        Unknowns: the e_H = (H, eH, eH) are orthogonal idempotents summing
        to 1, so a central z equals sum_H e_H z e_H, a combination of the
        diagonal spans (both points in one coset space G/H).  Equations: z
        is central as soon as it commutes with the generator_spans, since
        it then commutes with every product of them; z a - a z = 0 for each
        generator a is a system of integer structure constants in those
        unknowns.  linalg.integer_kernel solves it exactly: the result is
        primitive integer vectors over Z, Q and Z_(p), vectors of field
        elements over F_q, each of length n.
        """
        diagonal: dict[int, list[int]] = {}  # coset space -> its diagonal spans
        for b in self.basis:
            if self.component(b.x) == self.component(b.y):
                diagonal.setdefault(self.component(b.x), []).append(b.index)
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for a in self.generator_spans():
            # a z and z a vanish on the diagonal blocks that a does not touch
            source, target = self.component(self.basis[a].x), self.component(self.basis[a].y)
            touched = diagonal[source] + (diagonal[target] if target != source else [])
            for i in touched:
                for sign, product in ((1, self._basis_compose(i, a)), (-1, self._basis_compose(a, i))):
                    for k, c in enumerate(product):
                        if c:
                            row = rows.setdefault((a, k), {})
                            row[i] = row.get(i, 0) + sign * c
        support = sorted(i for block in diagonal.values() for i in block)
        return integer_kernel(rows.values(), self.n, scalar, support=support)

    def is_central(self, x: SpanElement) -> bool:
        """True if x commutes with every basis span.

        This is the oracle for center membership: it tests the whole basis,
        not the generator_spans that center_basis relies on.
        """
        s = x.scalar
        support = [(i, a) for i, a in enumerate(x.coeffs) if not s.is_zero(a)]
        for j in range(self.n):
            diff: dict[int, object] = {}
            for i, a in support:
                for k, (c, d) in enumerate(zip(self._basis_compose(i, j), self._basis_compose(j, i))):
                    if c != d:
                        diff[k] = s.add(diff.get(k, s.zero), s.mul_int(a, c - d))
            if not all(s.is_zero(v) for v in diff.values()):
                return False
        return True

    # -- projection to the Hecke algebra --------------------------------------------------

    def project_matrix(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Operator of basis span i: entry [to, from] counts fiber points."""
        if self._proj is None:
            self._proj = [None] * self.n  # type: ignore[list-item]
        if self._proj[i] is None:
            G = self.group
            b = self.basis[i]
            mat = [[0] * self.npoints for _ in range(self.npoints)]
            for v in G.left_cosets(b.stabilizer):
                mat[self.act[v][b.y]][self.act[v][b.x]] += 1
            self._proj[i] = tuple(tuple(row) for row in mat)
        return self._proj[i]

    def project(self, x: SpanElement):
        """Image in the endomorphism algebra of the permutation module."""
        s = x.scalar
        mat = [[s.zero] * self.npoints for _ in range(self.npoints)]
        for i, c in enumerate(x.coeffs):
            if s.is_zero(c):
                continue
            pm = self.project_matrix(i)
            for r in range(self.npoints):
                prow = pm[r]
                row = mat[r]
                for col in range(self.npoints):
                    if prow[col]:
                        row[col] = s.add(row[col], s.mul(c, s.coerce(prow[col])))
        return mat


class HeckeAlgebra:
    """End_kG(k Omega): orbit-indicator matrices on Omega x Omega."""

    def __init__(self, mackey: MackeyAlgebra):
        self.mackey = mackey
        self.group = mackey.group
        G = self.group
        npts = mackey.npoints
        orbit_id = [[-1] * npts for _ in range(npts)]
        self.orbits: list[list[tuple[int, int]]] = []
        for x in range(npts):
            for y in range(npts):
                if orbit_id[x][y] >= 0:
                    continue
                idx = len(self.orbits)
                orbit = []
                frontier = [(x, y)]
                orbit_id[x][y] = idx
                while frontier:
                    (a, b) = frontier.pop()
                    orbit.append((a, b))
                    for g in range(G.order):
                        ma, mb = mackey.act[g][a], mackey.act[g][b]
                        if orbit_id[ma][mb] < 0:
                            orbit_id[ma][mb] = idx
                            frontier.append((ma, mb))
                self.orbits.append(orbit)
        self.n = len(self.orbits)
        self.orbit_id = orbit_id  # orbit_id[x][y]: the orbit of the pair (x, y)

    def basis_matrix(self, k: int) -> tuple[tuple[int, ...], ...]:
        npts = self.mackey.npoints
        mat = [[0] * npts for _ in range(npts)]
        for (x, y) in self.orbits[k]:
            mat[y][x] = 1  # operator sends basis point x toward y
        return tuple(tuple(row) for row in mat)


def mat_mul_scalar(a, b, scalar: ScalarRing):
    n = len(a)
    m = len(b[0]) if b else 0
    out = [[scalar.zero] * m for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for k, x in enumerate(arow):
            if scalar.is_zero(x):
                continue
            brow = b[k]
            for j in range(m):
                if not scalar.is_zero(brow[j]):
                    orow[j] = scalar.add(orow[j], scalar.mul(x, brow[j]))
    return out


# -- the two comparison maps -----------------------------------------------------


def crossed_to_mackey_center(
    mackey: MackeyAlgebra, xring: CrossedBurnsideRing, x: CrossedElement
) -> SpanElement:
    """Central span image of a crossed element.

    A basis pair [L,a] contributes, for every subgroup U and every double
    coset rep w of L\\G/U, the span with stabilizer w^-1 L w n U over the
    point pair (eU, sU) in the U-component, where s = w^-1 a w.
    """
    G = mackey.group
    s = x.scalar
    acc = [s.zero] * mackey.n
    for i, c in enumerate(x.coeffs):
        if s.is_zero(c):
            continue
        pair = xring.pairs[i]
        L = xring.table.classes[pair.subgroup_class].representative
        a = pair.label
        for si, U in enumerate(mackey.subgroups):
            reps, _ = double_cosets(G, L, U)
            for w in reps:
                winv = G.inv(w)
                S = G.conjugate_subgroup(winv, L) & U
                slabel = G.conj(winv, a)
                x_pt = mackey.point_of(si, 0)
                y_pt = mackey.point_of(si, slabel)
                k = mackey._triple_index[mackey._canonical_triple(S, x_pt, y_pt)]
                acc[k] = s.add(acc[k], c)
    return SpanElement(mackey, s, tuple(acc))


def center_to_hecke(
    mackey: MackeyAlgebra, Z: CenterAlgebra, z: CenterElement
):
    """Image of a central group-algebra element in the Hecke algebra.

    For each subgroup H and double coset rep g of H\\G/H the operator of
    the span (H n gHg^-1 over (eH, gH)) enters with coefficient
    sum over x in H of the coefficient of z at gx.
    """
    G = mackey.group
    s = z.scalar
    ga = z.to_group_algebra()
    npts = mackey.npoints
    mat = [[s.zero] * npts for _ in range(npts)]
    for si, H in enumerate(mackey.subgroups):
        reps, _ = double_cosets(G, H, H)
        for g in reps:
            coeff = s.zero
            for h in H:
                coeff = s.add(coeff, ga.get(G.mul(g, h), s.zero))
            if s.is_zero(coeff):
                continue
            S = H & G.conjugate_subgroup(g, H)
            x_pt = mackey.point_of(si, 0)
            y_pt = mackey.point_of(si, g)
            for v in G.left_cosets(S):
                mat[mackey.act[v][y_pt]][mackey.act[v][x_pt]] = s.add(
                    mat[mackey.act[v][y_pt]][mackey.act[v][x_pt]], coeff
                )
    return mat


# -- rank helpers ------------------------------------------------------------------


def span_rank(vectors, scalar: ScalarRing) -> int:
    rows = [list(v) for v in vectors]
    if scalar.is_field and hasattr(scalar, "p"):
        return rank_field([[scalar.coerce(v) for v in row] for row in rows], scalar)
    return rank_rational([[Fraction(v) for v in row] for row in rows])
