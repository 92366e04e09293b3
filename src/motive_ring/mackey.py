"""The Mackey algebra as spans over Omega x Omega, and its Hecke quotient.

Omega is the disjoint union of the coset spaces G/H over every subgroup H
(one copy per subgroup, not per class).  A span basis element is a
transitive set G/S together with an equivariant map to Omega x Omega,
stored as a conjugation-canonical triple (S, x, y).  Composition is the
fibered product over the middle Omega, computed by the Mackey double-coset
formula: its G-orbits are the S-orbits of one fiber slice, each read off
through an index of every G-conjugate of every basis triple.  The legs of
every span (the coset spaces of x and y) are arrays built with the basis,
so a product whose legs do not meet is empty at once, and each slice's
orbits are found once and kept.  Algebra.product caches the nonempty
products sparsely as ((k, c), ...).  The Hecke algebra is the
endomorphism algebra of the permutation module on Omega; spans project onto
it by counting fibers, and the projection direction is fixed so the count is
an algebra map onto matrix products.  Operators on Omega are sparse dicts
{(to, from): value}.  The projection pi, the central span image zeta of
the crossed ring and the embedding iota of Z kG are integer rows, built
once per basis element on this algebra, from which verify decides the
identities among them over Z.
"""

from __future__ import annotations

from .algebra import Algebra, Element
from .crossed import CrossedBurnsideRing
from .groups import GroupTooLarge, orbits
from .linalg import integer_kernel
from .scalars import ScalarRing, ZZ
from .subgroups import SubgroupClassTable, subgroup_key

DEFAULT_SPAN_BOUND = 24


class SpanBasisElement:
    """Transitive span over Omega x Omega: canonical (stabilizer, x, y)."""

    __slots__ = ("index", "stabilizer", "x", "y")

    def __init__(self, index: int, stabilizer: frozenset[int], x: int, y: int):
        self.index = index
        self.stabilizer = stabilizer
        self.x = x
        self.y = y


class MackeyAlgebra(Algebra):
    """Span algebra on Omega x Omega for one group, with integer structure.

    A span is labelled [s,x,y]: the position s of its stabilizer in
    self.subgroups and its points x and y of Omega."""

    def __init__(self, table: SubgroupClassTable, bound: int = DEFAULT_SPAN_BOUND):
        G = table.group
        if G.order > bound:
            raise GroupTooLarge(f"bound exceeded: order {G.order} > span bound {bound}")
        super().__init__()
        self.table = table
        self.group = G
        # Omega: one coset space per subgroup, subgroups in canonical order
        self.subgroups = sorted(table.all_subgroups, key=lambda s: (len(s), subgroup_key(s)))
        self.points: list[tuple[int, int]] = []  # (subgroup idx, coset rep)
        self._cosets: list[range] = []  # _cosets[si]: the points of G/H, H = subgroups[si]
        self._where: list[list[int]] = []  # _where[si][g]: the point gH of G/H
        for si, H in enumerate(self.subgroups):
            reps, where = G.coset_lookup(H)
            start = len(self.points)
            self.points.extend((si, r) for r in reps)
            self._where.append([start + c for c in where])
            self._cosets.append(range(start, len(self.points)))
        self.npoints = len(self.points)
        # action table: act[g][point], the point g rH of the point rH
        self.act = [[self._where[si][row[r]] for si, r in self.points] for row in G._mul]
        # subgroups by position: generators, conjugates conj[g][si], meets meet[si][sj]
        position = self._position = {H: si for si, H in enumerate(self.subgroups)}
        self._gens = [G.small_generating_set(H) for H in self.subgroups]
        conj = self._conj = [
            [position[G.conjugate_subgroup(g, H)] for H in self.subgroups] for g in range(G.order)
        ]
        self._meet = [[position[H & K] for K in self.subgroups] for H in self.subgroups]
        # the spans are the G-orbits of the triples (position of S, x, y) with
        # S fixing x and y; taken in (|S|, key S, x, y) order, the first triple
        # of each orbit is its least conjugate, the canonical span
        act = self.act
        triples = []
        for si, gens in enumerate(self._gens):
            fixed = [p for p in range(self.npoints) if all(act[h][p] == p for h in gens)]
            triples.extend((si, x, y) for x in fixed for y in fixed)
        spans = orbits(
            triples,
            G.generator_indices,
            lambda g, t: (conj[g][t[0]], act[g][t[1]], act[g][t[2]]),
        )
        canonical = [orbit[0] for orbit in spans]
        self.basis = [
            SpanBasisElement(i, self.subgroups[si], x, y) for i, (si, x, y) in enumerate(canonical)
        ]
        self.n = len(self.basis)
        self.labels = tuple(f"[{si},{x},{y}]" for si, x, y in canonical)
        # every G-conjugate (position of gSg^-1, gx, gy) of every basis triple
        self._index: dict[tuple[int, int, int], int] = {
            t: i for i, orbit in enumerate(spans) for t in orbit
        }
        # the legs: the coset spaces of the source point x and the target point y
        self._source = [self.points[x][0] for _, x, _ in canonical]
        self._target = [self.points[y][0] for _, _, y in canonical]
        # the S_i-orbits of each fiber slice, as (w, position of S_i n wS_jw^-1)
        self._slices: dict[tuple[int, int, int, int], list[tuple[int, int]]] = {}
        # the integer rows of the comparison maps, built once each on first use
        self._proj: dict[int, dict[tuple[int, int], int]] = {}  # pi, per span
        self._zeta: dict[int, dict[int, int]] = {}  # zeta, per crossed pair
        self._iota: dict[int, dict[tuple[int, int], int]] = {}  # iota, per conjugacy class

    # -- points ---------------------------------------------------------------

    def point_of(self, si: int, element: int) -> int:
        return self._where[si][element]

    # -- basis ------------------------------------------------------------------

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

    def one(self, scalar: ScalarRing = ZZ) -> Element:
        """Sum of the diagonal spans (H over (eH, eH)), one per subgroup."""
        coeffs = [0] * self.n
        for si in range(len(self.subgroups)):
            p = self.point_of(si, 0)
            coeffs[self._index[(si, p, p)]] += 1
        return self.element(coeffs, scalar)

    def span_index(self, S: frozenset[int], x: int, y: int) -> int:
        """Basis index of the span with stabilizer S over (x, y)."""
        key = (self._position[S], x, y)
        if key not in self._index:
            raise ValueError("stabilizer does not fix the target pair")
        return self._index[key]

    # -- composition ----------------------------------------------------------------

    def _basis_product(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """Sparse product ((k, c), ...) of basis spans i and j.

        The fiber {(vS_i, wS_j) : v x_i = w y_j} glues the input leg of i to
        the output leg of j, so project(i . j) = project(i) @ project(j).
        Every G-orbit of it meets the slice v = e, and two slice points are
        in one G-orbit exactly when they are in one S_i-orbit (the Mackey
        double-coset formula).  The orbit of (eS_i, wS_j) is the span
        (S_i n wS_jw^-1, w x_j, y_i).  The slice and its S_i-orbits depend
        only on (S_i, S_j, y_j, x_i), so each is found once (_slices).
        """
        if self._source[i] != self._target[j]:
            return ()  # the glued legs lie in different coset spaces: empty fiber
        bi, bj = self.basis[i], self.basis[j]
        act = self.act
        si, sj = self._position[bi.stabilizer], self._position[bj.stabilizer]
        key = (si, sj, bj.y, bi.x)
        if key not in self._slices:
            # the slice: points wS_j of G/S_j with w y_j = x_i, in S_i-orbits
            points, meet, conj = self.points, self._meet[si], self._conj
            slice_ = [p for p in self._cosets[sj] if act[points[p][1]][bj.y] == bi.x]
            reps = [points[orbit[0]][1] for orbit in orbits(slice_, self._gens[si], lambda h, q: act[h][q])]
            self._slices[key] = [(w, meet[conj[w][sj]]) for w in reps]
        counts: dict[int, int] = {}
        for w, m in self._slices[key]:
            k = self._index[(m, act[w][bj.x], bi.y)]
            counts[k] = counts.get(k, 0) + 1
        return tuple(sorted(counts.items()))

    def sparse_product(self, x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        """The product x y of integer combinations of spans, each given and
        returned sparse as {span: nonzero int}.  Only the pairs i j whose
        legs meet (the source of i is the target of j) are multiplied;
        every other basis product is empty."""
        by_target: dict[int, list[tuple[int, int]]] = {}
        for j, b in y.items():
            by_target.setdefault(self._target[j], []).append((j, b))
        out: dict[int, int] = {}
        for i, a in x.items():
            for j, b in by_target.get(self._source[i], ()):
                for k, c in self.product(i, j):
                    out[k] = out.get(k, 0) + a * b * c
        return {k: v for k, v in out.items() if v}

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
        group_gens = G.small_generating_set(range(G.order))
        gens: set[int] = set()
        for si, H in enumerate(self.subgroups):
            eH = self.point_of(si, 0)
            gens.add(self.span_index(H, eH, eH))
            below = [K for K in self.subgroups if K < H]
            for K in below:
                if any(K < L for L in below):
                    continue
                eK = self.point_of(self._position[K], 0)
                gens.add(self.span_index(K, eK, eH))
                gens.add(self.span_index(K, eH, eK))
            for g in group_gens:
                gHg = G.conjugate_subgroup(g, H)
                gens.add(self.span_index(gHg, self.point_of(si, g), self.point_of(self._position[gHg], 0)))
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
        for i, (source, target) in enumerate(zip(self._source, self._target)):
            if source == target:
                diagonal.setdefault(source, []).append(i)
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for a in self.generator_spans():
            # a z and z a vanish on the diagonal blocks that a does not touch
            source, target = self._source[a], self._target[a]
            touched = diagonal[source] + (diagonal[target] if target != source else [])
            for i in touched:
                for sign, product in ((1, self.product(i, a)), (-1, self.product(a, i))):
                    for k, c in product:
                        row = rows.setdefault((a, k), {})
                        row[i] = row.get(i, 0) + sign * c
        support = sorted(i for block in diagonal.values() for i in block)
        return integer_kernel(rows.values(), self.n, scalar, support=support)

    def commutator(self, x: dict[int, int]) -> dict[tuple[int, int], int]:
        """The commutators x b - b x with every basis span b, for the
        integer combination x given by its nonzero coefficients {span: int}:
        sparse {(b, k): nonzero int}, k the span of the coefficient.

        A product i j is empty unless the source component of i is the
        target component of j, so each span b is multiplied only with the
        support spans that meet it that way; every other product is zero
        on both sides.
        """
        source, target = self._source, self._target
        by_source: dict[int, list] = {}  # support spans i by source: i j may be nonzero
        by_target: dict[int, list] = {}  # support spans i by target: j i may be nonzero
        for i, a in x.items():
            by_source.setdefault(source[i], []).append((i, a))
            by_target.setdefault(target[i], []).append((i, a))
        out: dict = {}
        for j in range(self.n):
            diff: dict[int, int] = {}
            for i, a in by_source.get(target[j], ()):
                for k, c in self.product(i, j):
                    diff[k] = diff.get(k, 0) + a * c
            for i, a in by_target.get(source[j], ()):
                for k, c in self.product(j, i):
                    diff[k] = diff.get(k, 0) - a * c
            out.update(((j, k), v) for k, v in diff.items() if v)
        return out

    # -- the comparison maps as integer rows ----------------------------------------------

    def project_matrix(self, i: int) -> dict[tuple[int, int], int]:
        """Row of the projection pi onto the Hecke algebra: the operator of
        basis span i, sparse {(to, from): fiber points}, one per point vS."""
        if i not in self._proj:
            b = self.basis[i]
            op: dict[tuple[int, int], int] = {}
            for p in self._cosets[self._position[b.stabilizer]]:
                v = self.points[p][1]
                key = (self.act[v][b.y], self.act[v][b.x])
                op[key] = op.get(key, 0) + 1
            self._proj[i] = op
        return self._proj[i]

    def zeta_row(self, xring: CrossedBurnsideRing, i: int) -> dict[int, int]:
        """Row of the central span image zeta of crossed pair i, for the
        crossed ring of this algebra's class table: {span: multiplicity}.

        The pair [L,a] contributes, for every subgroup U and every double
        coset rep w of L\\G/U, the span with stabilizer w^-1 L w n U over
        the point pair (eU, sU) in the U-component, where s = w^-1 a w.
        The double cosets are the L-orbits on the U-component of Omega, w
        the rep of each orbit's first point; S is read off by position.
        """
        if i not in self._zeta:
            G, act = self.group, self.act
            pair = xring.pairs[i]
            pos = self._position[xring.table.classes[pair.subgroup_class].representative]
            row: dict[int, int] = {}
            for si, points in enumerate(self._cosets):
                for orbit in orbits(points, self._gens[pos], lambda h, q: act[h][q]):
                    winv = G.inv(self.points[orbit[0]][1])
                    S = self._meet[self._conj[winv][pos]][si]
                    k = self._index[(S, self.point_of(si, 0), self.point_of(si, G.conj(winv, pair.label)))]
                    row[k] = row.get(k, 0) + 1
            self._zeta[i] = row
        return self._zeta[i]

    def iota_row(self, k: int) -> dict[tuple[int, int], int]:
        """Row of the embedding iota of Z kG in the Hecke algebra at the k-th
        class sum: the class sum acts on the permutation module k Omega by
        x p for x in the class, so the row counts {(x p, p): elements x}."""
        if k not in self._iota:
            row: dict[tuple[int, int], int] = {}
            for x in self.group.conjugacy_classes[k]:
                for p, xp in enumerate(self.act[x]):
                    row[(xp, p)] = row.get((xp, p), 0) + 1
            self._iota[k] = row
        return self._iota[k]


class HeckeAlgebra:
    """End_kG(k Omega): orbit-indicator matrices on Omega x Omega."""

    def __init__(self, mackey: MackeyAlgebra):
        self.mackey = mackey
        self.group = mackey.group
        act = mackey.act
        pairs = [(x, y) for x in range(mackey.npoints) for y in range(mackey.npoints)]
        self.orbits: list[list[tuple[int, int]]] = orbits(
            pairs, self.group.generator_indices, lambda g, p: (act[g][p[0]], act[g][p[1]])
        )
        orbit_id = [[-1] * mackey.npoints for _ in range(mackey.npoints)]
        for idx, orbit in enumerate(self.orbits):
            for x, y in orbit:
                orbit_id[x][y] = idx
        self.n = len(self.orbits)
        self.orbit_id = orbit_id  # orbit_id[x][y]: the orbit of the pair (x, y)
