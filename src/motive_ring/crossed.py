"""The crossed Burnside ring: transitive sets carrying centralizer labels.

Basis: pairs (H, a) with H a subgroup and a in C_G(H), up to simultaneous
conjugation.  The fast product uses the double-coset formula

    [H,a][K,b] = sum over g in H\\G/K of [H n gKg^-1, a . gbg^-1]

and is pinned to the definition by an orbit-decomposition oracle that
multiplies the literal product crossed sets.  Marks take values in the
group algebras of centralizers; the component at the trivial subgroup is
the ring map onto the center of kG.  Both are integer rows, one per basis
pair (mark_rows), from which verify decides their identities over Z.
"""

from __future__ import annotations

from math import lcm

from .algebra import Algebra, Element
from .burnside import BurnsideRing
from .groups import orbits
from .scalars import QQ, ZZ, ScalarRing, p_local
from .subgroups import SubgroupClassTable

SCAN_CLASSES = 14  # idempotent_oracle scans 2^n ghost vectors, n classes up to this


class CrossedPairClass:
    """Orbit of a (subgroup, centralizer label) pair under conjugation."""

    __slots__ = ("index", "subgroup_class", "label", "name")

    def __init__(self, index: int, subgroup_class: int, label: int, name: str):
        self.index = index
        self.subgroup_class = subgroup_class
        self.label = label  # element index, in the centralizer of the class representative
        self.name = name


class CrossedBurnsideRing(Algebra):
    """Crossed Burnside ring bound to a subgroup class table."""

    commutative = True

    def __init__(self, table: SubgroupClassTable):
        super().__init__()
        self.table = table
        self.group = table.group
        self.burnside = BurnsideRing(table)
        G = self.group
        pairs: list[CrossedPairClass] = []
        self._pair_index: dict[tuple[int, int], int] = {}
        for cls in table.classes:
            gens = G.small_generating_set(cls.normalizer)
            for orbit in orbits(sorted(cls.centralizer), gens, G.conj):
                rep = orbit[0]  # the least label of its orbit
                idx = len(pairs)
                name = f"[{cls.name},{G.element_string(rep)}]"
                pairs.append(CrossedPairClass(idx, cls.index, rep, name))
                for x in orbit:
                    self._pair_index[(cls.index, x)] = idx
        self.pairs = tuple(pairs)
        self.n = len(pairs)
        self.labels = tuple(p.name for p in pairs)
        self._mark_rows: dict[int, list[dict[int, int]]] = {}

    # -- canonicalization ---------------------------------------------------

    def canonical_pair(self, subgroup, label: int) -> int:
        """Index of the basis pair conjugate to (subgroup, label)."""
        return self._fused_pair(*self.table.fusion(subgroup), label)

    def _fused_pair(self, cls_idx: int, g: int, label: int) -> int:
        """Index of the pair (class representative, g label g^-1)."""
        try:
            return self._pair_index[(cls_idx, self.group.conj(g, label))]
        except KeyError:
            raise ValueError("label outside centralizer") from None

    def one(self, scalar: ScalarRing = ZZ) -> Element:
        return self.basis_element(
            self.canonical_pair(self.table.classes[-1].representative, 0), scalar
        )

    # -- product ---------------------------------------------------------------

    def _basis_product(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """The double-coset formula read off the table: per meet, the label
        a . gbg^-1, which centralizes the meet, conjugated by the meet's
        fusion conjugator c names the pair (canonical_pair keeps the checked
        lookup for user input)."""
        G = self.group
        mul, inv, pair_index = G._mul, G._inv, self._pair_index
        pi, pj = self.pairs[i], self.pairs[j]
        a_row, b = mul[pi.label], pj.label
        counts: dict[int, int] = {}
        for cls_idx, c, g in self.table.double_coset_meets(pi.subgroup_class, pj.subgroup_class):
            label = a_row[mul[mul[g][b]][inv[g]]]
            k = pair_index[(cls_idx, mul[mul[c][label]][inv[c]])]
            counts[k] = counts.get(k, 0) + 1
        return tuple(sorted(counts.items()))

    def basis_product_oracle(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """Multiply two basis pairs by decomposing the literal product set.

        Points are pairs of cosets (rx H, ry K) with the diagonal action,
        numbered x |G/K| + y; each generator of G is one permutation of
        these numbers.  The orbits are found by this method's own loop, a
        breadth-first walk from each point not yet seen, in increasing
        order, marked in a bytearray; it shares no orbit routine with the
        enumeration of the labels.  The label of a point is the product of
        the conjugated labels; each orbit is one transitive crossed set,
        with the stabilizer rx H rx^-1 n ry K ry^-1 of its first point.
        The result has the sparse form of product.
        """
        G = self.group
        pi, pj = self.pairs[i], self.pairs[j]
        H = self.table.classes[pi.subgroup_class].representative
        K = self.table.classes[pj.subgroup_class].representative
        a, b = pi.label, pj.label
        reps_h, where_h = G.coset_lookup(H)
        reps_k, where_k = G.coset_lookup(K)
        nk = len(reps_k)
        # each generator of G as one permutation of the flat points
        perms = []
        for g in G.generator_indices:
            row = G._mul[g]
            on_k = [where_k[row[r]] for r in reps_k]
            perms.append([hx * nk + ky for hx in (where_h[row[r]] for r in reps_h) for ky in on_k])
        npoints = len(reps_h) * nk
        seen = bytearray(npoints)
        counts: dict[int, int] = {}
        for start in range(npoints):
            if seen[start]:
                continue
            seen[start] = 1
            orbit = [start]
            for q in orbit:
                for perm in perms:
                    r = perm[q]
                    if not seen[r]:
                        seen[r] = 1
                        orbit.append(r)
            rx, ry = reps_h[start // nk], reps_k[start % nk]
            stab = G.conjugate_subgroup(rx, H) & G.conjugate_subgroup(ry, K)
            label = G.mul(G.conj(rx, a), G.conj(ry, b))
            k = self.canonical_pair(stab, label)
            counts[k] = counts.get(k, 0) + 1
        return tuple(sorted(counts.items()))

    def multiply_oracle(self, x: Element, y: Element) -> Element:
        self._check(x, x.scalar)
        self._check(y, x.scalar)
        s = x.scalar
        acc = [s.zero] * self.n
        for i, a in enumerate(x.coeffs):
            if s.is_zero(a):
                continue
            for j, b in enumerate(y.coeffs):
                if s.is_zero(b):
                    continue
                ab = s.mul(a, b)
                for k, c in self.basis_product_oracle(i, j):
                    acc[k] = s.add(acc[k], s.mul(ab, s.coerce(c)))
        return Element(self, s, tuple(acc))

    # -- maps to and from the plain Burnside ring --------------------------------

    def forget_labels(self, x: Element) -> Element:
        """Sum the coefficients of [U,t] over t into [G/U]."""
        s = x.scalar
        coeffs = [s.zero] * len(self.table)
        for i, c in enumerate(x.coeffs):
            k = self.pairs[i].subgroup_class
            coeffs[k] = s.add(coeffs[k], c)
        return Element(self.burnside, s, tuple(coeffs))

    def with_identity_labels(self, b: Element) -> Element:
        """Embed the Burnside ring along [G/U] -> [U, identity]."""
        s = b.scalar
        coeffs = [s.zero] * self.n
        for k, c in enumerate(b.coeffs):
            cls = self.table.classes[k]
            coeffs[self.canonical_pair(cls.representative, 0)] = c
        return Element(self, s, tuple(coeffs))

    # -- marks -------------------------------------------------------------------

    def mark_rows(self, k: int) -> list[dict[int, int]]:
        """Integer rows of the mark component at subgroup class k, one per
        basis pair: row i counts the conjugates g a g^-1 of the label a of
        pair [D,a] over the cosets gD fixed by the class-k representative,
        the meets of class k in double_coset_meets, each with g its least
        member.  Built once per class, on first use; class 0, the trivial
        subgroup, alone gives the center image."""
        if k not in self._mark_rows:
            G, meets = self.group, self.table.double_coset_meets
            rows = []
            for pair in self.pairs:
                row: dict[int, int] = {}
                for c, _, g in meets(k, pair.subgroup_class):
                    if c == k:
                        t = G.conj(g, pair.label)
                        row[t] = row.get(t, 0) + 1
                rows.append(row)
            self._mark_rows[k] = rows
        return self._mark_rows[k]

    def center_image_rows(self) -> list[list[int]]:
        """Center images of all basis pairs, as conjugacy-class coordinate rows."""
        reps = [cls[0] for cls in self.group.conjugacy_classes]
        return [[row.get(t, 0) for t in reps] for row in self.mark_rows(0)]

    # -- idempotents ----------------------------------------------------------------

    def dress_idempotents(self, mode) -> list[tuple[int, Element]]:
        """The Burnside ring's Dress idempotents for mode ("solvable" or a
        prime p, see BurnsideRing.dress_idempotents), embedded.  For
        "solvable" they are the primitive idempotents over Z, one per
        perfect residual class."""
        return [(j, self.with_identity_labels(f)) for j, f in self.burnside.dress_idempotents(mode)]

    def idempotent_oracle(self) -> list[Element]:
        """Independent scan for the primitive idempotents over Z.

        Every idempotent has 0/1 marks, so scanning all nonzero 0/1 ghost
        vectors, keeping integral pullbacks, embedding them, and taking the
        minimal ones under e <= f iff ef = e finds every candidate.  Marks
        are a ring map, so e <= f iff the mask of e lies inside that of f:
        the minimal pass reads the masks and multiplies nothing.

        The scan takes 2^n steps for n subgroup classes, so it raises
        ``ValueError("class-count bound exceeded ...")`` before any scan
        when ``self.table.classes`` holds more than SCAN_CLASSES classes.
        """
        nclasses = len(self.table.classes)
        if nclasses > SCAN_CLASSES:
            raise ValueError("class-count bound exceeded for the idempotent scan")
        # pullbacks of the unit ghost vectors as integer columns over one
        # common denominator; a 0/1 ghost vector pulls back to a column sum
        units = [self.burnside.from_marks([int(i == j) for j in range(nclasses)], QQ)
                 for i in range(nclasses)]
        denom = lcm(*(c.denominator for u in units for c in u.coeffs))
        columns = [[int(c * denom) for c in u.coeffs] for u in units]
        acc = [0] * nclasses
        found: list[tuple[int, Element]] = []
        for step in range(1, 1 << nclasses):
            # Gray code: step flips one bit of the previous mask
            bit = (step & -step).bit_length() - 1
            mask = step ^ step >> 1
            sign = 1 if mask >> bit & 1 else -1
            acc = [a + sign * c for a, c in zip(acc, columns[bit])]
            if all(a % denom == 0 for a in acc):
                coeffs = [a // denom for a in acc]
                found.append((mask, self.with_identity_labels(self.burnside.element(coeffs, ZZ))))
        minimal = [
            e for mask, e in found if not any(m != mask and m & mask == m for m, _ in found)
        ]
        minimal.sort(key=lambda e: e.coeffs)
        return minimal

    # -- p-local decomposition report -------------------------------------------------

    def ideal_rank(self, e: Element) -> int:
        """Rank over Q of the ideal eA, for an idempotent e over Q or Z_(p).

        Multiplication by e is a projection onto eA, so the rank is its
        trace: the sum over i of e_i times the sum over j of the structure
        constant c_ij^j.  A trace that is not an integer shows e is not an
        idempotent, and raises RuntimeError.
        """
        trace = sum(
            c * sum(m for j in range(self.n) for k, m in self.product(i, j) if k == j)
            for i, c in enumerate(e.coeffs)
            if c
        )
        if trace.denominator != 1:
            raise RuntimeError(f"trace {trace} is not an integer rank: not an idempotent")
        return int(trace)

    def p_local_report(self, p: int) -> dict:
        """Decomposition of the identity over p-local scalars.

        For every p-perfect residual class J: the embedded idempotent, its
        fiber, the rank of its ideal, and the rank of the corresponding
        ideal for the plain crossed ring of the quotient N(J)/J, with an
        agreement flag per class.
        """
        scalar = p_local(p)
        embedded = self.dress_idempotents(p)
        fibers = self.table.residual_fiber_classes(p)
        idempotent, orthogonal, sum_is_one = self.idempotent_family([e for _, e in embedded])
        components = []
        for j, e in embedded:
            cls = self.table.classes[j]
            rank_g = self.ideal_rank(e)
            if cls.order == 1:
                # N(1)/1 is G, and e is G's own idempotent at the trivial class
                order_w, rank_w = self.group.order, rank_g
            else:
                W = self.table.quotient(cls.normalizer, cls.representative)
                wring = CrossedBurnsideRing(SubgroupClassTable(W))
                # the trivial class is first in the quotient's ordering
                f1 = dict(wring.dress_idempotents(p))[0]
                order_w = W.order
                rank_w = wring.ideal_rank(f1)
            components.append(
                {
                    "residual": cls.name,
                    "fiber": [self.table.classes[i].name for i in fibers[j]],
                    "idempotent": e.to_json(),
                    "ideal_rank": rank_g,
                    "fiber_pair_count": sum(
                        1 for pr in self.pairs if pr.subgroup_class in fibers[j]
                    ),
                    "quotient_order": order_w,
                    "quotient_ideal_rank": rank_w,
                    "ranks_agree": rank_g == rank_w,
                }
            )
        return {
            "prime": p,
            "scalar": scalar.tag,
            "idempotent": idempotent,
            "orthogonal": orthogonal,
            "sum_is_one": sum_is_one,
            "components": components,
        }

    # -- rank checks -------------------------------------------------------------------

    def marks_matrix_rows(self) -> list[list[int]]:
        """Crossed marks of each basis pair, flattened to integer coordinates."""
        layout = [(self.mark_rows(k), sorted(cls.centralizer)) for k, cls in enumerate(self.table.classes)]
        return [[rows[i].get(t, 0) for rows, support in layout for t in support] for i in range(self.n)]
