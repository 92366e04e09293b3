"""Subgroup lattice: conjugacy classes of subgroups, fusion, residuals.

The production enumeration walks conjugacy classes: it joins one
representative per class with one cyclic subgroup outside it per orbit of
its normalizer, grown from the representative by Dimino's closure.  The
members of a new class are reached by a breadth-first search over the
generators of G, which gives each its fusion conjugator; the normalizer of
the representative is read off the images of its generators.  The double
cosets HgK of two class representatives are the H-orbits on the coset
table of K, with H n gKg^-1 the stabilizer of gK; those in H's own class
are the cosets H fixes.  The lattice has no bound of its own: the order
bound of the group is checked when the group is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .groups import FiniteGroup, orbits, quotient_group


def subgroup_key(subgroup) -> tuple[int, ...]:
    return tuple(sorted(subgroup))


def _walk_classes(G: FiniteGroup):
    """Conjugacy classes of subgroups by extending one subgroup per class.

    Each class representative R is joined with one cyclic subgroup outside
    it per N_G(R)-orbit (Neubueser's cyclic extension; conjugate cyclic
    subgroups give conjugate joins).  Every nontrivial J is <H, c> for a
    maximal H < J, and conjugating H onto its representative carries J onto
    a conjugate, so every class is reached.  A join J in no known class is
    conjugated by a breadth-first search over the generators of G, which
    reaches each member K once, with a c such that c J c^-1 = K; the
    representative is the member of least key, and its normalizer is read
    off the images of its generators.

    Returns (representatives, their generators, normalizers, subgroups,
    fusion): classes in (order, key) order, every subgroup in that order,
    and fusion mapping each subgroup to (class index, g) with g K g^-1 the
    representative of its class.
    """
    mul, inv, conj = G._mul, G._inv, G.conj
    group_gens = G.generator_indices
    cyclic: dict[frozenset[int], int] = {}  # <g>, listed from powers -> its least generator
    cyclic_of = [0] * G.order  # element -> least generator of its cyclic subgroup
    for g in range(1, G.order):
        powers = [g]
        while powers[-1]:
            powers.append(mul[powers[-1]][g])
        cyclic_of[g] = cyclic.setdefault(frozenset(powers), g)
    reps: list[frozenset[int]] = []
    rep_gens: list[list[int]] = []
    normalizers: list[frozenset[int]] = []
    found: dict[frozenset[int], tuple[int, int]] = {}

    def add_class(J, gens):
        conjugator = {J: 0}  # member K -> c with c J c^-1 = K
        members = [J]
        for K in members:
            c = conjugator[K]
            for s in group_gens:
                L = G.conjugate_subgroup(s, K)
                if L not in conjugator:
                    conjugator[L] = mul[s][c]
                    members.append(L)
        rep = min(members, key=subgroup_key)
        c0 = conjugator[rep]
        for K in members:
            found[K] = (len(reps), mul[c0][inv[conjugator[K]]])
        gens = [conj(c0, x) for x in gens]
        normalizer = frozenset(
            g for g, row in enumerate(mul) if all(mul[row[x]][inv[g]] in rep for x in gens)
        )
        reps.append(rep)
        rep_gens.append(gens)
        normalizers.append(normalizer)

    add_class(frozenset({0}), [])
    i = 0
    while i < len(reps):
        outside = [cg for cg in cyclic.values() if cg not in reps[i]]  # N_G(R) keeps them outside
        for orbit in orbits(outside, G.small_generating_set(normalizers[i]), lambda n, c: cyclic_of[conj(n, c)]):
            gens = rep_gens[i] + [orbit[0]]
            elements, members = list(reps[i]), set(reps[i])
            G._extend(elements, members, gens)  # J = <R, c>, grown from R
            J = frozenset(elements)
            if J not in found:
                add_class(J, gens)
        i += 1
    order = sorted(range(len(reps)), key=lambda c: (len(reps[c]), subgroup_key(reps[c])))
    renumber = {old: new for new, old in enumerate(order)}
    fusion = {K: (renumber[i], g) for K, (i, g) in found.items()}
    subgroups = sorted(found, key=lambda s: (len(s), subgroup_key(s)))
    return (
        [reps[i] for i in order],
        [rep_gens[i] for i in order],
        [normalizers[i] for i in order],
        subgroups,
        fusion,
    )


def all_subgroups(G: FiniteGroup) -> list[frozenset[int]]:
    """All subgroups, ordered by (order, key), from the class walk."""
    return _walk_classes(G)[3]


# -- residual subgroups ----------------------------------------------------


def derived_subgroup(G: FiniteGroup, H) -> frozenset[int]:
    """[H, H]: the normal closure in H of the commutators of H's generators.

    The quotient of H by that closure is generated by commuting images of
    the generators, so it is abelian.
    """
    hgens = G.small_generating_set(H)
    gens = [G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b)) for a in hgens for b in hgens]
    N = G.closure(gens)
    while True:
        new = {G.conj(h, x) for h in hgens for x in gens} - N
        if not new:
            return N
        gens += new
        N = G.closure(gens)


def solvable_residual(G: FiniteGroup, H) -> frozenset[int]:
    """Stable term of the derived series of H."""
    cur = frozenset(H)
    while True:
        nxt = derived_subgroup(G, cur)
        if nxt == cur:
            return cur
        cur = nxt


def p_residual(G: FiniteGroup, H, p: int) -> frozenset[int]:
    """Smallest normal subgroup of H with p-group quotient.

    Computed as the stable term of H |-> <elements of H of order prime to p>.
    """
    cur = frozenset(H)
    while True:
        pprime = [x for x in cur if G.element_order(x) % p != 0]
        nxt = G.closure(pprime)
        if nxt == cur:
            return cur
        cur = nxt


def residual(G: FiniteGroup, H, mode) -> frozenset[int]:
    """mode is "solvable" or a prime p."""
    if mode == "solvable":
        return solvable_residual(G, H)
    if isinstance(mode, int) and mode >= 2:
        return p_residual(G, H, mode)
    raise ValueError(f"unknown residual mode {mode!r}")


# -- structure hints for class names ----------------------------------------


def _is_abelian(G: FiniteGroup, H) -> bool:
    hs = sorted(H)
    return all(G.mul(a, b) == G.mul(b, a) for a in hs for b in hs)


def _is_dihedral(G: FiniteGroup, H) -> bool:
    n = len(H)
    if n % 2 != 0 or n < 6:
        return False
    m = n // 2
    rot = next((x for x in H if G.element_order(x) == m), None)
    if rot is None:
        return False
    R = G.closure([rot])
    rinv = G.inv(rot)
    return any(
        s not in R and G.element_order(s) == 2 and G.conj(s, rot) == rinv for s in H
    )


def structure_hint(G: FiniteGroup, H) -> str:
    """Cheap isomorphism-type hint used in class names (no isomorphism testing)."""
    n = len(H)
    if n == 1:
        return "1"
    orders = sorted(G.element_order(x) for x in H)
    if orders[-1] == n:
        return f"C{n}"
    if _is_abelian(G, H):
        if n == 4:
            return "V4"
        p = min(o for o in orders if o > 1)
        if all(o in (1, p) for o in orders):
            return f"E{n}"
        return f"Ab{n}"
    if n == 6:
        return "S3"
    if n == 8:
        return "Q8" if orders.count(2) == 1 else "D8"
    if n == 12:
        if orders[-1] == 3:
            return "A4"
        return "Dic3" if orders.count(2) == 1 else "D12"
    if n == 24:
        center = {x for x in H if all(G.mul(x, h) == G.mul(h, x) for h in H)}
        if len(center) == 1:
            return "S4"
    if n == 60 and derived_subgroup(G, frozenset(H)) == frozenset(H):
        return "A5"
    if _is_dihedral(G, H):
        return f"D{n}"
    return f"G{n}"


# -- class table -------------------------------------------------------------


@dataclass
class SubgroupClass:
    """One conjugacy class of subgroups."""

    index: int
    representative: frozenset[int]
    key: tuple[int, ...]
    order: int
    name: str
    class_size: int
    centralizer: frozenset[int]
    normalizer: frozenset[int]
    solvable_residual: int = -1
    p_residuals: dict[int, int] = field(default_factory=dict)


class SubgroupClassTable:
    """Conjugacy classes of subgroups with fusion and residual data.

    Classes are ordered by (order, canonical key); this is a linear
    extension of subconjugacy, which keeps the mark matrix triangular.
    """

    def __init__(self, G: FiniteGroup):
        self.group = G
        reps, gens, normalizers, self.all_subgroups, self._fusion = _walk_classes(G)
        hints: dict[str, int] = {}
        self.classes: list[SubgroupClass] = []
        for idx, rep in enumerate(reps):
            hint = structure_hint(G, rep)
            hints[hint] = hints.get(hint, 0) + 1
            self.classes.append(
                SubgroupClass(
                    index=idx,
                    representative=rep,
                    key=subgroup_key(rep),
                    order=len(rep),
                    name=f"{hint}#{hints[hint]}",
                    class_size=G.order // len(normalizers[idx]),
                    centralizer=G.centralizer(gens[idx], normalizers[idx]),  # C_G(H) <= N_G(H)
                    normalizer=normalizers[idx],
                )
            )
        for cls in self.classes:
            res = solvable_residual(G, cls.representative)
            cls.solvable_residual = self.fusion(res)[0]
            for p in prime_divisors(G.order):
                cls.p_residuals[p] = self.fusion(p_residual(G, cls.representative, p))[0]
        self._caches: dict = {}

    def __len__(self):
        return len(self.classes)

    def fusion(self, subgroup) -> tuple[int, int]:
        """(class index, g) with g . subgroup . g^-1 = class representative."""
        try:
            return self._fusion[frozenset(subgroup)]
        except KeyError:
            raise ValueError("not a subgroup of this group") from None

    def class_named(self, name: str) -> SubgroupClass:
        for cls in self.classes:
            if cls.name == name:
                return cls
        raise KeyError(name)

    def residual_class(self, class_index: int, mode) -> int:
        cls = self.classes[class_index]
        if mode == "solvable":
            return cls.solvable_residual
        if mode not in cls.p_residuals:
            # primes not dividing the order leave every subgroup p-perfect
            cls.p_residuals[mode] = self.fusion(
                p_residual(self.group, cls.representative, mode)
            )[0]
        return cls.p_residuals[mode]

    def residual_fiber_classes(self, mode) -> dict[int, list[int]]:
        """Partition of class indices by the class of their residual."""
        fibers: dict[int, list[int]] = {}
        for cls in self.classes:
            fibers.setdefault(self.residual_class(cls.index, mode), []).append(cls.index)
        return fibers

    def double_coset_meets(self, h: int, k: int) -> tuple[tuple[int, int, int], ...]:
        """One (class, conjugator, g) per double coset HgK, H and K the
        representatives of classes h and k: g is the least element of HgK
        and (class, conjugator) is fusion(H n gKg^-1), the stabilizer of gK
        in H.  The double cosets are the H-orbits on G/K, each led by its
        least coset rep; gK is fixed by H exactly when the class is h.
        Write-once memo, one entry per class pair: the Burnside and crossed
        products, the crossed marks and the group checks read it."""
        cache = self._caches.setdefault("meets", {})
        if (h, k) not in cache:
            cosets = self._caches.setdefault("cosets", {})  # class k -> coset_lookup
            if k not in cosets:
                cosets[k] = self.group.coset_lookup(self.classes[k].representative)
            reps, where = cosets[k]
            H = sorted(self.classes[h].representative)
            rows = [self.group._mul[x] for x in H]
            seen = [False] * len(reps)
            meets = []
            for c, g in enumerate(reps):
                if seen[c]:
                    continue
                orbit = [where[row[g]] for row in rows]  # hgK for h in H
                for d in orbit:
                    seen[d] = True
                stabilizer = frozenset([x for x, d in zip(H, orbit) if d == c])
                meets.append((*self.fusion(stabilizer), g))
            cache[(h, k)] = tuple(meets)
        return cache[(h, k)]

    def quotient(self, N, J) -> FiniteGroup:
        """Cached quotient construction (write-once memo)."""
        key = (subgroup_key(N), subgroup_key(J))
        cache = self._caches.setdefault("quotients", {})
        if key not in cache:
            cache[key] = quotient_group(self.group, frozenset(N), frozenset(J))
        return cache[key]


def prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def subgroup_classes(G: FiniteGroup) -> SubgroupClassTable:
    return SubgroupClassTable(G)
