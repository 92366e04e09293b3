"""Finite permutation groups on 0-based points.

Elements are referred to by index into a canonical (lexicographically
sorted) element list; all products go through a cached multiplication
table, so the routines downstream never touch image tuples directly, and
every coset walk reads the one coset table of FiniteGroup.coset_lookup.
"""

from __future__ import annotations

import re
from operator import itemgetter


DEFAULT_DEGREE_BOUND = 16
DEFAULT_ORDER_BOUND = 200


class GroupTooLarge(ValueError):
    """Group exceeds the configured safety bound."""


class NotNormal(ValueError):
    """A quotient N/J requested with J not normal in N."""


class Permutation:
    """Bijection on {0..n-1}, stored as the image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    def __mul__(self, other: "Permutation") -> "Permutation":
        # left-to-right composition: (a * b)(x) = b(a(x))
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(other.images[i] for i in self.images)

    def inverse(self) -> "Permutation":
        out = [0] * self.degree
        for i, j in enumerate(self.images):
            out[j] = i
        return Permutation(out)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        """1-based cycle notation; identity prints as ``()``."""
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cyc)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _cycles(text: str) -> list[list[int]]:
    """The 0-based cycles of 1-based cycle notation like ``(1 2)(3 4)``
    (commas also allowed), checked to be disjoint."""
    text = text.strip()
    if not text:
        raise ValueError("empty cycle string")
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(text):
        pts = [p for p in re.split(r"[,\s]+", body.strip()) if p]
        if not pts:
            continue
        try:
            pts = [int(p) for p in pts]
        except ValueError:
            raise ValueError(f"malformed cycle notation: {text!r}") from None
        if any(p < 1 for p in pts):
            raise ValueError("cycle points are 1-based and must be positive")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle {body!r}")
        cycles.append([p - 1 for p in pts])
    moved = [p for cyc in cycles for p in cyc]
    if len(set(moved)) != len(moved):
        raise ValueError("cycles are not disjoint")
    return cycles


def _degree(cycles) -> int:
    """The least degree, at least 1, that holds every point of cycles."""
    return max([1] + [p + 1 for cyc in cycles for p in cyc])


def _from_cycles(cycles, degree: int) -> Permutation:
    """The permutation of degree points with the given disjoint cycles."""
    images = list(range(degree))
    for cyc in cycles:
        for i, p in enumerate(cyc):
            images[p] = cyc[(i + 1) % len(cyc)]
    return Permutation(images)


def parse_cycles(text: str, degree: int | None = None) -> Permutation:
    """Parse 1-based cycle notation like ``(1 2)(3 4)`` (commas also allowed)."""
    cycles = _cycles(text)
    return _from_cycles(cycles, max(degree or 0, _degree(cycles)))


def orbits(points, gens, act) -> list[list]:
    """Orbits of the group generated by gens, on points closed under it.

    act(g, p) is the image of the point p under the generator g.  A finite
    group's orbit of p is the closure of p under its generators, so no
    inverses are needed.  The orbits come in the order of their first point
    in points, each listing that point first and the rest as reached.
    """
    seen = set()
    out = []
    for p in points:
        if p in seen:
            continue
        seen.add(p)
        orbit = [p]
        for q in orbit:
            for g in gens:
                r = act(g, q)
                if r not in seen:
                    seen.add(r)
                    orbit.append(r)
        out.append(orbit)
    return out


class FiniteGroup:
    """Permutation group with its elements and Cayley table, built at
    construction; an order over order_bound raises GroupTooLarge."""

    def __init__(self, degree: int, generators, *, order_bound: int = DEFAULT_ORDER_BOUND, name: str = ""):
        self.degree = degree
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if g.images != tuple(range(degree)) and g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        self.name = name
        self._orders: list[int] | None = None
        self._classes: tuple[tuple[int, ...], ...] | None = None
        self._materialize(order_bound)

    # -- materialization -------------------------------------------------

    def _materialize(self, bound: int):
        """Elements by breadth-first search, then the Cayley table.

        Every element c other than the identity is reached as c = a * g for
        an earlier element a and a generator g, so its column of the table
        is i * c = (i * a) * g: one lookup per entry in a's column and g's.
        Only the generator columns compose tuples, which keeps the cost at
        |G| * #gens * degree + |G|^2 rather than |G|^2 * degree.  The search
        stops as soon as it holds more than bound elements, the identity
        included.
        """
        identity = tuple(range(self.degree))
        gen_images = [g.images for g in self.generators]
        parent = {identity: None}  # c -> (a, position of g) with c = a * g
        frontier = [identity]
        while frontier:
            new = []
            for a in frontier:
                if len(parent) > bound:
                    raise GroupTooLarge(f"group too large: order exceeds bound {bound}")
                for k, g in enumerate(gen_images):
                    c = tuple(g[i] for i in a)
                    if c not in parent:
                        parent[c] = (a, k)
                        new.append(c)
            frontier = new
        ordered = tuple(sorted(parent))
        index = {t: i for i, t in enumerate(ordered)}
        gen_cols = [[index[tuple(g[x] for x in a)] for a in ordered] for g in gen_images]
        cols = [None] * len(ordered)
        cols[0] = list(range(len(ordered)))
        for c, link in parent.items():  # breadth-first: every parent comes first
            if link is not None:
                a, k = link
                ca, cg = cols[index[a]], gen_cols[k]
                cols[index[c]] = [cg[x] for x in ca]
        mul = [list(row) for row in zip(*cols)]
        self._elements = ordered
        self._index = index
        self._mul = mul
        self._inv = [col.index(0) for col in cols]

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        return self._elements

    @property
    def order(self) -> int:
        return len(self._elements)

    # -- element arithmetic (by index) -----------------------------------

    @property
    def identity(self) -> int:
        return 0  # identity image tuple sorts first

    @property
    def generator_indices(self) -> list[int]:
        """The generators of the group, as element indices."""
        return [self._index[g.images] for g in self.generators]

    def mul(self, i: int, j: int) -> int:
        return self._mul[i][j]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def conj(self, g: int, a: int) -> int:
        """g a g^-1."""
        return self._mul[self._mul[g][a]][self._inv[g]]

    def perm(self, i: int) -> Permutation:
        return Permutation(self.elements[i])

    def element_index(self, perm: Permutation) -> int:
        try:
            return self._index[perm.images]
        except KeyError:
            raise ValueError(f"{perm} is not an element of this group") from None

    def element_order(self, i: int) -> int:
        if self._orders is None:
            self._orders = [0] * self.order
        if self._orders[i] == 0:
            n = 1
            x = i
            while x != 0:
                x = self.mul(x, i)
                n += 1
            self._orders[i] = n
        return self._orders[i]

    def element_string(self, i: int) -> str:
        return self.perm(i).cycle_string()

    # -- conjugacy classes ------------------------------------------------

    @property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted index tuples, ordered by least member (identity first)."""
        if self._classes is None:
            self._classes = tuple(
                tuple(sorted(cls))
                for cls in orbits(range(self.order), self.generator_indices, self.conj)
            )
        return self._classes

    # -- subgroups (as frozensets of element indices) ----------------------

    def closure(self, gens) -> frozenset[int]:
        """Subgroup generated by the given element indices (Dimino's algorithm)."""
        return frozenset(self._grow(gens)[0])

    def _grow(self, candidates, size: int = 0) -> tuple[list[int], list[int]]:
        """(elements, used): the subgroup generated by the candidates, taken
        in order, where used lists each candidate outside the subgroup
        generated by those before it.  Stops once the subgroup has size
        elements (size 0: never)."""
        elements, members, used = [0], {0}, []
        for g in candidates:
            if len(elements) == size:
                break
            if g not in members:
                used.append(g)
                self._extend(elements, members, used)
        return elements, used

    def _extend(self, elements, members, gens) -> None:
        """Grow the subgroup H = <gens[:-1]>, listed in elements and held in
        members, to <gens> in place; gens[-1] lies outside H.

        Dimino: the new subgroup is a union of cosets rH.  Left
        multiplication by a generator s carries rH to (s r)H, so the
        representatives are reached as products s r, and a product already
        in members names a coset already taken.  Each new coset is read off
        the table row of its representative in one itemgetter call over H.
        A subgroup with more than |G|/2 elements is G (Lagrange), so a join
        that passes that size is filled with every element at once.
        """
        mul, order = self._mul, self.order
        H = elements[:]
        coset_of = itemgetter(*H) if len(H) > 1 else lambda row: (row[0],)
        reps = [0]  # H itself, whose products s H are H again or gH
        for r in reps:
            for s in gens:
                t = mul[s][r]
                if t not in members:
                    coset = coset_of(mul[t])
                    elements.extend(coset)
                    members.update(coset)
                    if 2 * len(elements) > order:
                        elements[:] = range(order)
                        members.update(elements)
                        return
                    reps.append(t)

    def small_generating_set(self, subgroup) -> list[int]:
        """Generators chosen greedily in increasing order: each is the least
        element outside the subgroup generated by the ones before it."""
        return self._grow(sorted(subgroup), len(subgroup))[1]

    def centralizer(self, elements, among) -> frozenset[int]:
        """Elements commuting with every given element: the centralizer of
        the subgroup they generate, so a generating set is enough.  Only the
        candidates among are tested; any set that contains the centralizer
        will do, such as a normalizer or range(self.order)."""
        mul = self._mul
        pairs = [(h, mul[h]) for h in elements]
        return frozenset(g for g in among if all(mul[g][h] == hrow[g] for h, hrow in pairs))

    def conjugate_subgroup(self, g: int, subgroup) -> frozenset[int]:
        """g subgroup g^-1, read straight off the rows of g and of the table."""
        mul, row, ginv = self._mul, self._mul[g], self._inv[g]
        return frozenset([mul[row[h]][ginv] for h in subgroup])

    # -- cosets -----------------------------------------------------------

    def coset_lookup(self, subgroup):
        """(reps, where) for the left cosets gH of the subgroup: reps[c] is
        the least member of coset c, increasing in c, and where[g] the coset
        of g.  One pass over the table: an element not yet placed is the
        least of its coset, whose members are read off its row."""
        sub = list(subgroup)
        reps: list[int] = []
        where = [-1] * self.order
        for g, row in enumerate(self._mul):
            if where[g] < 0:
                c = len(reps)
                reps.append(g)
                for h in sub:
                    where[row[h]] = c
        return reps, where


def quotient_group(G: FiniteGroup, N, J) -> FiniteGroup:
    """N/J as the permutation group of the left-multiplication action of N
    on the cosets N/J, read off the coset table of J.

    J must be normal in N; raises NotNormal otherwise.
    """
    Nset, Jset = frozenset(N), frozenset(J)
    if not Jset <= Nset:
        raise NotNormal("not normal: second subgroup is not contained in the first")
    gens = G.small_generating_set(Nset)
    if any(G.conjugate_subgroup(n, Jset) != Jset for n in gens):
        raise NotNormal("not normal")
    reps, where = G.coset_lookup(Jset)
    inside = [c for c, r in enumerate(reps) if r in Nset]  # the cosets nJ, n in N
    position = {c: i for i, c in enumerate(inside)}
    perms = [Permutation(position[where[G.mul(n, reps[c])]] for c in inside) for n in gens]
    W = FiniteGroup(len(inside), perms, order_bound=max(len(inside), 1))
    if W.order != len(Nset) // len(Jset):
        raise RuntimeError("quotient order mismatch")  # pragma: no cover
    return W


# -- group construction ---------------------------------------------------


def _symmetric_gens(n: int) -> list[Permutation]:
    if n <= 1:
        return []
    gens = [Permutation([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(Permutation(list(range(1, n)) + [0]))
    return gens


def _alternating_gens(n: int) -> list[Permutation]:
    if n <= 2:
        return []
    gens = [Permutation([1, 2, 0] + list(range(3, n)))]
    if n > 3:
        if n % 2 == 1:
            gens.append(Permutation(list(range(1, n)) + [0]))
        else:
            gens.append(Permutation([0] + list(range(2, n)) + [1]))
    return gens


def _cyclic_gens(n: int) -> list[Permutation]:
    if n <= 1:
        return []
    return [Permutation(list(range(1, n)) + [0])]


def _dihedral_gens(n: int) -> list[Permutation]:
    # symmetries of the regular n-gon on n points, order 2n
    rot = Permutation(list(range(1, n)) + [0])
    ref = Permutation([(n - i) % n for i in range(n)])
    return [rot, ref]


def _split_generators(text: str) -> list[str]:
    """Split a generator list on ';' or ',' outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in ";," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def construct_group(
    spec: str,
    *,
    degree_bound: int = DEFAULT_DEGREE_BOUND,
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> FiniteGroup:
    """Build a group from a specification string.

    Grammar: ``sym:N | alt:N | cyclic:N | dihedral:N | gens:"<cycles>;..."``
    with 1-based points in cycle notation.
    """
    spec = spec.strip()
    if ":" not in spec:
        raise ValueError(f"malformed group specification {spec!r}")
    kind, _, arg = spec.partition(":")
    kind = {"symmetric": "sym", "alternating": "alt"}.get(kind.lower(), kind.lower())
    if kind in ("sym", "alt", "cyclic", "dihedral"):
        try:
            n = int(arg)
        except ValueError:
            raise ValueError(f"malformed group specification {spec!r}") from None
        if n < 1:
            raise ValueError("group parameter must be positive")
        if kind == "dihedral" and n < 3:
            raise ValueError("dihedral groups need parameter >= 3")
        if n > degree_bound:
            raise GroupTooLarge(f"group too large: degree {n} exceeds bound {degree_bound}")
        gens = {
            "sym": _symmetric_gens,
            "alt": _alternating_gens,
            "cyclic": _cyclic_gens,
            "dihedral": _dihedral_gens,
        }[kind](n)
        return FiniteGroup(n, gens, order_bound=order_bound, name=spec)
    if kind == "gens":
        arg = arg.strip()
        if arg.startswith('"') and arg.endswith('"') and len(arg) >= 2:
            arg = arg[1:-1]
        parts = [p.strip() for p in _split_generators(arg) if p.strip()]
        if not parts:
            raise ValueError("empty generator list")
        cycles = [_cycles(p) for p in parts]
        degree = max(_degree(c) for c in cycles)
        if degree > degree_bound:  # before any permutation is built
            raise GroupTooLarge(
                f"group too large: degree {degree} exceeds bound {degree_bound}"
            )
        gens = [_from_cycles(c, degree) for c in cycles]
        return FiniteGroup(degree, gens, order_bound=order_bound, name=spec)
    raise ValueError(f"unknown group family {kind!r}")
