"""Finite permutation groups on 0-based points.

Elements are referred to by index into a canonical (lexicographically
sorted) element list; all products go through a cached multiplication
table, so the routines downstream never touch image tuples directly.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass


DEFAULT_DEGREE_BOUND = 16
DEFAULT_ORDER_BOUND = 200


class GroupTooLarge(ValueError):
    """Group exceeds the configured safety bound."""


class NotNormal(ValueError):
    """Quotient requested by a non-normal subgroup."""


def default_order_bound() -> int:
    env = os.environ.get("MOTIVE_RING_MAX_ORDER")
    if env:
        return int(env)
    return DEFAULT_ORDER_BOUND


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


def parse_cycles(text: str, degree: int | None = None) -> Permutation:
    """Parse 1-based cycle notation like ``(1 2)(3 4)`` (commas also allowed)."""
    text = text.strip()
    if not text:
        raise ValueError("empty cycle string")
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    cycles = []
    maxpt = 0
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
        maxpt = max(maxpt, max(pts))
    deg = degree if degree is not None else maxpt
    deg = max(deg, maxpt, 1)
    images = list(range(deg))
    moved = set()
    for cyc in cycles:
        for p in cyc:
            if p in moved:
                raise ValueError("cycles are not disjoint")
            moved.add(p)
        for i, p in enumerate(cyc):
            images[p] = cyc[(i + 1) % len(cyc)]
    return Permutation(images)


class FiniteGroup:
    """Permutation group; elements and Cayley table are built on first use."""

    def __init__(self, degree: int, generators, *, order_bound: int | None = None, name: str = ""):
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
        self._order_bound = order_bound
        # _elements, _index, _mul and _inv are set together by _materialize
        self._orders: list[int] | None = None
        self._classes: tuple[tuple[int, ...], ...] | None = None

    # -- materialization -------------------------------------------------

    def __getattr__(self, name):
        # only reached while an attribute is unset: the first use of the
        # elements or the Cayley table builds both
        if name not in ("_elements", "_index", "_mul", "_inv"):
            raise AttributeError(name)
        self._materialize()
        return self.__dict__[name]

    def _materialize(self):
        bound = self._order_bound if self._order_bound is not None else default_order_bound()
        identity = tuple(range(self.degree))
        els = {identity}
        frontier = [identity]
        gen_images = [g.images for g in self.generators]
        while frontier:
            new = []
            for a in frontier:
                for g in gen_images:
                    c = tuple(g[i] for i in a)
                    if c not in els:
                        els.add(c)
                        new.append(c)
                        if len(els) > bound:
                            raise GroupTooLarge(
                                f"group too large: order exceeds bound {bound}"
                            )
            frontier = new
        ordered = tuple(sorted(els))
        index = {t: i for i, t in enumerate(ordered)}
        mul = [[index[tuple(b[x] for x in a)] for b in ordered] for a in ordered]
        self._elements = ordered
        self._index = index
        self._mul = mul
        self._inv = [row.index(0) for row in mul]

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
            n = self.order
            seen = [False] * n
            classes = []
            for a in range(n):
                if seen[a]:
                    continue
                orbit = {self.conj(g, a) for g in range(n)}
                for x in orbit:
                    seen[x] = True
                classes.append(tuple(sorted(orbit)))
            classes.sort(key=lambda c: c[0])
            self._classes = tuple(classes)
        return self._classes

    # -- subgroups (as frozensets of element indices) ----------------------

    def closure(self, gens) -> frozenset[int]:
        """Subgroup generated by the given element indices."""
        els = {0}
        gens = [g for g in gens if g != 0]
        frontier = [0]
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    c = self._mul[a][g]
                    if c not in els:
                        els.add(c)
                        new.append(c)
            frontier = new
        return frozenset(els)

    def small_generating_set(self, subgroup) -> list[int]:
        gens: list[int] = []
        cur = frozenset({0})
        for x in sorted(subgroup):
            if x not in cur:
                gens.append(x)
                cur = self.closure(gens)
                if len(cur) == len(subgroup):
                    break
        return gens

    def centralizer(self, subgroup) -> frozenset[int]:
        gens = self.small_generating_set(subgroup) or [0]
        return frozenset(
            g for g in range(self.order) if all(self.mul(g, h) == self.mul(h, g) for h in gens)
        )

    def conjugate_subgroup(self, g: int, subgroup) -> frozenset[int]:
        return frozenset(self.conj(g, h) for h in subgroup)

    # -- cosets -----------------------------------------------------------

    def left_cosets(self, subgroup) -> list[int]:
        """Canonical left-coset representatives of the subgroup (least member)."""
        sub = sorted(subgroup)
        seen = [False] * self.order
        reps = []
        for g in range(self.order):
            if seen[g]:
                continue
            reps.append(g)
            for h in sub:
                seen[self.mul(g, h)] = True
        return reps

    def coset_lookup(self, subgroup):
        """(reps, element -> coset index) for left cosets of the subgroup."""
        reps = self.left_cosets(subgroup)
        where = [0] * self.order
        for idx, r in enumerate(reps):
            for h in subgroup:
                where[self.mul(r, h)] = idx
        return reps, where


@dataclass(frozen=True)
class CosetGeometry:
    """Double cosets H\\G/K and the H-fixed points of G/K."""

    double_coset_reps: tuple[int, ...]
    double_cosets: tuple[frozenset[int], ...]
    fixed_coset_reps: tuple[int, ...]


def double_cosets(G: FiniteGroup, H, K) -> tuple[tuple[int, ...], tuple[frozenset[int], ...]]:
    Hs, Ks = sorted(H), sorted(K)
    seen = [False] * G.order
    reps, cells = [], []
    for g in range(G.order):
        if seen[g]:
            continue
        cell = set()
        for h in Hs:
            hg = G.mul(h, g)
            for k in Ks:
                cell.add(G.mul(hg, k))
        for x in cell:
            seen[x] = True
        reps.append(g)
        cells.append(frozenset(cell))
    return tuple(reps), tuple(cells)


def fixed_cosets(G: FiniteGroup, H, K) -> tuple[int, ...]:
    """Left-coset reps gK with H contained in gKg^-1."""
    Hgens = G.small_generating_set(frozenset(H)) or [0]
    Kset = frozenset(K)
    out = []
    for g in G.left_cosets(Kset):
        ginv = G.inv(g)
        if all(G.mul(G.mul(ginv, h), g) in Kset for h in Hgens):
            out.append(g)
    return tuple(out)


def coset_geometry(G: FiniteGroup, H, K) -> CosetGeometry:
    reps, cells = double_cosets(G, H, K)
    return CosetGeometry(reps, cells, fixed_cosets(G, H, K))


@dataclass(frozen=True)
class Quotient:
    """Quotient N/J as a permutation group plus the projection N -> W."""

    group: FiniteGroup
    projection: dict[int, int]


def quotient_group(G: FiniteGroup, N, J) -> Quotient:
    """Left-multiplication action of N on the cosets N/J.

    J must be normal in N; raises NotNormal otherwise.
    """
    Nset, Jset = frozenset(N), frozenset(J)
    if not Jset <= Nset:
        raise NotNormal("not normal: second subgroup is not contained in the first")
    for n in Nset:
        if G.conjugate_subgroup(n, Jset) != Jset:
            raise NotNormal("not normal")
    reps = []
    where = {}
    for n in sorted(Nset):
        if n in where:
            continue
        idx = len(reps)
        reps.append(n)
        for j in Jset:
            where[G.mul(n, j)] = idx
    degree = len(reps)
    gen_idx = G.small_generating_set(Nset)
    perms = []
    for n in gen_idx:
        perms.append(Permutation(where[G.mul(n, r)] for r in reps))
    W = FiniteGroup(degree, perms, order_bound=max(degree, 1))
    if W.order != len(Nset) // len(Jset):
        raise RuntimeError("quotient order mismatch")  # pragma: no cover
    projection = {}
    for n in Nset:
        img = Permutation(tuple(where[G.mul(n, r)] for r in reps))
        projection[n] = W.element_index(img)
    return Quotient(W, projection)


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
    order_bound: int | None = None,
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
        raw = [parse_cycles(p) for p in parts]
        degree = max(p.degree for p in raw)
        if degree > degree_bound:
            raise GroupTooLarge(
                f"group too large: degree {degree} exceeds bound {degree_bound}"
            )
        gens = []
        for p in raw:
            images = list(p.images) + list(range(p.degree, degree))
            gens.append(Permutation(images))
        return FiniteGroup(degree, gens, order_bound=order_bound, name=spec)
    raise ValueError(f"unknown group family {kind!r}")
