"""Centers of group algebras: class sums, structure constants, block oracles.

Group-algebra elements are dicts element-index -> scalar; an element of
the center stores one coefficient per conjugacy class (class-sum basis).
The blocks of Z F_q G are its primitive idempotents, split by the algebra
core (Algebra.primitive_idempotents); this module keeps the exhaustive
scan that checks them without the core's products, and the test that they
lie in the span of the crossed ring's center images.
"""

from __future__ import annotations

from itertools import product

from .algebra import Algebra, Element
from .groups import FiniteGroup
from .linalg import integer_kernel
from .scalars import PrimeFieldRing, ScalarRing, ZZ


# -- group-algebra dict helpers ---------------------------------------------


def ga_mul(G: FiniteGroup, a: dict, b: dict, scalar: ScalarRing) -> dict:
    out: dict = {}
    for x, cx in a.items():
        for y, cy in b.items():
            k = G.mul(x, y)
            s = scalar.add(out.get(k, scalar.zero), scalar.mul(cx, cy))
            if scalar.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
    return out


# -- center in the class-sum basis --------------------------------------------


class CenterAlgebra(Algebra):
    """Z kG with its class-sum basis and integer structure constants."""

    commutative = True

    def __init__(self, G: FiniteGroup):
        super().__init__()
        self.group = G
        self.classes = G.conjugacy_classes
        self.n = len(self.classes)
        self.labels = tuple(G.element_string(c[0]) for c in self.classes)
        self._class_at_rep = {c[0]: k for k, c in enumerate(self.classes)}

    def _basis_product(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """Class sums C_i C_j: the product is constant on classes, so count
        the pairs (x, y) in C_i x C_j whose product is a class representative."""
        G = self.group
        counts: dict[int, int] = {}
        for x in self.classes[i]:
            for y in self.classes[j]:
                k = self._class_at_rep.get(G.mul(x, y))
                if k is not None:
                    counts[k] = counts.get(k, 0) + 1
        return tuple(sorted(counts.items()))

    def one(self, scalar: ScalarRing = ZZ) -> Element:
        return self.basis_element(0, scalar)  # the class of the identity

    def class_sums(self, scalar: ScalarRing = ZZ) -> list[Element]:
        return [self.basis_element(i, scalar) for i in range(self.n)]

    def to_group_algebra(self, z: Element) -> dict:
        out = {}
        for i, cls in enumerate(self.classes):
            if not z.scalar.is_zero(z.coeffs[i]):
                for x in cls:
                    out[x] = z.coeffs[i]
        return out

    def multiply_oracle(self, x: Element, y: Element) -> Element:
        """Independent product: full group-algebra convolution, then read back."""
        s = x.scalar
        prod = ga_mul(self.group, self.to_group_algebra(x), self.to_group_algebra(y), s)
        return self.from_group_algebra(prod, s)

    def from_group_algebra(self, x: dict, scalar: ScalarRing) -> Element:
        coords = [scalar.zero] * self.n
        for i, cls in enumerate(self.classes):
            vals = {x.get(e, scalar.zero) for e in cls}
            if len(vals) != 1:
                raise ValueError("element is not constant on conjugacy classes")
            coords[i] = x.get(cls[0], scalar.zero)
        return Element(self, scalar, tuple(coords))


# -- oracles for the blocks of Z F_q G ----------------------------------------


def counted_structure_constants(G: FiniteGroup) -> dict[tuple[int, int, int], int]:
    """Class-sum structure constants counted from the target side:
    c_ijk = #{x in C_i : x^-1 z_k in C_j} for the representative z_k of C_k,
    keyed (i, j, k), nonzero counts only.  The same numbers as
    CenterAlgebra.product, by another count of the group."""
    classes = G.conjugacy_classes
    class_of = {x: i for i, cls in enumerate(classes) for x in cls}
    counts: dict[tuple[int, int, int], int] = {}
    for k, cls in enumerate(classes):
        z = cls[0]
        for i, ci in enumerate(classes):
            for x in ci:
                key = (i, class_of[G.mul(G.inv(x), z)], k)
                counts[key] = counts.get(key, 0) + 1
    return counts


SCAN_SIZE = 5000  # the callers check blocks against block_scan_oracle up to q^dim = this


def block_scan_oracle(Z: CenterAlgebra, field: PrimeFieldRing) -> list[Element]:
    """Exhaustive oracle for tiny centers: scan all q^dim elements for
    idempotents and keep the minimal nonzero ones (e <= f iff ef = e).

    It reads no product from the algebra: the structure constants are
    counted again from the group (counted_structure_constants).  They are
    folded into one quadratic form per coordinate, rows (i <= j, c).  Over
    F_p a form is one int sum, reduced mod p once; over F_q, q = p^e with
    e > 1, it runs in the field.  The scan fixes the first dim - 1
    coordinates, the head, and splits coordinate 0's form in the last
    coordinate t as A + B t + c t^2, where A sums the rows inside the head,
    B t the rows that pair a head coordinate with t, and c t^2 the row of t
    alone.  Only the t with A + B t + c t^2 = x_0, found once per
    (A, B, x_0), go on to the check (x^2)_k = x_k of every coordinate k;
    for dim = 1, where x_0 is t itself, every t does.
    """
    n = Z.n
    if field.q**n > 200000:
        raise ValueError("center too large for the exhaustive idempotent scan")
    counts = counted_structure_constants(Z.group)
    bilinear: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    folded: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    for (i, j, k), c in counts.items():
        bilinear[k].append((i, j, c))
        key = (min(i, j), max(i, j))
        folded[k][key] = folded[k].get(key, 0) + c
    forms = [[(i, j, c) for (i, j), c in form.items() if c % field.p] for form in folded]

    if field.e == 1:  # F_p: one plain int sum, reduced once
        p = field.p

        def value(rows, x, y):
            return sum([c * x[i] * y[j] for i, j, c in rows]) % p

    else:

        def value(rows, x, y):
            acc = field.zero
            for i, j, c in rows:
                acc = field.add(acc, field.mul_int(field.mul(x[i], y[j]), c))
            return acc

    elements = field.elements()
    zero = (field.zero,) * n
    last = n - 1
    unit = zero[:last] + (field.one,)  # t = 1 and the head 0
    head_rows = [r for r in forms[0] if r[1] < last]
    cross_rows = [r for r in forms[0] if r[0] < last == r[1]]
    c = value([r for r in forms[0] if r[0] == last], unit, unit)
    quadratic = [(0, 0, 1), (1, 1, 1), (2, 2, 1)]  # (A, B, c) . (1, t, t^2)
    powers = [(field.one, t, field.mul(t, t)) for t in elements]
    roots: dict = {}

    def last_coordinates(head):
        if not head:
            return elements
        key = (value(head_rows, head, head), value(cross_rows, head, unit), head[0])
        if key not in roots:
            coeffs = (key[0], key[1], c)
            roots[key] = [t for t, tt in zip(elements, powers) if value(quadratic, coeffs, tt) == key[2]]
        return roots[key]

    idems = [
        x
        for head in product(elements, repeat=last)
        for t in last_coordinates(head)
        if (x := head + (t,)) != zero and all(value(rows, x, x) == x[k] for k, rows in enumerate(forms))
    ]

    def below(f, e):  # f <= e, that is e f = f
        return all(value(rows, e, f) == f[k] for k, rows in enumerate(bilinear))

    minimal = [e for e in idems if not any(f != e and below(f, e) for f in idems)]
    return [Element(Z, field, e) for e in sorted(minimal)]


def blocks_in_rho_span(blocks, rho_rows, field: PrimeFieldRing) -> bool:
    """Check every block lies in the F_q-span of the given integer center
    vectors: that row space is the annihilator of their right kernel."""
    kernel = integer_kernel([dict(enumerate(row)) for row in rho_rows], blocks[0].algebra.n, field)
    for b in blocks:
        for k in kernel:
            acc = field.zero
            for a, c in zip(b.coeffs, k):
                acc = field.add(acc, field.mul(a, c))
            if not field.is_zero(acc):
                return False
    return True
