"""Centers of group algebras: class sums, structure constants, blocks.

Group-algebra elements are dicts element-index -> scalar; an element of
the center stores one coefficient per conjugacy class (class-sum basis).
Block idempotents over F_q come from the Frobenius fixed-point method on
the one sparse integer elimination: x -> x^q has F_p entries on the class
sums, the kernel of (x -> x^q) - id over F_p spans the primitive
idempotents over F_q, and the Lagrange projectors of each kernel vector
(roots of its minimal polynomial, found by scanning F_q) split them.
"""

from __future__ import annotations

from itertools import product
from math import lcm

from .algebra import Algebra, Element
from .groups import FiniteGroup, GroupTooLarge
from .linalg import integer_kernel
from .scalars import PrimeFieldRing, ScalarRing, ZZ, prime_field


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


def ga_equal(a: dict, b: dict, scalar: ScalarRing) -> bool:
    keys = set(a) | set(b)
    return all(
        scalar.is_zero(scalar.sub(a.get(k, scalar.zero), b.get(k, scalar.zero)))
        for k in keys
    )


def augmentation(x: dict, scalar: ScalarRing):
    """Sum of the coefficients of a group-algebra element."""
    acc = scalar.zero
    for v in x.values():
        acc = scalar.add(acc, v)
    return acc


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


# -- block idempotents over finite fields -------------------------------------

MAX_FIELD_ORDER = 65536  # the root scan walks all of F_q


def _power(x: Element, n: int) -> Element:
    """x^n for n >= 1, by square and multiply."""
    acc = x.algebra.one(x.scalar)
    while n:
        if n & 1:
            acc = acc * x
        x = x * x
        n >>= 1
    return acc


def _splitting_exponent(Z: CenterAlgebra, p: int) -> int:
    """Order of x -> x^p on the semisimple part of Z F_p G, which the class
    sums span once raised to a power p^k >= n.  It is the lcm of the residue
    degrees of the blocks: F_{p^e} is the least field where they all split."""
    Fp = prime_field(p)
    pk = p
    while pk < Z.n:
        pk *= p
    e = 1
    for c in Z.class_sums(Fp):
        s = _power(c, pk)
        t, period = _power(s, p), 1
        while t.coeffs != s.coeffs:
            t, period = _power(t, p), period + 1
        e = lcm(e, period)
    return e


def block_idempotents(Z: CenterAlgebra, field: PrimeFieldRing) -> list[Element]:
    """Primitive orthogonal idempotents of Z F_q G, summing to 1, sorted.

    Each vector b of an F_p basis of the fixed space of x -> x^q combines
    them; the Lagrange projectors prod_{mu != lam} (b - mu) / (lam - mu) over
    the roots lam of its minimal polynomial sort them by coefficient in b, so
    the nonzero products of the projectors of all b are the blocks.
    """
    Fp = prime_field(field.p)
    n = Z.n
    frob = [_power(c, field.q).coeffs for c in Z.class_sums(Fp)]
    fixed = integer_kernel([{j: frob[j][i] - (i == j) for j in range(n)} for i in range(n)], n, Fp)
    blocks = [Z.one(field)]
    for v in fixed:
        if len(blocks) == len(fixed):
            break
        b = Z.element(v, Fp)
        powers = [Z.one(Fp)]
        for _ in range(n):
            powers.append(powers[-1] * b)
        # the first kernel vector of [1, b, ..., b^n] is the minimal polynomial
        poly = integer_kernel([{d: x.coeffs[i] for d, x in enumerate(powers)} for i in range(n)], n + 1, Fp)[0]
        degree = max(d for d, c in enumerate(poly) if c)
        coeffs = [field.coerce(c) for c in reversed(poly[: degree + 1])]
        roots = []
        for lam in field.elements():
            acc = field.zero
            for c in coeffs:
                acc = field.add(field.mul(acc, lam), c)
            if field.is_zero(acc):
                roots.append(lam)
                if len(roots) == degree:
                    break
        bq = Z.element(v, field).coeffs
        projectors = []
        for lam in roots:
            piece = Z.one(field)
            for mu in roots:
                if mu != lam:
                    scale = field.inv(field.sub(lam, mu))
                    shifted = (field.sub(bq[0], mu),) + bq[1:]
                    piece = piece * Element(Z, field, tuple(field.mul(scale, c) for c in shifted))
            projectors.append(piece)
        blocks = [f for e in blocks for P in projectors if not (f := e * P).is_zero()]
    if len(blocks) != len(fixed):
        raise RuntimeError("block splitting did not reach the expected count")
    return sorted(blocks, key=lambda e: e.coeffs)


def blocks_mod_p(
    G: FiniteGroup,
    p: int,
    exponent: int | None = None,
    algebra: CenterAlgebra | None = None,
) -> tuple[PrimeFieldRing, list[Element]]:
    """Blocks of Z F_q G with q = p^exponent.

    Without an explicit exponent the field is the least one over which every
    block splits (see _splitting_exponent).  q is checked against
    MAX_FIELD_ORDER before any block work.
    """
    Z = algebra if algebra is not None else CenterAlgebra(G)
    if exponent is None:
        exponent = _splitting_exponent(Z, p)
    if p**exponent > MAX_FIELD_ORDER:
        raise GroupTooLarge(
            f"field too large: q = {p}^{exponent} = {p**exponent} > field bound {MAX_FIELD_ORDER}"
        )
    field = prime_field(p, exponent)
    return field, block_idempotents(Z, field)


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


def block_scan_oracle(Z: CenterAlgebra, field: PrimeFieldRing) -> list[Element]:
    """Exhaustive oracle for tiny centers: scan all q^dim elements for
    idempotents and keep the minimal nonzero ones (e <= f iff ef = e).

    It reads no product from the algebra: the structure constants are
    counted again from the group (counted_structure_constants).  They are
    folded into one quadratic form per coordinate, rows (i <= j, c), and a
    vector x is dropped at the first coordinate k where (x^2)_k != x_k; most
    vectors fail at coordinate 0.
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
