"""Centers of group algebras: class sums, structure constants, blocks.

Group-algebra elements are dicts element-index -> scalar; an element of
the center stores one coefficient per conjugacy class (class-sum basis).
Block idempotents over a finite field come from the Frobenius fixed-point
method: the span of the primitive idempotents is exactly the kernel of
(x -> x^q) - id, and Lagrange interpolation splits it.
"""

from __future__ import annotations

from math import lcm

from .algebra import Algebra, Element
from .groups import FiniteGroup
from .linalg import in_row_span_field, mat_mul, nullspace_field, rank_field
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

    def augmentation(self, x: Element):
        s = x.scalar
        acc = s.zero
        for i, c in enumerate(x.coeffs):
            acc = s.add(acc, s.mul(c, s.coerce(len(self.classes[i]))))
        return acc


# -- block idempotents over finite fields -------------------------------------


def _frobenius_matrix(Z: CenterAlgebra, field: PrimeFieldRing):
    """Matrix of x -> x^q on the class-sum basis, columns = images."""
    sums = Z.class_sums(field)
    cols = []
    for b in sums:
        acc = Z.one(field)
        base = b
        n = field.q
        while n:
            if n & 1:
                acc = Z.multiply(acc, base)
            base = Z.multiply(base, base)
            n >>= 1
        cols.append(acc.coeffs)
    return cols  # cols[j][i] = coeff of class i in b_j^q


def _min_poly_roots(Z: CenterAlgebra, x: Element, field: PrimeFieldRing):
    """Roots (in F_q) of the minimal polynomial of x; x must satisfy x^q = x."""
    # collect powers until linearly dependent
    rows = [Z.one(field).coeffs]
    cur = Z.one(field)
    while True:
        cur = Z.multiply(cur, x)
        rows.append(cur.coeffs)
        ker = nullspace_field([list(r) for r in zip(*rows)], field, ncols=len(rows))
        if ker:
            coeffs = ker[0]  # relation sum coeffs[i] * x^i = 0
            break
    # min poly splits over F_q with distinct roots; find them by scanning
    roots = []
    for lam in field.elements():
        acc = field.zero
        power = field.one
        for c in coeffs:
            acc = field.add(acc, field.mul(c, power))
            power = field.mul(power, lam)
        if field.is_zero(acc):
            roots.append(lam)
    return roots


def block_idempotents(Z: CenterAlgebra, field: PrimeFieldRing) -> list[Element]:
    """Primitive orthogonal idempotents of Z F_q G, summing to 1."""
    frob_cols = _frobenius_matrix(Z, field)
    n = Z.n
    # kernel of (F - id): rows indexed by output coordinate
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            d = field.sub(frob_cols[j][i], field.one if i == j else field.zero)
            row.append(d)
        rows.append(row)
    fixed = nullspace_field(rows, field, ncols=n)
    basis = [Z.element(v, field) for v in fixed]
    idempotents = [Z.one(field)]
    changed = True
    while changed:
        changed = False
        for b in basis:
            new_list = []
            for e in idempotents:
                x = Z.multiply(e, b)
                roots = _min_poly_roots(Z, x, field)
                if len(roots) < 2:
                    new_list.append(e)
                    continue
                pieces = []
                for lam in roots:
                    piece = e
                    for mu in roots:
                        if mu == lam:
                            continue
                        shift = Z.element(
                            [field.sub(x.coeffs[0], mu)]
                            + [x.coeffs[i] for i in range(1, n)],
                            field,
                        )
                        scale = field.inv(field.sub(lam, mu))
                        piece = Z.multiply(
                            piece,
                            Element(
                                Z, field, tuple(field.mul(scale, c) for c in shift.coeffs)
                            ),
                        )
                    if not piece.is_zero():
                        pieces.append(piece)
                if len(pieces) > 1:
                    new_list.extend(pieces)
                    changed = True
                else:
                    new_list.append(e)
            idempotents = new_list
    if len(idempotents) != len(basis):
        raise RuntimeError("block splitting did not reach the expected count")
    return sorted(idempotents, key=lambda e: e.coeffs)


def _residue_degrees(Z: CenterAlgebra, field: PrimeFieldRing, blocks) -> list[int]:
    """Dimension of the residue field of each block (semisimple part of eZ)."""
    frob_cols = _frobenius_matrix(Z, field)
    n = Z.n
    # semisimple subalgebra = image of F^k with q^k >= n
    k = 1
    while field.q**k < n:
        k += 1
    mat = [[frob_cols[j][i] for j in range(n)] for i in range(n)]
    power = mat
    for _ in range(k - 1):
        power = mat_mul(power, mat, field)
    ss_vectors = [[power[i][j] for i in range(n)] for j in range(n)]  # columns
    degrees = []
    for e in blocks:
        rows = []
        for v in ss_vectors:
            prod = Z.multiply(Z.element(v, field), e)
            rows.append(list(prod.coeffs))
        degrees.append(rank_field(rows, field))
    return degrees


def blocks_mod_p(
    G: FiniteGroup,
    p: int,
    exponent: int | None = None,
    algebra: CenterAlgebra | None = None,
) -> tuple[PrimeFieldRing, list[Element]]:
    """Blocks of Z F_q G with q = p^exponent.

    Without an explicit exponent the algorithm first decomposes over F_p,
    then enlarges the field just enough for every block residue field to
    split (lcm of the residue degrees).
    """
    Z = algebra if algebra is not None else CenterAlgebra(G)
    if exponent is not None:
        field = prime_field(p, exponent)
        return field, block_idempotents(Z, field)
    field = prime_field(p, 1)
    blocks = block_idempotents(Z, field)
    degrees = _residue_degrees(Z, field, blocks)
    e = lcm(*degrees) if degrees else 1
    if e == 1:
        return field, blocks
    field = prime_field(p, e)
    return field, block_idempotents(Z, field)


def block_scan_oracle(Z: CenterAlgebra, field: PrimeFieldRing) -> list[Element]:
    """Exhaustive oracle for tiny centers: scan all q^dim elements for
    idempotents and keep the minimal nonzero ones (e <= f iff ef = e)."""
    if field.q**Z.n > 200000:
        raise ValueError("center too large for the exhaustive idempotent scan")
    elements = field.elements()
    idems = []

    def rec(prefix):
        if len(prefix) == Z.n:
            x = Z.element(list(prefix), field)
            if not x.is_zero() and Z.multiply(x, x).coeffs == x.coeffs:
                idems.append(x)
            return
        for v in elements:
            rec(prefix + [v])

    rec([])
    minimal = []
    for e in idems:
        if not any(
            f.coeffs != e.coeffs and Z.multiply(e, f).coeffs == f.coeffs for f in idems
        ):
            minimal.append(e)
    return sorted(minimal, key=lambda e: e.coeffs)


def blocks_in_rho_span(G: FiniteGroup, blocks, rho_rows, field: PrimeFieldRing) -> bool:
    """Check every block lies in the F_q-span of the given center vectors."""
    rows = [[field.coerce(v) for v in row] for row in rho_rows]
    return all(in_row_span_field(rows, list(b.coeffs), field) for b in blocks)
