"""Centers of group algebras: class sums, structure constants, blocks.

Group-algebra elements are dicts element-index -> scalar; a CenterElement
stores one coordinate per conjugacy class (class-sum basis).  Block
idempotents over a finite field come from the Frobenius fixed-point
method: the span of the primitive idempotents is exactly the kernel of
(x -> x^q) - id, and Lagrange interpolation splits it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .groups import FiniteGroup
from .linalg import in_row_span_field, nullspace_field, rank_field
from .scalars import PrimeFieldRing, ScalarError, ScalarRing, ZZ, prime_field


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


@dataclass(frozen=True)
class CenterElement:
    """Element of Z kG in class-sum coordinates."""

    algebra: "CenterAlgebra"
    scalar: ScalarRing
    coords: tuple

    def __add__(self, other):
        self.algebra._check(other, self.scalar)
        s = self.scalar
        return CenterElement(
            self.algebra, s, tuple(s.add(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self.algebra._check(other, self.scalar)
        s = self.scalar
        return CenterElement(
            self.algebra, s, tuple(s.sub(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __mul__(self, other):
        return self.algebra.multiply(self, other)

    def is_zero(self) -> bool:
        return all(self.scalar.is_zero(c) for c in self.coords)

    def to_group_algebra(self) -> dict:
        out = {}
        for i, cls in enumerate(self.algebra.classes):
            if not self.scalar.is_zero(self.coords[i]):
                for x in cls:
                    out[x] = self.coords[i]
        return out

    def to_json(self) -> dict[str, str]:
        out = {}
        for i, c in enumerate(self.coords):
            if not self.scalar.is_zero(c):
                out[self.algebra.class_names[i]] = self.scalar.format(c)
        return out


class CenterAlgebra:
    """Z kG with its class-sum basis and integer structure constants."""

    def __init__(self, G: FiniteGroup):
        self.group = G
        self.classes = G.conjugacy_classes
        self.n = len(self.classes)
        self.class_names = tuple(G.element_string(c[0]) for c in self.classes)
        self._class_of = [0] * G.order
        for i, cls in enumerate(self.classes):
            for x in cls:
                self._class_of[x] = i
        self._structure: list[list[tuple[int, ...]]] | None = None

    def _ensure_structure(self):
        if self._structure is not None:
            return
        G = self.group
        table = []
        for i, ci in enumerate(self.classes):
            row = []
            for j, cj in enumerate(self.classes):
                counts = [0] * self.n
                per_class_seen: dict[int, int] = {}
                for x in ci:
                    for y in cj:
                        per_class_seen[G.mul(x, y)] = per_class_seen.get(G.mul(x, y), 0) + 1
                # constant on classes; read off at the class representatives
                for k, cls in enumerate(self.classes):
                    counts[k] = per_class_seen.get(cls[0], 0)
                row.append(tuple(counts))
            table.append(row)
        self._structure = table

    def _check(self, x, scalar):
        if not isinstance(x, CenterElement) or x.algebra is not self:
            raise ValueError("element belongs to a different center")
        if x.scalar != scalar:
            raise ScalarError(f"mixed scalar rings: {x.scalar.tag} vs {scalar.tag}")

    def element(self, coords, scalar: ScalarRing = ZZ) -> CenterElement:
        if len(coords) != self.n:
            raise ValueError("coordinate length mismatch")
        return CenterElement(self, scalar, tuple(scalar.coerce(c) for c in coords))

    def zero(self, scalar: ScalarRing = ZZ) -> CenterElement:
        return self.element([0] * self.n, scalar)

    def one(self, scalar: ScalarRing = ZZ) -> CenterElement:
        return self.element([1] + [0] * (self.n - 1), scalar)

    def class_sums(self, scalar: ScalarRing = ZZ) -> list[CenterElement]:
        out = []
        for i in range(self.n):
            coords = [0] * self.n
            coords[i] = 1
            out.append(self.element(coords, scalar))
        return out

    def multiply(self, x: CenterElement, y: CenterElement) -> CenterElement:
        self._check(x, x.scalar)
        self._check(y, x.scalar)
        self._ensure_structure()
        s = x.scalar
        acc = [s.zero] * self.n
        for i, a in enumerate(x.coords):
            if s.is_zero(a):
                continue
            for j, b in enumerate(y.coords):
                if s.is_zero(b):
                    continue
                ab = s.mul(a, b)
                for k, c in enumerate(self._structure[i][j]):
                    if c:
                        acc[k] = s.add(acc[k], s.mul(ab, s.coerce(c)))
        return CenterElement(self, s, tuple(acc))

    def multiply_oracle(self, x: CenterElement, y: CenterElement) -> CenterElement:
        """Independent product: full group-algebra convolution, then read back."""
        s = x.scalar
        prod = ga_mul(self.group, x.to_group_algebra(), y.to_group_algebra(), s)
        return self.from_group_algebra(prod, s)

    def from_group_algebra(self, x: dict, scalar: ScalarRing) -> CenterElement:
        coords = [scalar.zero] * self.n
        for i, cls in enumerate(self.classes):
            vals = {x.get(e, scalar.zero) for e in cls}
            if len(vals) != 1:
                raise ValueError("element is not constant on conjugacy classes")
            coords[i] = x.get(cls[0], scalar.zero)
        return CenterElement(self, scalar, tuple(coords))

    def augmentation(self, x: CenterElement):
        s = x.scalar
        acc = s.zero
        for i, c in enumerate(x.coords):
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
        cols.append(acc.coords)
    return cols  # cols[j][i] = coeff of class i in b_j^q


def _min_poly_roots(Z: CenterAlgebra, x: CenterElement, field: PrimeFieldRing):
    """Roots (in F_q) of the minimal polynomial of x; x must satisfy x^q = x."""
    # collect powers until linearly dependent
    rows = [Z.one(field).coords]
    cur = Z.one(field)
    while True:
        cur = Z.multiply(cur, x)
        rows.append(cur.coords)
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


def block_idempotents(Z: CenterAlgebra, field: PrimeFieldRing) -> list[CenterElement]:
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
                            [field.sub(x.coords[0], mu)]
                            + [x.coords[i] for i in range(1, n)],
                            field,
                        )
                        scale = field.inv(field.sub(lam, mu))
                        piece = Z.multiply(
                            piece,
                            CenterElement(
                                Z, field, tuple(field.mul(scale, c) for c in shift.coords)
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
    return sorted(idempotents, key=lambda e: e.coords)


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
        power = [
            [
                _dot_field(field, [power[i][t] for t in range(n)], [mat[t][j] for t in range(n)])
                for j in range(n)
            ]
            for i in range(n)
        ]
    ss_vectors = [[power[i][j] for i in range(n)] for j in range(n)]  # columns
    degrees = []
    for e in blocks:
        rows = []
        for v in ss_vectors:
            prod = Z.multiply(Z.element(v, field), e)
            rows.append(list(prod.coords))
        degrees.append(rank_field(rows, field))
    return degrees


def _dot_field(field, a, b):
    acc = field.zero
    for x, y in zip(a, b):
        acc = field.add(acc, field.mul(x, y))
    return acc


def blocks_mod_p(
    G: FiniteGroup,
    p: int,
    exponent: int | None = None,
    algebra: CenterAlgebra | None = None,
) -> tuple[PrimeFieldRing, list[CenterElement]]:
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


def block_scan_oracle(Z: CenterAlgebra, field: PrimeFieldRing) -> list[CenterElement]:
    """Exhaustive oracle for tiny centers: scan all q^dim elements for
    idempotents and keep the minimal nonzero ones (e <= f iff ef = e)."""
    if field.q**Z.n > 200000:
        raise ValueError("center too large for the exhaustive idempotent scan")
    elements = field.elements()
    idems = []

    def rec(prefix):
        if len(prefix) == Z.n:
            x = Z.element(list(prefix), field)
            if not x.is_zero() and Z.multiply(x, x).coords == x.coords:
                idems.append(x)
            return
        for v in elements:
            rec(prefix + [v])

    rec([])
    minimal = []
    for e in idems:
        if not any(
            f.coords != e.coords and Z.multiply(e, f).coords == f.coords for f in idems
        ):
            minimal.append(e)
    return sorted(minimal, key=lambda e: e.coords)


def blocks_in_rho_span(G: FiniteGroup, blocks, rho_rows, field: PrimeFieldRing) -> bool:
    """Check every block lies in the F_q-span of the given center vectors."""
    rows = [[field.coerce(v) for v in row] for row in rho_rows]
    return all(in_row_span_field(rows, list(b.coords), field) for b in blocks)
