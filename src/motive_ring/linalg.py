"""Exact linear algebra over the scalar rings.

The dense routines work on lists of row lists: rational ones use
Fraction, the generic ones take a ScalarRing with field operations (used
for finite fields).  integer_kernel solves sparse integer systems, such as
commutant equations, with int arithmetic only.  Sizes here are small
(dimension <= a few hundred), so plain Gaussian elimination is the right
tool.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import QQ, ScalarRing


def rref_rational(rows: list[list[Fraction]]):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank_rational(rows) -> int:
    return len(rref_rational(rows)[1])


def nullspace_rational(rows: list[list[Fraction]], ncols: int | None = None):
    """Basis of the right kernel of the matrix, as lists of Fractions."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    red, pivots = rref_rational(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def solve_upper_triangular(matrix, rhs):
    """Solve M x = rhs for square upper-triangular M with nonzero diagonal."""
    n = len(matrix)
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(rhs[i])
        for j in range(i + 1, n):
            acc -= Fraction(matrix[i][j]) * x[j]
        if matrix[i][i] == 0:
            raise ZeroDivisionError("zero diagonal entry in triangular solve")
        x[i] = acc / Fraction(matrix[i][i])
    return x


def rank_field(rows, ring: ScalarRing) -> int:
    return len(_echelon_field(rows, ring)[0])


def _echelon_field(rows, ring: ScalarRing):
    """Row echelon over a field ring; returns (reduced rows, pivot cols)."""
    m = [list(row) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if not ring.is_zero(m[i][c])), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ring.inv(m[r][c])
        m[r] = [ring.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and not ring.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [ring.sub(a, ring.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace_field(rows, ring: ScalarRing, ncols: int | None = None):
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    red, pivots = _echelon_field(rows, ring)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ring.zero] * ncols
        vec[fc] = ring.one
        for r, pc in enumerate(pivots):
            vec[pc] = ring.neg(red[r][fc])
        basis.append(vec)
    return basis


def in_row_span_field(rows, vector, ring: ScalarRing) -> bool:
    """True if vector is a linear combination of the given rows."""
    base = rank_field(rows, ring)
    return rank_field(list(rows) + [list(vector)], ring) == base


# -- sparse integer kernels ----------------------------------------------------
#
# Commutant equations have small integer coefficients and few nonzeros per
# row, so they are eliminated as sparse rows {column: int} with plain int
# arithmetic: fraction free over Q (each row kept primitive by its gcd),
# modulo p over F_p.  No ScalarRing call happens inside the elimination.


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _eliminate(row: dict[int, int], piv: dict[int, int], c: int, p: int | None):
    """Clear column c of row with the pivot row piv (whose column c is nonzero)."""
    f = row[c]
    if p:  # piv[c] == 1
        out = dict(row)
        for k, v in piv.items():
            w = (out.get(k, 0) - f * v) % p
            if w:
                out[k] = w
            else:
                del out[k]
        return out
    a = piv[c]
    g = gcd(a, f)
    a, f = a // g, f // g
    out = {k: a * v for k, v in row.items()}
    for k, v in piv.items():
        w = out.get(k, 0) - f * v
        if w:
            out[k] = w
        else:
            del out[k]
    return _primitive(out)


def _reduced_echelon(rows, p: int | None) -> dict[int, dict[int, int]]:
    """Reduced row echelon form, keyed by pivot column.

    Each row is reduced against the pivots found so far, leading column
    first; a row that survives adds its leading column as a new pivot.
    Back reduction then clears every pivot column from the other pivot rows.
    Over F_p pivot entries are 1; over Q rows are primitive integer rows.
    """
    pivots: dict[int, dict[int, int]] = {}
    for raw in rows:
        row = {}
        for k, v in raw.items():
            if p:
                v %= p
            if v:
                row[k] = v
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                if p:
                    inv = pow(row[c], -1, p)
                    row = {k: v * inv % p for k, v in row.items()}
                else:
                    row = _primitive(row)
                pivots[c] = row
                break
            row = _eliminate(row, piv, c, p)
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            row = _eliminate(row, pivots[k], k, p)
        pivots[c] = row
    return pivots


def integer_kernel(rows, ncols: int, scalar: ScalarRing = QQ, support=None) -> list[list]:
    """Right kernel over the scalar ring of an integer matrix in sparse rows.

    rows yields dicts {column: int}.  The unknowns are the columns in
    support (every column by default) and the rows may mention no other
    column; the returned vectors have length ncols and are zero off the
    support.  Over Z, Q and Z_(p) the result is a Q-basis of primitive
    integer vectors (positive at their free column), from a fraction-free
    elimination.  Over F_q, q = p^e, the matrix is eliminated over the ints
    mod p and the result coerced into F_q: an integer matrix has the same
    rank over F_p as over any extension, so an F_p basis of the kernel is an
    F_q basis.
    """
    field = scalar.is_field and hasattr(scalar, "p")
    p = scalar.p if field else None
    pivots = _reduced_echelon(rows, p)
    free = [c for c in (range(ncols) if support is None else support) if c not in pivots]
    entries: dict[int, list[tuple[int, int]]] = {f: [] for f in free}
    for c, row in pivots.items():
        for k, v in row.items():
            if k != c:
                entries[k].append((c, v))
    basis = []
    for f in free:
        vec = [0] * ncols
        if p:
            vec[f] = 1
            for c, v in entries[f]:
                vec[c] = -v % p
            basis.append([scalar.coerce(v) for v in vec])
            continue
        scale = lcm(*(pivots[c][c] for c, _ in entries[f]))
        vec[f] = scale
        for c, v in entries[f]:
            vec[c] = -v * scale // pivots[c][c]
        g = gcd(*vec)
        basis.append([v // g for v in vec])
    return basis


def nullspace_int(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Right kernel of a dense integer matrix over Q, as primitive integer vectors."""
    return integer_kernel(({c: v for c, v in enumerate(row) if v} for row in rows), ncols)


def kernel_intersection_int(dim: int, operators) -> list[list[int]]:
    """Common right kernel over Q of dense dim x dim integer operator matrices."""
    return nullspace_int([row for op in operators for row in op], dim)
