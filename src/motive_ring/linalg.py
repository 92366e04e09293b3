"""Exact linear algebra over the scalar rings.

Every matrix eliminated here has integer entries (commutant equations,
span projections, marks, ideal multiplication matrices, Frobenius and
minimal-polynomial equations of the center, spans of center images), and
all of them go through one sparse elimination over the ints: integer_kernel
returns right kernels and integer_rank returns ranks.  Over Z, Q and Z_(p)
it is fraction free, each row kept primitive by its gcd in the manner of
Bareiss; over F_q it runs modulo p.  Sizes here are small (dimension <= a
few hundred), so plain Gaussian elimination is the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import QQ, PrimeFieldRing, ScalarRing


def solve_upper_triangular(matrix, rhs):
    """Solve M x = rhs for square upper-triangular M with nonzero diagonal.

    Terms whose entry of M or whose x[j] is zero are skipped; int entries
    multiply into the Fractions directly.
    """
    n = len(matrix)
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        row = matrix[i]
        if row[i] == 0:
            raise ZeroDivisionError("zero diagonal entry in triangular solve")
        acc = Fraction(rhs[i])
        for j in range(i + 1, n):
            if row[j] and x[j]:
                acc -= row[j] * x[j]
        x[i] = acc / row[i]
    return x


def sparse_mat_mul(a: dict, b: dict) -> dict:
    """Product a b of sparse integer matrices {(row, col): nonzero int}."""
    b_rows: dict[int, list] = {}
    for (k, j), y in b.items():
        b_rows.setdefault(k, []).append((j, y))
    out: dict = {}
    for (i, k), x in a.items():
        for j, y in b_rows.get(k, ()):
            out[(i, j)] = out.get((i, j), 0) + x * y
    return {key: v for key, v in out.items() if v}


# -- sparse integer elimination ------------------------------------------------
#
# The integer matrices here have small coefficients and are often sparse, so
# they are eliminated as sparse rows {column: int} with plain int
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


def _modulus(scalar: ScalarRing) -> int | None:
    """p when the scalar ring is F_q, q = p^e; None for Z, Q and Z_(p).

    An integer matrix has the same rank and kernel over F_q as over F_p,
    and the same over Z, Q and Z_(p) as over Q.
    """
    return scalar.p if isinstance(scalar, PrimeFieldRing) else None


def _echelon(rows, p: int | None) -> dict[int, dict[int, int]]:
    """Forward pass: row echelon form keyed by pivot column.

    Each row is reduced against the pivots found so far, leading column
    first; a row that survives adds its leading column as a new pivot.
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
    return pivots


def _back_reduce(pivots: dict[int, dict[int, int]], p: int | None) -> None:
    """Clear every pivot column from the other pivot rows, in place."""
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            row = _eliminate(row, pivots[k], k, p)
        pivots[c] = row


def integer_rank(rows, scalar: ScalarRing = QQ) -> int:
    """Rank over the scalar ring of an integer matrix in sparse rows {column: int}."""
    return len(_echelon(rows, _modulus(scalar)))


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
    p = _modulus(scalar)
    pivots = _echelon(rows, p)
    _back_reduce(pivots, p)
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
