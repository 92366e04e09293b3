"""Dense linear algebra over a ScalarRing field, for the tests only.

Plain Gaussian elimination on dense rows of scalar ring elements: the
independent oracle for the sparse integer elimination of
motive_ring.linalg (integer_kernel, integer_rank); back_substitute is the
dense oracle for motive_ring.linalg.solve_upper_triangular, and mat_mul
and operator_product, the product of sparse operators in any scalar
ring, stand beside motive_ring.linalg.sparse_mat_mul, which multiplies
over Z only.  It shares no code with them.
"""

from __future__ import annotations

from fractions import Fraction

from motive_ring.scalars import ScalarRing


def mat_mul(a, b, scalar: ScalarRing):
    """Matrix product a b of dense matrices of scalar ring elements."""
    n = len(a)
    m = len(b[0]) if b else 0
    out = [[scalar.zero] * m for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for k, x in enumerate(arow):
            if scalar.is_zero(x):
                continue
            brow = b[k]
            for j in range(m):
                if not scalar.is_zero(brow[j]):
                    orow[j] = scalar.add(orow[j], scalar.mul(x, brow[j]))
    return out


def dense(op: dict, n: int, scalar: ScalarRing):
    """A sparse operator {(to, from): value} as a dense n x n matrix."""
    mat = [[scalar.zero] * n for _ in range(n)]
    for (to, frm), v in op.items():
        mat[to][frm] = v
    return mat


def operator_product(a: dict, b: dict, n: int, scalar: ScalarRing) -> dict:
    """Product a b of sparse operators on n points over the scalar ring:
    row i of a b is the sum of x times row k of the dense matrix of b over
    the entries (i, k) = x of a.  Sparse again, the zero entries dropped."""
    rows_b = dense(b, n, scalar)
    rows: dict[int, list] = {}
    for (i, k), x in a.items():
        row = rows.setdefault(i, [scalar.zero] * n)
        for j, y in enumerate(rows_b[k]):
            row[j] = scalar.add(row[j], scalar.mul(x, y))
    return {(i, j): v for i, row in rows.items() for j, v in enumerate(row) if not scalar.is_zero(v)}


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


def back_substitute(matrix, rhs):
    """x with M x = rhs for upper-triangular M, every term over Fractions."""
    n = len(matrix)
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(rhs[i])
        for j in range(i + 1, n):
            acc -= Fraction(matrix[i][j]) * x[j]
        x[i] = acc / Fraction(matrix[i][i])
    return x
