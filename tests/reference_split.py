"""The dense finite-field split, for the tests only.

The reference for Algebra.primitive_idempotents, on dense elements
throughout.  The splitting exponent is the lcm of the periods under
x -> x^p of the basis elements raised to p^k >= n, each period walked
with more dense powers; the fixed space of x -> x^q is the kernel of the
dense q-th powers of the basis minus the identity; and each vector b of
its basis is split by the Lagrange projectors
prod_{mu != lam} (b - mu) / (lam - mu) over the roots lam of its minimal
polynomial.  Kernels come from the dense elimination of dense_linalg and
field inverses from its scan, so it shares no matrix, kernel or projector
with the package.
"""

from __future__ import annotations

from math import lcm

from dense_linalg import inverse, nullspace_field

from motive_ring.algebra import Element
from motive_ring.scalars import prime_field


def splitting_exponent(algebra, p: int) -> int:
    """The lcm of the periods of the b_i^(p^k), p^k >= n, under x -> x^p."""
    Fp = prime_field(p)
    pk = p
    while pk < algebra.n:
        pk *= p
    e = 1
    for i in range(algebra.n):
        s = algebra.basis_element(i, Fp) ** pk
        t, period = s**p, 1
        while t.coeffs != s.coeffs:
            t, period = t**p, period + 1
        e = lcm(e, period)
    return e


def q_powers(algebra, p: int, exponent: int) -> list[tuple]:
    """The coefficients over F_p of b_i^q, q = p^exponent, for every basis element b_i."""
    Fp = prime_field(p)
    return [(algebra.basis_element(i, Fp) ** p**exponent).coeffs for i in range(algebra.n)]


def fixed_space_rows(algebra, p: int, exponent: int) -> list[list[int]]:
    """Row i of x -> x^q minus the identity on coefficient vectors, mod p:
    entry j is coefficient i of b_j^q, less 1 where j = i."""
    frob = q_powers(algebra, p, exponent)
    n = algebra.n
    return [[(frob[j][i] - (i == j)) % p for j in range(n)] for i in range(n)]


def primitive_idempotents(algebra, p: int, exponent: int | None = None):
    """(F_q, the sorted primitive idempotents over F_q) by the dense split."""
    if exponent is None:
        exponent = splitting_exponent(algebra, p)
    field = prime_field(p, exponent)
    Fp = prime_field(p)
    n = algebra.n
    fixed = nullspace_field(fixed_space_rows(algebra, p, exponent), Fp, n)
    one = algebra.one(field).coeffs
    idempotents = [algebra.one(field)]
    for v in fixed:
        if len(idempotents) == len(fixed):
            break
        b = algebra.element(v, Fp)
        powers = [algebra.one(Fp)]
        for _ in range(n):
            powers.append(powers[-1] * b)
        poly = nullspace_field([[x.coeffs[i] for x in powers] for i in range(n)], Fp, n + 1)[0]
        degree = max(d for d, c in enumerate(poly) if c)
        coeffs = [field.coerce(c) for c in reversed(poly[: degree + 1])]
        roots = [lam for lam in field.elements() if field.is_zero(_horner(coeffs, lam, field))]
        bq = algebra.element(v, field).coeffs
        projectors = []
        for lam in roots:
            piece = algebra.one(field)
            for mu in roots:
                if mu != lam:
                    scale = inverse(field.sub(lam, mu), field)
                    factor = tuple(
                        field.mul(scale, field.sub(c, field.mul(mu, u))) for c, u in zip(bq, one)
                    )
                    piece = piece * Element(algebra, field, factor)
            projectors.append(piece)
        idempotents = [f for e in idempotents for P in projectors if not (f := e * P).is_zero()]
    assert len(idempotents) == len(fixed)
    return field, sorted(idempotents, key=lambda e: e.coeffs)


def _horner(coeffs, x, field):
    acc = field.zero
    for c in coeffs:
        acc = field.add(field.mul(acc, x), c)
    return acc
