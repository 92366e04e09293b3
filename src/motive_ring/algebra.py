"""One core for the algebras given by a basis and integer structure constants.

The Burnside ring, the crossed Burnside ring, the center of kG and the
Mackey span algebra are each a free module on a finite basis whose basis
products are nonnegative integer combinations of basis elements.  A
subclass supplies its basis size ``n``, its ``labels``, ``one()`` and the
hook ``_basis_product(i, j)``; this module supplies the elements, their
checks, the cached sparse products and one ``multiply`` over any scalar
ring.  The independent oracles of the subclasses keep their own loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .scalars import ScalarError, ScalarRing, ZZ


@dataclass(frozen=True)
class Element:
    """A dense coefficient tuple over the basis of one algebra."""

    algebra: "Algebra"
    scalar: ScalarRing
    coeffs: tuple

    def __add__(self, other):
        self.algebra._check(other, self.scalar)
        s = self.scalar
        return Element(self.algebra, s, tuple(s.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self.algebra._check(other, self.scalar)
        s = self.scalar
        return Element(self.algebra, s, tuple(s.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        s = self.scalar
        return Element(self.algebra, s, tuple(s.neg(a) for a in self.coeffs))

    def __mul__(self, other):
        return self.algebra.multiply(self, other)

    def is_zero(self) -> bool:
        return all(self.scalar.is_zero(c) for c in self.coeffs)

    def to_json(self) -> dict[str, str]:
        labels = self.algebra.labels
        return {
            labels[i]: self.scalar.format(c)
            for i, c in enumerate(self.coeffs)
            if not self.scalar.is_zero(c)
        }


class Algebra:
    """Free module on n basis elements with cached sparse basis products.

    ``product(i, j)`` is the basis product as ((k, c), ...) with k
    ascending and every c a nonzero int.  A commutative algebra caches
    each unordered pair once and calls the hook with i <= j.  An empty
    product is not stored: the commutative algebras never have one, and
    the Mackey hook answers it from the legs of the spans without work.
    """

    commutative = False
    n: int
    labels: tuple[str, ...]

    def __init__(self):
        self._products: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def _basis_product(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        raise NotImplementedError

    def one(self, scalar: ScalarRing = ZZ) -> Element:
        raise NotImplementedError

    def product(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        if self.commutative and j < i:
            i, j = j, i
        key = (i, j)
        if key in self._products:
            return self._products[key]
        out = self._basis_product(i, j)
        if out:
            self._products[key] = out
        return out

    # -- elements ---------------------------------------------------------

    def element(self, coeffs, scalar: ScalarRing = ZZ) -> Element:
        if len(coeffs) != self.n:
            raise ValueError("coefficient length mismatch")
        return Element(self, scalar, tuple(scalar.coerce(c) for c in coeffs))

    def zero(self, scalar: ScalarRing = ZZ) -> Element:
        return Element(self, scalar, (scalar.zero,) * self.n)

    def basis_element(self, i: int, scalar: ScalarRing = ZZ) -> Element:
        coeffs = [scalar.zero] * self.n
        coeffs[i] = scalar.one
        return Element(self, scalar, tuple(coeffs))

    def _check(self, x, scalar: ScalarRing) -> None:
        if not isinstance(x, Element) or x.algebra is not self:
            raise ValueError("element belongs to a different algebra")
        if x.scalar != scalar:
            raise ScalarError(f"mixed scalar rings: {x.scalar.tag} vs {scalar.tag}")

    # -- products -----------------------------------------------------------

    def multiply(self, x: Element, y: Element) -> Element:
        self._check(x, x.scalar)
        self._check(y, x.scalar)
        s = x.scalar
        ys = [(j, b) for j, b in enumerate(y.coeffs) if not s.is_zero(b)]
        acc = [s.zero] * self.n
        for i, a in enumerate(x.coeffs):
            if s.is_zero(a):
                continue
            for j, b in ys:
                ab = s.mul(a, b)
                for k, c in self.product(i, j):
                    acc[k] = s.add(acc[k], s.mul_int(ab, c))
        return Element(self, s, tuple(acc))

    def idempotent_family(self, family) -> tuple[bool, bool, bool]:
        """(every e is idempotent, distinct members are orthogonal, the sum is 1)
        for a nonempty list of elements over one scalar ring.

        Over Q and Z_(p), where every coefficient is a Fraction, the family
        is scaled once by the lcm d of all denominators to integer vectors
        E = d e, and the checks run over Z: e e = e iff E E = d E, e f = 0
        iff E F = 0, and the e sum to 1 iff the E sum to d 1.
        """
        scalar = family[0].scalar
        for e in family:
            self._check(e, scalar)
        d = 1
        if all(isinstance(c, Fraction) for e in family for c in e.coeffs):
            d = lcm(*(c.denominator for e in family for c in e.coeffs))
            scalar = ZZ
            family = [
                Element(self, ZZ, tuple(c.numerator * (d // c.denominator) for c in e.coeffs))
                for e in family
            ]

        def times_d(x: Element) -> tuple:
            return tuple(scalar.mul_int(c, d) for c in x.coeffs)

        total = self.zero(scalar)
        for e in family:
            total = total + e
        idempotent = all((e * e).coeffs == times_d(e) for e in family)
        orthogonal = all(
            (e * f).is_zero() for a, e in enumerate(family) for f in family[a + 1 :]
        )
        return idempotent, orthogonal, total.coeffs == times_d(self.one(scalar))
