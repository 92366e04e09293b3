"""One core for the algebras given by a basis and integer structure constants.

The Burnside ring, the crossed Burnside ring, the center of kG and the
Mackey span algebra are each a free module on a finite basis whose basis
products are nonnegative integer combinations of basis elements.  A
subclass supplies its basis size ``n``, its ``labels``, ``one()`` and the
hook ``_basis_product(i, j)``; this module supplies the elements, their
checks, the cached sparse products and one ``multiply`` over any scalar
ring.  A commutative algebra also splits into its primitive idempotents
over a finite field (primitive_idempotents), on one F_p matrix of
Frobenius x -> x^p and the power projectors 1 - (b - lam)^(q-1) of its
fixed vectors b.  The comparison maps between
the algebras are Z-linear, so each is a set of integer rows, one per basis
element; an identity between them is decided once over Z from those rows
by the one sparse integer combination (combine), and a scalar ring reads
its verdict off the integer result.  The independent oracles of the
subclasses keep their own loops.
"""

from __future__ import annotations

from math import lcm

from .linalg import integer_kernel, sparse_mat_mul
from .scalars import PrimeFieldRing, ScalarError, ScalarRing, ZZ, prime_field


def combine(terms, row) -> dict:
    """The combination sum c row(k) over the pairs (k, c) of terms, where
    row(k) gives (key, int) pairs: sparse {key: nonzero value}, keys in the
    order they are first met.  A term with c = 0 is skipped.  The
    coefficients c are ints, or Fractions for the p-local and rational
    idempotents."""
    out: dict = {}
    for k, c in terms:
        if c:
            for key, m in row(k):
                out[key] = out.get(key, 0) + c * m
    return {key: v for key, v in out.items() if v}


class Element:
    """A dense coefficient tuple over the basis of one algebra.  Two
    elements are equal when their (algebra, scalar, coeffs) are."""

    __slots__ = ("algebra", "scalar", "coeffs")

    def __init__(self, algebra: "Algebra", scalar: ScalarRing, coeffs: tuple):
        self.algebra = algebra
        self.scalar = scalar
        self.coeffs = coeffs

    def _fields(self) -> tuple:
        return (self.algebra, self.scalar, self.coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"Element(algebra={self.algebra!r}, scalar={self.scalar!r}, coeffs={self.coeffs!r})"

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

    def __pow__(self, n: int):
        """self^n for n >= 0, by square and multiply."""
        acc, x = self.algebra.one(self.scalar), self
        while n:
            if n & 1:
                acc = acc * x
            n >>= 1
            if n:
                x = x * x
        return acc

    def is_zero(self) -> bool:
        return self.coeffs.count(self.scalar.zero) == len(self.coeffs)

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
    the Mackey hook answers it from its leg arrays with one comparison.
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
        zero = s.zero  # ScalarRing.is_zero is this comparison on every ring
        ys = [(j, b) for j, b in enumerate(y.coeffs) if b != zero]
        acc = [zero] * self.n
        for i, a in enumerate(x.coeffs):
            if a == zero:
                continue
            for j, b in ys:
                ab = s.mul(a, b)
                for k, c in self.product(i, j):
                    acc[k] = s.add(acc[k], s.mul_int(ab, c))
        return Element(self, s, tuple(acc))

    def idempotent_family(self, family) -> tuple[bool, bool, bool]:
        """(every e is idempotent, distinct members are orthogonal, the sum is 1)
        for a nonempty list of elements over one scalar ring.

        Over Z, Q and Z_(p), whose coefficients are ints or Fractions, the
        family is scaled once by the lcm d of all denominators to sparse
        integer vectors E = d e, and the checks run over Z: e e = e iff
        E E = d E, e f = 0 iff E F = 0, and the e sum to 1 iff the E sum to
        d 1.  A product multiplies only the nonzero coefficient pairs, in a
        plain loop over the basis products; a commutative algebra squares E
        over the pairs i <= j of its support, the terms i < j doubled.
        Over F_q the checks run on the dense elements.
        """
        scalar = family[0].scalar
        for e in family:
            self._check(e, scalar)
        if isinstance(scalar, PrimeFieldRing):
            total = self.zero(scalar)
            for e in family:
                total = total + e
            idempotent = all((e * e).coeffs == e.coeffs for e in family)
            orthogonal = all(
                (e * f).is_zero() for a, e in enumerate(family) for f in family[a + 1 :]
            )
            return idempotent, orthogonal, total.coeffs == self.one(scalar).coeffs
        d = lcm(*(c.denominator for e in family for c in e.coeffs))
        vectors = [
            {i: c.numerator * (d // c.denominator) for i, c in enumerate(e.coeffs) if c}
            for e in family
        ]

        product = self.product

        def times(u: dict, v: dict) -> dict:
            square = u is v and self.commutative
            items = list(v.items())
            out: dict = {}
            for x, (i, a) in enumerate(u.items()):
                for j, b in items[x:] if square else items:
                    ab = a * b
                    if square and j != i:
                        ab += ab  # the term of (j, i) as well
                    for k, m in product(i, j):
                        out[k] = out.get(k, 0) + ab * m
            return {k: c for k, c in out.items() if c}

        idempotent = all(times(E, E) == {i: d * c for i, c in E.items()} for E in vectors)
        orthogonal = not any(
            times(E, F) for a, E in enumerate(vectors) for F in vectors[a + 1 :]
        )
        total = combine(((a, 1) for a in range(len(vectors))), lambda a: vectors[a].items())
        one = {i: d * c for i, c in enumerate(self.one(ZZ).coeffs) if c}
        return idempotent, orthogonal, total == one

    # -- splitting over finite fields ---------------------------------------

    def primitive_idempotents(
        self, p: int, exponent: int | None = None
    ) -> tuple[PrimeFieldRing, list[Element]]:
        """The field F_q, q = p^exponent, and the primitive orthogonal
        idempotents of this commutative algebra over F_q, sorted; they sum to 1.

        x -> x^p is F_p-linear, one matrix F over F_p whose row i is the
        p-th power of basis element i; its powers are sparse products mod p.
        Without an explicit exponent, e is the order of F on its stable
        image, the least e with F^(k+e) = F^k for p^k >= n, and F_q is the
        least field over which every idempotent splits.  Building F_q checks
        q against scalars.MAX_FIELD_ORDER before any splitting work.  The
        kernel of F^e - 1 over F_p spans over F_q what the idempotents span.
        Each vector b of its basis has b^q = b, so at a root lam of b's
        minimal polynomial 1 - (b - lam)^(q-1) is the sum of the idempotents
        where b is lam; the nonzero products of these projectors over all b
        are the primitive idempotents.
        """
        if not self.commutative:
            raise ValueError("primitive idempotents are split only in a commutative algebra")
        if exponent is not None:
            field = prime_field(p, exponent)
        Fp = prime_field(p)
        n = self.n
        rows = [(self.basis_element(i, Fp) ** p).coeffs for i in range(n)]
        frob = {(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row) if c}
        frob_powers = [{(i, i): 1 for i in range(n)}]  # frob_powers[t] is F^t

        def frob_power(t: int) -> dict:
            while len(frob_powers) <= t:
                product = sparse_mat_mul(frob_powers[-1], frob).items()
                frob_powers.append({key: c % p for key, c in product if c % p})
            return frob_powers[t]

        if exponent is None:
            k = 1
            while p**k < n:
                k += 1
            exponent = 1
            while frob_power(k + exponent) != frob_power(k):
                exponent += 1
            field = prime_field(p, exponent)
        rows = [{i: -1} for i in range(n)]
        for (j, i), c in frob_power(exponent).items():
            rows[i][j] = rows[i].get(j, 0) + c
        fixed = integer_kernel(rows, n, Fp)
        one = self.one(field)
        idempotents = [one]
        for v in fixed:
            if len(idempotents) == len(fixed):
                break
            b = self.element(v, Fp)
            powers = [self.one(Fp)]
            for _ in range(n):
                powers.append(powers[-1] * b)
            # the first kernel vector of [1, b, ..., b^n] is the minimal polynomial
            rows = [{d: x.coeffs[i] for d, x in enumerate(powers)} for i in range(n)]
            poly = integer_kernel(rows, n + 1, Fp)[0]
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
            b = self.element(v, field)
            scaled = (Element(self, field, tuple(field.mul(lam, u) for u in one.coeffs)) for lam in roots)
            projectors = [one - (b - lam_one) ** (field.q - 1) for lam_one in scaled]
            idempotents = [f for e in idempotents for P in projectors if not (f := e * P).is_zero()]
        if len(idempotents) != len(fixed):
            raise RuntimeError("splitting did not reach the expected count")
        return field, sorted(idempotents, key=lambda e: e.coeffs)
