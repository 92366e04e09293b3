"""Exact scalar rings: Z, Q, p-local rationals, and small finite fields.

Every ring element is an exact Python object (int, Fraction, or a
coefficient tuple for field extensions); there is no floating point
anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction


class ScalarError(ValueError):
    """Raised when a value does not belong to the requested scalar ring."""


class ScalarRing:
    """Common interface for the coefficient rings used by ring elements."""

    tag: str
    is_field = False

    def coerce(self, value):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul_int(self, a, n: int):
        """a times the integer n."""
        return self.mul(a, self.coerce(n))

    def is_zero(self, a):
        return a == self.zero

    def format(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        raise NotImplementedError

    def __repr__(self):
        return f"<{self.tag}>"

    def __eq__(self, other):
        return isinstance(other, ScalarRing) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)


class IntegerRing(ScalarRing):
    tag = "Z"
    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(value, bool):
            raise ScalarError("booleans are not ring elements")
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ScalarError(f"{value} is not an integer")
            return int(value)
        raise ScalarError(f"cannot coerce {value!r} into Z")

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def mul_int(self, a, n: int):
        return a * n

    def parse(self, text):
        return self.coerce(Fraction(text))


class RationalRing(ScalarRing):
    tag = "Q"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, bool):
            raise ScalarError("booleans are not ring elements")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise ScalarError(f"cannot coerce {value!r} into Q")

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def mul_int(self, a, n: int):
        return a * n

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def parse(self, text):
        return Fraction(text)


class PLocalRing(ScalarRing):
    """Rationals whose denominator is coprime to a fixed prime p."""

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ScalarError(f"{p} is not prime")
        self.p = p
        self.tag = f"Zp:{p}"
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, bool):
            raise ScalarError("booleans are not ring elements")
        if isinstance(value, (int, Fraction)):
            value = Fraction(value)
            if value.denominator % self.p == 0:
                raise ScalarError(
                    f"{value} is not {self.p}-local (denominator divisible by {self.p})"
                )
            return value
        raise ScalarError(f"cannot coerce {value!r} into {self.tag}")

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def mul_int(self, a, n: int):
        return a * n

    def parse(self, text):
        return self.coerce(Fraction(text))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_mod(coeffs: list[int], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Reduce an integer coefficient list mod (modulus, p); modulus is monic."""
    e = len(modulus) - 1
    coeffs = [c % p for c in coeffs]
    for i in range(len(coeffs) - 1, e - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(e + 1):
                coeffs[i - e + j] = (coeffs[i - e + j] - c * modulus[j]) % p
    coeffs = coeffs[:e]
    coeffs += [0] * (e - len(coeffs))
    return tuple(coeffs)


def _find_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree e over F_p."""
    # trial division against all monic polynomials of degree 1..e//2
    def poly_from_index(idx, deg):
        coeffs = []
        for _ in range(deg):
            coeffs.append(idx % p)
            idx //= p
        return coeffs + [1]

    def divides(d, f):
        # synthetic division of f by monic d over F_p, True if remainder 0
        rem = list(f)
        dd = len(d) - 1
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] % p
            if c:
                for j in range(dd + 1):
                    rem[i - dd + j] = (rem[i - dd + j] - c * d[j]) % p
        return all(c % p == 0 for c in rem[:dd])

    for idx in range(p**e):
        f = poly_from_index(idx, e)
        if f[0] == 0:  # divisible by x
            continue
        ok = True
        for deg in range(1, e // 2 + 1):
            for didx in range(p**deg):
                d = poly_from_index(didx, deg)
                if divides(d, f):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return tuple(f)
    raise RuntimeError(f"no irreducible of degree {e} over F_{p}")


class PrimeFieldRing(ScalarRing):
    """F_q with q = p^e.  Elements are ints for e = 1, coefficient tuples else."""

    is_field = True

    def __init__(self, p: int, e: int = 1):
        if not _is_prime(p):
            raise ScalarError(f"{p} is not prime")
        if e < 1:
            raise ScalarError("field exponent must be >= 1")
        self.p = p
        self.e = e
        self.q = p**e
        self.tag = f"Fp:{p}" if e == 1 else f"Fp:{p}:{e}"
        if e == 1:
            self.zero = 0
            self.one = 1
        else:
            self.modulus = _find_irreducible(p, e)
            self.zero = (0,) * e
            self.one = (1,) + (0,) * (e - 1)

    def coerce(self, value):
        if isinstance(value, bool):
            raise ScalarError("booleans are not ring elements")
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ScalarError(f"{value} has no image in {self.tag}")
            num = value.numerator % self.p
            den = value.denominator % self.p
            value = (num * pow(den, -1, self.p)) % self.p
        if isinstance(value, int):
            r = value % self.p
            return r if self.e == 1 else (r,) + (0,) * (self.e - 1)
        if self.e > 1 and isinstance(value, tuple) and len(value) == self.e:
            return tuple(c % self.p for c in value)
        raise ScalarError(f"cannot coerce {value!r} into {self.tag}")

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return _poly_mod(prod, self.modulus, self.p)

    def mul_int(self, a, n: int):
        if self.e == 1:
            return a * n % self.p
        return tuple(x * n % self.p for x in a)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.e == 1:
            return pow(a, -1, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a, n: int):
        result = self.one
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def elements(self):
        if self.e == 1:
            return list(range(self.p))
        out = []
        for idx in range(self.q):
            coeffs = []
            for _ in range(self.e):
                coeffs.append(idx % self.p)
                idx //= self.p
            out.append(tuple(coeffs))
        return out

    def format(self, a):
        if self.e == 1:
            return str(a)
        if all(c == 0 for c in a[1:]):
            return str(a[0])
        terms = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
        return "+".join(terms) if terms else "0"

    def parse(self, text):
        text = text.strip()
        if self.e == 1:
            return int(text) % self.p
        raise ScalarError("parsing extension-field scalars is not supported")


ZZ = IntegerRing()
QQ = RationalRing()

_plocal_cache: dict[int, PLocalRing] = {}
_field_cache: dict[tuple[int, int], PrimeFieldRing] = {}


def p_local(p: int) -> PLocalRing:
    if p not in _plocal_cache:
        _plocal_cache[p] = PLocalRing(p)
    return _plocal_cache[p]


def prime_field(p: int, e: int = 1) -> PrimeFieldRing:
    if (p, e) not in _field_cache:
        _field_cache[(p, e)] = PrimeFieldRing(p, e)
    return _field_cache[(p, e)]


def ring_from_tag(tag: str) -> ScalarRing:
    """Parse a coefficient tag: Z | Q | Zp:<p> | Fp:<p>[:<e>]."""
    if tag == "Z":
        return ZZ
    if tag == "Q":
        return QQ
    if tag.startswith("Zp:"):
        return p_local(int(tag[3:]))
    if tag.startswith("Fp:"):
        parts = tag[3:].split(":")
        if len(parts) == 1:
            return prime_field(int(parts[0]))
        if len(parts) == 2:
            return prime_field(int(parts[0]), int(parts[1]))
    raise ScalarError(f"unknown coefficient tag {tag!r}")
