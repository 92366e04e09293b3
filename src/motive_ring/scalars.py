"""Exact scalar rings: Z, Q, p-local rationals, and small finite fields.

Every ring element is an exact Python object (int, Fraction, or a
coefficient tuple for field extensions); there is no floating point
anywhere in the package.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cached_property

from .groups import GroupTooLarge

MAX_FIELD_ORDER = 65536  # the root and idempotent scans walk all of F_q


class ScalarError(ValueError):
    """Raised when a value does not belong to the requested scalar ring."""


class ScalarRing:
    """Common interface for the coefficient rings used by ring elements.

    The arithmetic defaults are Python's own, right for the int and
    Fraction elements of Z, Q and Z_(p); F_q overrides them.
    """

    tag: str

    def coerce(self, value):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul_int(self, a, n: int):
        """a times the integer n."""
        return a * n

    def is_zero(self, a):
        return a == self.zero

    def format(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise ScalarError(f"zero denominator in {text!r}") from None
        return self.coerce(value)

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


class RationalRing(ScalarRing):
    tag = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, bool):
            raise ScalarError("booleans are not ring elements")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise ScalarError(f"cannot coerce {value!r} into Q")

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)


class PLocalRing(ScalarRing):
    """Rationals whose denominator is coprime to a fixed prime p."""

    def __init__(self, p: int):
        check_prime_bound(p)
        if not _is_prime(p):
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


# The Miller-Rabin test to the prime bases 2..41 decides primality for every
# p below 3.3 * 10^24 (Sorenson and Webster, 2015); a larger p is refused.
PRIME_BOUND = 3317044064679887385961980
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test for p <= PRIME_BOUND."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def parse_int(text: str) -> int | str:
    """int(text), except for a decimal numeral with more significant digits
    than int() converts (sys.get_int_max_str_digits(), 4,300 by default):
    that one is returned unconverted, as its digits.  Its value is far over
    PRIME_BOUND and MAX_FIELD_ORDER, and check_prime_bound and
    _check_field_order refuse it by its length.  ValueError if the text is
    no integer."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip().removeprefix("+")
        if not (digits.isascii() and digits.isdigit()):
            raise
        digits = digits.lstrip("0") or "0"
        return digits if len(digits) > sys.get_int_max_str_digits() else int(digits)


_FRACTION = re.compile(r"\s*[-+]?(?=\.?\d)([\d_]*)(?:/([\d_]+)|(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?)\s*")


def fraction_too_long(text: str) -> bool:
    """True if Fraction(text) would build a numerator or a denominator of
    more digits than int() converts, before it reduces them: n over d, or
    the digits of i.f over 10^len(f), one of them scaled by 10^|e|.  Read
    off the text, so a long exponent costs nothing; another form is left
    to Fraction, which refuses it."""
    m = _FRACTION.fullmatch(text)
    limit = sys.get_int_max_str_digits()
    num, den, frac, exp = ((g or "").replace("_", "") for g in m.groups()) if m else ("",) * 4
    e = int(exp or 0) if len(exp.lstrip("+-0")) <= len(str(limit)) else limit  # a longer |e| is past the limit
    return max(len(num + frac) + max(e, 0), len(den) or len(frac) + max(-e, 0) + 1) > limit


def _shown(n: int | str) -> str:
    """n for a bound message; an unconverted numeral (parse_int) by its length."""
    return f"<{len(n)} digits>" if isinstance(n, str) else str(n)


def check_prime_bound(p: int | str) -> None:
    """Refuse p above PRIME_BOUND, whose primality is not decided, with
    GroupTooLarge."""
    if isinstance(p, str) or p > PRIME_BOUND:
        raise GroupTooLarge(f"prime too large: p = {_shown(p)} > prime bound {PRIME_BOUND}")


def _poly_mod(coeffs, modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Reduce an integer coefficient sequence mod (modulus, p); modulus is monic."""
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


def _digits(idx: int, p: int, e: int) -> tuple[int, ...]:
    """The e base-p digits of idx, least significant first."""
    digits = []
    for _ in range(e):
        idx, r = divmod(idx, p)
        digits.append(r)
    return tuple(digits)


def _find_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree e over F_p, by
    trial division against every monic polynomial of degree 1..e//2."""
    for idx in range(p**e):
        f = _digits(idx, p, e) + (1,)
        if f[0] == 0:  # divisible by x
            continue
        if all(
            any(_poly_mod(f, _digits(d, p, deg) + (1,), p))
            for deg in range(1, e // 2 + 1)
            for d in range(p**deg)
        ):
            return f
    raise RuntimeError(f"no irreducible of degree {e} over F_{p}")


def _check_field_order(p: int | str, e: int | str) -> None:
    """Refuse F_q, q = p^e, above MAX_FIELD_ORDER with GroupTooLarge.

    Nothing large is formed: p^e has at most e * bits(p) bits, and only
    when that is small is it computed and printed.  Exponents below 1 and
    p below 2 name no field and are left to the checks of PrimeFieldRing.
    A p or e left unconverted by parse_int is too large at once.
    """
    if isinstance(p, str) or isinstance(e, str) and p >= 2:
        raise GroupTooLarge(f"field too large: q = {_shown(p)}^{_shown(e)} > field bound {MAX_FIELD_ORDER}")
    if p < 2 or e < 1:
        return
    if e * p.bit_length() > 4096:  # p^e >= 2^(e (bits(p) - 1)) > 2^2048
        raise GroupTooLarge(f"field too large: q = {p}^{e} > field bound {MAX_FIELD_ORDER}")
    q = p**e
    if q > MAX_FIELD_ORDER:
        raise GroupTooLarge(f"field too large: q = {p}^{e} = {q} > field bound {MAX_FIELD_ORDER}")


class PrimeFieldRing(ScalarRing):
    """F_q with q = p^e.  Elements are ints for e = 1, coefficient tuples else."""

    def __init__(self, p: int, e: int = 1):
        _check_field_order(p, e)  # first: it also bounds the prime test
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
            self.zero = (0,) * e
            self.one = (1,) + (0,) * (e - 1)

    @cached_property
    def modulus(self) -> tuple[int, ...]:
        """The defining irreducible of F_q over F_p, found on first use."""
        return _find_irreducible(self.p, self.e)

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
        return [_digits(idx, self.p, self.e) for idx in range(self.q)]

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


def tag_int(tag: str, text: str) -> int | str:
    """An integer field of a coefficient tag, read by parse_int; ScalarError
    naming the tag if it is not one."""
    try:
        return parse_int(text)
    except ValueError:
        raise ScalarError(f"malformed coefficient tag {tag!r}") from None


def ring_from_tag(tag: str) -> ScalarRing:
    """Parse a coefficient tag: Z | Q | Zp:<p> | Fp:<p>[:<e>]."""
    if tag == "Z":
        return ZZ
    if tag == "Q":
        return QQ
    if tag.startswith("Zp:"):
        return p_local(tag_int(tag, tag[3:]))
    if tag.startswith("Fp:"):
        parts = tag[3:].split(":")
        if len(parts) <= 2:
            return prime_field(*(tag_int(tag, part) for part in parts))
    raise ScalarError(f"unknown coefficient tag {tag!r}")
