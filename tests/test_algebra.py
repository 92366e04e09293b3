from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import random
import typing
from fractions import Fraction

import pytest
import reference_maps as walks
from dense_linalg import operator_product

import motive_ring
import motive_ring.algebra as algebra_mod
from motive_ring.algebra import Algebra
from motive_ring.burnside import BurnsideRing
from motive_ring.crossed import CrossedBurnsideRing
from motive_ring.groups import GroupTooLarge, construct_group
from motive_ring.scalars import QQ, ZZ, ScalarError, p_local, prime_field
from motive_ring.subgroups import SubgroupClassTable

SCALARS = [ZZ, QQ, p_local(2), prime_field(2), prime_field(2, 2)]


def random_scalar(scalar, rng):
    """A random scalar, zero about a fifth of the time."""
    if scalar.tag == "Q":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    if scalar.tag == "Zp:2":
        return Fraction(rng.randint(-3, 3), rng.choice([1, 3, 5]))
    if scalar.tag == "Fp:2:2":
        return (rng.randrange(2), rng.randrange(2))
    return rng.randint(-2, 2)


def random_element(algebra, scalar, rng):
    return algebra.element([random_scalar(scalar, rng) for _ in range(algebra.n)], scalar)


def burnside_check(ws, group, x, y, xy):
    """Marks are a ring map into the product ring."""
    ring = ws.burnside(group)
    s = x.scalar
    mx, my = ring.marks(x), ring.marks(y)
    assert ring.marks(xy) == tuple(s.mul(a, b) for a, b in zip(mx, my))


def crossed_check(ws, group, x, y, xy):
    assert xy.coeffs == ws.crossed(group).multiply_oracle(x, y).coeffs


def center_check(ws, group, x, y, xy):
    assert xy.coeffs == ws.center(group).multiply_oracle(x, y).coeffs


def mackey_check(ws, group, x, y, xy):
    """Projection to the Hecke algebra is an algebra map onto operator products."""
    mk = ws.mackey(group)
    assert walks.project(mk, xy) == operator_product(walks.project(mk, x), walks.project(mk, y), mk.npoints, x.scalar)


ALGEBRAS = {
    "burnside": (lambda ws, g: ws.burnside(g), burnside_check),
    "crossed": (lambda ws, g: ws.crossed(g), crossed_check),
    "center": (lambda ws, g: ws.center(g), center_check),
    "mackey": (lambda ws, g: ws.mackey(g), mackey_check),
}


@pytest.mark.parametrize("scalar", SCALARS, ids=lambda s: s.tag)
@pytest.mark.parametrize("group", ["C4", "S3"])
@pytest.mark.parametrize("kind", sorted(ALGEBRAS))
def test_multiply_matches_the_independent_check(kind, group, scalar, ws):
    build, check = ALGEBRAS[kind]
    algebra = build(ws, group)
    rng = random.Random(f"{kind}-{group}-{scalar.tag}")
    for _ in range(3):
        x, y = random_element(algebra, scalar, rng), random_element(algebra, scalar, rng)
        check(ws, group, x, y, x * y)
    assert (algebra.one(scalar) * x).coeffs == x.coeffs
    assert algebra.idempotent_family([algebra.one(scalar)]) == (True, True, True)
    # scalar.is_zero, not truthiness: the zero of F4 is (0, 0)
    assert (x - x).is_zero() and (x - x).to_json() == {}
    assert algebra.zero(scalar).is_zero()
    assert (x + algebra.zero(scalar)).coeffs == x.coeffs


@pytest.mark.parametrize("group", ["C4", "S3"])
@pytest.mark.parametrize("kind", sorted(ALGEBRAS))
def test_operands_must_share_algebra_and_scalars(kind, group, ws):
    algebra = ALGEBRAS[kind][0](ws, group)
    other = ws.center(group) if kind != "center" else ws.burnside(group)
    x = algebra.one(QQ)
    for op in (algebra.multiply, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError, match="different algebra"):
            op(x, other.one(QQ))
        with pytest.raises(ScalarError, match="mixed scalar"):
            op(x, algebra.one(ZZ))


def test_elements_are_equal_exactly_when_algebra_scalar_and_coefficients_are(ws):
    """The equality and hash of a frozen record of (algebra, scalar, coeffs)."""
    ring = ws.burnside("S3")
    twin = BurnsideRing(ws.table("S3"))  # the same basis, another algebra
    coeffs = [1, 0, 2, 0]
    x = ring.element(coeffs, QQ)
    same = ring.element([Fraction(c) for c in coeffs], QQ)
    assert x is not same and x == same and hash(x) == hash(same) and {x: 1}[same] == 1
    others = [twin.element(coeffs, QQ), ring.element(coeffs, ZZ), ring.element([1, 0, 2, 1], QQ)]
    for y in others:
        assert x != y and not x == y
    assert len({x, same, *others}) == 4
    assert x.__eq__(x.coeffs) is NotImplemented and x != x.coeffs


def test_every_public_annotation_resolves():
    resolved = 0
    for info in pkgutil.iter_modules(motive_ring.__path__):
        module = importlib.import_module(f"motive_ring.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(name, obj)]
            for key, fn in members:
                if not key.startswith("_") and inspect.isfunction(fn):
                    typing.get_type_hints(fn)
                    resolved += 1
    assert resolved > 100


def test_every_name_in_all_imports():
    namespace: dict = {}
    exec("from motive_ring import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(motive_ring.__all__)
    assert len(set(motive_ring.__all__)) == len(motive_ring.__all__)


# -- idempotent families ---------------------------------------------------------------


def literal_idempotent_family(algebra, family):
    """The three facts by element arithmetic over the family's own scalars."""
    scalar = family[0].scalar
    total = algebra.zero(scalar)
    for e in family:
        total = total + e
    idempotent = all((e * e).coeffs == e.coeffs for e in family)
    orthogonal = all((e * f).is_zero() for a, e in enumerate(family) for f in family[a + 1 :])
    return idempotent, orthogonal, total.coeffs == algebra.one(scalar).coeffs


@functools.cache
def s5_crossed():
    return CrossedBurnsideRing(SubgroupClassTable(construct_group("sym:5")))


def crossed_ring(name, ws):
    return s5_crossed() if name == "S5" else ws.crossed(name)


def true_families(name, ws):
    """(algebra, family) pairs of idempotent families over Q and Z_(p), in the
    Burnside ring and embedded in the crossed ring."""
    xr = crossed_ring(name, ws)
    families = [(xr.burnside, xr.burnside.rational_idempotents())]
    for p in (2, 3):
        families.append((xr.burnside, [f for _, f in xr.burnside.dress_idempotents(p)]))
    families += [(xr, [xr.with_identity_labels(f) for f in family]) for _, family in families]
    return families


@pytest.mark.parametrize("name", ["S4", "A5", "S5"])
def test_integer_idempotent_family_agrees_on_true_families(name, ws):
    for algebra, family in true_families(name, ws):
        assert algebra.idempotent_family(family) == (True, True, True)
        assert literal_idempotent_family(algebra, family) == (True, True, True)


def broken_families(family):
    """Each failure mode of one true family, with the facts it keeps."""
    e0, e1, rest = family[0], family[1], family[2:]
    return [
        ([e0 + e0, e1, *rest], (False, True, False)),  # a member that is not idempotent
        ([e0 + e1, e1, *rest], (True, False, False)),  # a pair that is not orthogonal
        ([e1, *rest], (True, True, False)),  # a member missing from the sum
    ]


@pytest.mark.parametrize("name", ["A4", "A5"])
def test_integer_idempotent_family_agrees_on_each_failure_mode(name, ws):
    for algebra, family in true_families(name, ws):
        e0 = family[0]
        fifth = algebra.element([c / 5 for c in e0.coeffs], e0.scalar)
        # the lcm of the denominators grows by 5, a factor no true member has
        cases = broken_families(family) + [([fifth, *family[1:]], (False, True, False))]
        for broken, facts in cases:
            assert literal_idempotent_family(algebra, broken) == facts
            assert algebra.idempotent_family(broken) == facts


def test_idempotent_family_over_fields_and_z_unchanged(ws):
    Z = ws.center("A5")
    xr = ws.crossed("A5")
    cases = [(Z, Z.primitive_idempotents(p)[1]) for p in (2, 3, 5)]  # F_2, F_9, F_5
    cases.append((xr, [e for _, e in xr.dress_idempotents("solvable")]))
    cases.append((ws.center("C3"), ws.center("C3").primitive_idempotents(2)[1]))
    for algebra, family in cases:
        assert algebra.idempotent_family(family) == (True, True, True)
        assert literal_idempotent_family(algebra, family) == (True, True, True)
        for broken, _ in broken_families(family):
            assert algebra.idempotent_family(broken) == literal_idempotent_family(algebra, broken)
    one = [xr.one(QQ)]
    assert xr.idempotent_family(one) == literal_idempotent_family(xr, one) == (True, True, True)
    with pytest.raises(ScalarError, match="mixed scalar"):
        xr.idempotent_family([xr.one(QQ), xr.one(p_local(2))])


# -- splitting over finite fields ------------------------------------------------------


@pytest.mark.parametrize("name,scalar", [("S3", prime_field(3)), ("A4", prime_field(2, 2)), ("S3", QQ)])
def test_power_is_repeated_multiplication(name, scalar, ws):
    for algebra in (ws.center(name), ws.crossed(name)):
        x = algebra.zero(scalar)
        for i in range(algebra.n):
            x = x + algebra.basis_element(i, scalar)
            acc = algebra.one(scalar)
            for n in range(7):
                assert (x**n).coeffs == acc.coeffs
                acc = acc * x


def test_primitive_idempotents_refuse_a_noncommutative_algebra(ws):
    with pytest.raises(ValueError, match="commutative"):
        ws.mackey("C2").primitive_idempotents(2)


def test_primitive_idempotents_check_the_field_bound_before_any_work(ws, monkeypatch):
    def refuse(*args):
        raise AssertionError("splitting work started before the bound check")

    monkeypatch.setattr(Algebra, "multiply", refuse)
    monkeypatch.setattr(algebra_mod, "integer_kernel", refuse)
    for algebra in (ws.center("S3"), ws.crossed("S3")):
        with pytest.raises(GroupTooLarge, match="field bound 65536"):
            algebra.primitive_idempotents(2, exponent=17)
