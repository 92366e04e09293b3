from __future__ import annotations

import importlib
import inspect
import pkgutil
import random
import typing
from fractions import Fraction

import pytest

import motive_ring
from motive_ring.linalg import sparse_mat_mul
from motive_ring.scalars import QQ, ZZ, ScalarError, p_local, prime_field

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
    mx, my = ring.marks(x).values, ring.marks(y).values
    assert ring.marks(xy).values == tuple(s.mul(a, b) for a, b in zip(mx, my))


def crossed_check(ws, group, x, y, xy):
    assert xy.coeffs == ws.crossed(group).multiply_oracle(x, y).coeffs


def center_check(ws, group, x, y, xy):
    assert xy.coeffs == ws.center(group).multiply_oracle(x, y).coeffs


def mackey_check(ws, group, x, y, xy):
    """Projection to the Hecke algebra is an algebra map onto operator products."""
    mk = ws.mackey(group)
    assert mk.project(xy) == sparse_mat_mul(mk.project(x), mk.project(y), x.scalar)


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
