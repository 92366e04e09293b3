"""The Mackey comparison-map checks decided once over Z against their
per-scalar evaluation on dense elements (reference_checks), and the sparse
unit and associativity checks of the crossed ring against dense products."""

from __future__ import annotations

from random import Random

import pytest
import reference_checks as ref
from conftest import GROUP_SPECS

from motive_ring import verify
from motive_ring.algebra import Algebra
from motive_ring.crossed import CrossedBurnsideRing
from motive_ring.groups import construct_group
from motive_ring.mackey import MackeyAlgebra
from motive_ring.scalars import QQ, p_local, prime_field

F2 = prime_field(2)
SMALL_GROUPS = [name for name, spec in GROUP_SPECS.items() if construct_group(spec).order <= 12]
SCALAR_SETS = [[QQ, F2], [p_local(2)], [prime_field(3)]]


def verdicts(checks):
    return [(c.name, c.passed, c.detail) for c in checks]


def reference_verdicts(mk, xr, scalars, seed):
    rng = Random(seed)
    return verdicts(verify.span_checks(mk, rng) + ref.mackey_map_checks(mk, xr, scalars, rng))


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("scalars", SCALAR_SETS, ids=lambda s: "+".join(r.tag for r in s))
@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_z_first_verdicts_match_the_per_scalar_reference(name, scalars, seed, ws):
    mk, xr = ws.mackey(name), ws.crossed(name)
    got = verdicts(verify.mackey_checks(mk, xr, scalars, Random(seed)))
    assert got == reference_verdicts(mk, xr, scalars, seed)


class ShiftedMackey(MackeyAlgebra):
    """A span algebra whose product at one pair of spans has its first
    coefficient shifted by 2: wrong over Z and Q, right over F_2."""

    shifted: tuple[int, int] = (-1, -1)

    def _basis_product(self, i, j):
        out = super()._basis_product(i, j)
        if (i, j) == self.shifted:
            (k, c), *rest = out
            out = ((k, c + 2), *rest)
        return out


def test_a_case_failing_over_z_is_decided_per_scalar(ws):
    seed = 7
    mk = ShiftedMackey(ws.table("S3"))
    xr = ws.crossed("S3")
    # replay the draws of mackey_checks over one scalar: the associativity
    # triples of span_checks, then the projection pairs (S3 draws no zeta
    # cases: its 8 crossed pairs are checked exhaustively)
    rng = Random(seed)
    verify._triples(mk.n, False, rng)
    drawn = verify._pairs(mk.n, False, rng)
    i, j = mk.shifted = next((i, j) for i, j in drawn if mk._basis_product(i, j))
    want = f"projection not multiplicative on spans ({i},{j})"

    over_q = verify.mackey_checks(mk, xr, [QQ], Random(seed))
    assert verdicts(over_q) == reference_verdicts(mk, xr, [QQ], seed)
    proj = next(c for c in over_q if c.name == "projection-algebra-homomorphism[Q]")
    assert not proj.passed and proj.detail == want

    over_f2 = verify.mackey_checks(mk, xr, [F2], Random(seed))
    assert verdicts(over_f2) == reference_verdicts(mk, xr, [F2], seed)
    proj = next(c for c in over_f2 if c.name == "projection-algebra-homomorphism[Fp:2]")
    assert proj.passed


def test_the_mackey_map_checks_multiply_no_dense_elements(ws, monkeypatch):
    mk, xr = ws.mackey("S3"), ws.crossed("S3")
    scalars_seen = []
    multiply = Algebra.multiply

    def counted(self, x, y):
        scalars_seen.append(x.scalar)
        return multiply(self, x, y)

    monkeypatch.setattr(Algebra, "multiply", counted)
    checks = verify.mackey_checks(mk, xr, [QQ, F2], Random(7))
    assert len(checks) == 3 + 2 * 8
    assert [s for s in scalars_seen if s in (QQ, F2)] == []


class ShiftedCrossed(CrossedBurnsideRing):
    """A crossed ring whose square of one basis pair has its first
    coefficient shifted by 2."""

    shifted = None

    def _basis_product(self, i, j):
        out = super()._basis_product(i, j)
        if i == j == self.shifted:
            (k, c), *rest = out
            out = ((k, c + 2), *rest)
        return out


@pytest.mark.parametrize("shifted", [None, 0, 3])
@pytest.mark.parametrize("name", ["S3", "D8"])
def test_sparse_crossed_axioms_match_dense_products(name, shifted, ws):
    xr = ShiftedCrossed(ws.table(name))
    xr.shifted = shifted
    units = [(e, c) for e, c in enumerate(xr.one().coeffs) if c]
    n = xr.n
    triples = verify._triples(n, False, Random(5))
    if shifted is not None:
        triples += [(shifted, shifted, k) for k in range(n)]
    sparse = [f"unit fails on {xr.labels[i]}" for i in range(n) if not verify._unit_fixes(xr, units, i)]
    sparse += [
        f"associativity fails on ({i},{j},{k})" for i, j, k in triples if not verify._associative(xr, i, j, k)
    ]
    assert sparse == list(ref.crossed_axiom_failures(xr, triples))
    assert bool(sparse) == (shifted is not None)
