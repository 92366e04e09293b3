"""The Mackey comparison-map checks decided once over Z against their
per-scalar evaluation on dense elements (reference_checks), the checks of
the marks and the center image read off the integer rows against dense
products and coset walks, the sparse unit and associativity checks of
the crossed ring against dense products, and the one-pass associativity
against the per-triple reference."""

from __future__ import annotations

from random import Random

import pytest
import reference_checks as ref
from conftest import GROUP_SPECS

from motive_ring import verify
from motive_ring.algebra import Algebra
from motive_ring.burnside import BurnsideRing
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
    sparse += [f"associativity fails on ({i},{j},{k})" for i, j, k in verify._nonassociative(xr, triples)]
    assert sparse == list(ref.crossed_axiom_failures(xr, triples))
    assert bool(sparse) == (shifted is not None)


# -- the one-pass associativity against the per-triple reference ----------------


def reference_failures(algebra, triples):
    return [t for t in triples if not ref.associative(algebra, *t)]


@pytest.mark.parametrize(
    "kind, name",
    [("mackey", n) for n in ("C2", "C3", "C4", "V4", "S3")] + [("crossed", "S3"), ("crossed", "D8")],
)
def test_one_pass_associativity_matches_the_reference_on_every_triple(kind, name, ws):
    algebra = getattr(ws, kind)(name)
    triples = verify._triples(algebra.n, True, Random(0))
    assert list(verify._nonassociative(algebra, triples)) == reference_failures(algebra, triples) == []


@pytest.mark.parametrize("kind", ["mackey", "crossed"])
@pytest.mark.parametrize("name", ["D8", "A4"])
def test_one_pass_associativity_matches_the_reference_on_drawn_triples(kind, name, ws):
    algebra = getattr(ws, kind)(name)
    for seed in range(5):
        triples = verify._triples(algebra.n, False, Random(seed))
        assert list(verify._nonassociative(algebra, triples)) == reference_failures(algebra, triples) == []


def shift_cached_product(algebra, i, j, by):
    """Shift the first coefficient of the cached product i j by ``by``."""
    (k, c), *rest = algebra.product(i, j)
    algebra._products[i, j] = ((k, c + by), *rest)


@pytest.mark.parametrize("by", [1, -1])
@pytest.mark.parametrize("name", ["C4", "S3"])
def test_one_pass_associativity_finds_the_reference_failures_of_a_shifted_product(name, by, ws):
    mk = MackeyAlgebra(ws.table(name))
    # the first seed whose span-associativity draws hold a triple (i, j, k)
    # with i j starting with coefficient 1 (a shift by -1 leaves a zero) on
    # a span m with m k nonempty, so that shifting i j moves (i j) k
    for seed in range(100):
        triples = verify._triples(mk.n, mk.n <= 30, Random(seed))
        shifted = [
            (i, j) for i, j, k in triples
            if (ij := mk.product(i, j)) and ij[0][1] == 1 and mk.product(ij[0][0], k)
        ]
        if shifted:
            break
    i, j = shifted[0]
    shift_cached_product(mk, i, j, by)
    want = reference_failures(mk, triples)
    assert want and list(verify._nonassociative(mk, triples)) == want
    check = next(c for c in verify.span_checks(mk, Random(seed)) if c.name == "span-associativity")
    assert not check.passed and check.detail == "associativity fails on spans ({},{},{})".format(*want[-1])


# -- the ring checks read off the integer rows against dense elements -----------


RING_CHECKS = {
    "marks-ring-homomorphism",
    "crossed-marks-ring-homomorphism",
    "mark-squares-commute",
    "ghost-components-central-and-stable",
    "center-image-ring-homomorphism",
    "center-image-of-integral-idempotents",
    "augmentation-counts-points",
}


def ring_verdicts(br, xr, seed):
    """The verdicts of RING_CHECKS in the suites of verify-all, in order."""
    rng = Random(seed)
    checks = verify.burnside_checks(br, rng) + verify.crossed_checks(xr, rng) + verify.center_checks(xr)
    return [v for v in verdicts(checks) if v[0] in RING_CHECKS]


def reference_ring_verdicts(br, xr, seed):
    rng = Random(seed)
    checks = ref.burnside_ring_checks(br, rng) + ref.crossed_ring_checks(xr, rng)
    return verdicts(checks + [ref.augmentation_check(xr)])


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", SMALL_GROUPS + ["A5"])  # A5 draws its pairs
def test_ring_checks_from_rows_match_the_dense_reference(name, seed, ws):
    br, xr = ws.burnside(name), ws.crossed(name)
    want = reference_ring_verdicts(br, xr, seed)
    assert {v[0] for v in want} == RING_CHECKS and all(passed for _, passed, _ in want)
    assert ring_verdicts(br, xr, seed) == want


@pytest.mark.parametrize("by", [1, -1])
@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_ring_checks_from_rows_fail_as_the_reference_on_a_shifted_product(name, by, ws):
    table = ws.table(name)
    br, xr = BurnsideRing(table), CrossedBurnsideRing(table)
    for ring in (br, xr):
        shift_cached_product(ring, ring.n // 2, ring.n // 2, by)
    want = reference_ring_verdicts(br, xr, 7)
    assert ring_verdicts(br, xr, 7) == want
    failed = {check for check, passed, _ in want if not passed}
    hit = {"marks-ring-homomorphism", "crossed-marks-ring-homomorphism", "center-image-ring-homomorphism"}
    assert failed == hit
