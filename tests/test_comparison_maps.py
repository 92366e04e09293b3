"""The comparison maps rho, the crossed marks, zeta, iota and pi, read off
their integer rows in every scalar ring, against the per-element walks of
reference_maps."""

from __future__ import annotations

from fractions import Fraction

import pytest
import reference_maps as ref
from hypothesis import HealthCheck, given, settings
from test_cli import invoke
from test_subgroups import gens_specs, small_group

from motive_ring.center import CenterAlgebra
from motive_ring.crossed import CrossedBurnsideRing
from motive_ring.groups import FiniteGroup, construct_group
from motive_ring.mackey import MackeyAlgebra
from motive_ring.scalars import QQ, ZZ, p_local, prime_field
from motive_ring.subgroups import SubgroupClassTable

SCALARS = [ZZ, QQ, p_local(2), prime_field(2), prime_field(3), prime_field(2, 2)]

# nonzero coefficients, some outside the prime ring, for the mixed elements
SAMPLES = {
    "Z": [2, -1, 3],
    "Q": [Fraction(1, 2), -3, Fraction(2, 3)],
    "Zp:2": [Fraction(1, 3), -1, 5],
    "Fp:2": [1, 1, 1],
    "Fp:3": [2, 1, 2],
    "Fp:2:2": [(0, 1), (1, 1), (1, 0)],
}


def sample_elements(algebra, scalar):
    """Every basis element, the zero element and two mixed elements."""
    samples = SAMPLES[scalar.tag]
    mixed = [
        algebra.element([samples[(i + shift) % 3] if (i + shift) % 4 else 0 for i in range(algebra.n)], scalar)
        for shift in (0, 1)
    ]
    basis = [algebra.basis_element(i, scalar) for i in range(algebra.n)]
    return basis + [algebra.zero(scalar)] + mixed


def read_over(x, row) -> dict:
    """The image of x under the Z-linear map with the integer rows row(i),
    in x's own scalar ring (F_q too, where no integer combination applies):
    the sum of c row(i) over the coefficients c = x_i, sparse
    {key: nonzero value}."""
    s = x.scalar
    out: dict = {}
    for i, c in enumerate(x.coeffs):
        if not s.is_zero(c):
            for key, m in row(i).items():
                out[key] = s.add(out.get(key, s.zero), s.mul_int(c, m))
    return {key: v for key, v in out.items() if not s.is_zero(v)}


def sparse(x) -> dict:
    return {k: c for k, c in enumerate(x.coeffs) if not x.scalar.is_zero(c)}


def assert_maps_match_the_walks(xr, mk, Z, scalar):
    marks = [xr.mark_rows(k).__getitem__ for k in range(len(xr.table))]
    for x in sample_elements(xr, scalar):
        assert read_over(x, marks[0]) == ref.center_image(xr, x)
        assert tuple(read_over(x, row) for row in marks) == ref.crossed_marks(xr, x)
        if mk is not None:
            assert read_over(x, lambda i: mk.zeta_row(xr, i)) == sparse(ref.crossed_to_mackey_center(mk, xr, x))
    if mk is not None:
        for z in sample_elements(Z, scalar) + [Z.one(scalar)]:
            assert read_over(z, mk.iota_row) == ref.center_to_hecke(mk, Z, z)
        for y in sample_elements(mk, scalar)[-2:]:  # the mixed elements: every span is in one
            assert read_over(y, mk.project_matrix) == ref.project(mk, y)


@pytest.mark.parametrize("scalar", SCALARS, ids=lambda s: s.tag)
@pytest.mark.parametrize("name", ["S3", "C4", "V4", "D8", "A4"])
def test_rows_match_the_coset_walks(name, scalar, ws):
    assert_maps_match_the_walks(ws.crossed(name), ws.mackey(name), ws.center(name), scalar)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs())
def test_rows_match_the_coset_walks_on_random_groups(spec):
    table = SubgroupClassTable(small_group(spec, max_order=12))
    xr, mk, Z = CrossedBurnsideRing(table), MackeyAlgebra(table), CenterAlgebra(table.group)
    for scalar in SCALARS:
        assert_maps_match_the_walks(xr, mk, Z, scalar)


def test_rows_match_the_coset_walks_above_the_span_bound(ws):
    for scalar in SCALARS:
        assert_maps_match_the_walks(ws.crossed("A5"), None, None, scalar)


def test_the_maps_walk_no_cosets_once_the_rows_exist(monkeypatch):
    table = SubgroupClassTable(construct_group("alt:4"))
    xr, mk, Z = CrossedBurnsideRing(table), MackeyAlgebra(table), CenterAlgebra(table.group)
    F3 = prime_field(3)
    x, z = sample_elements(xr, F3)[-1], sample_elements(Z, F3)[-1]
    y = sample_elements(mk, F3)[-1]
    expected = (
        ref.center_image(xr, x),
        ref.crossed_marks(xr, x),
        sparse(ref.crossed_to_mackey_center(mk, xr, x)),
        ref.center_to_hecke(mk, Z, z),
        ref.project(mk, y),
    )

    def images():
        return (
            read_over(x, xr.mark_rows(0).__getitem__),
            tuple(read_over(x, xr.mark_rows(k).__getitem__) for k in range(len(xr.table))),
            read_over(x, lambda i: mk.zeta_row(xr, i)),
            read_over(z, mk.iota_row),
            read_over(y, mk.project_matrix),
        )

    assert images() == expected  # builds every row

    def walk(*args):
        raise AssertionError("a coset walk after the rows were built")

    monkeypatch.setattr(FiniteGroup, "coset_lookup", walk)
    monkeypatch.setattr(SubgroupClassTable, "double_coset_meets", walk)
    assert images() == expected
    assert images() == expected


def test_mackey_check_builds_each_row_once(monkeypatch):
    built = {"zeta": [], "iota": []}

    def counting(name, method):
        def wrapper(self, *args):
            if args[-1] not in getattr(self, f"_{name}"):
                built[name].append(args[-1])
            return method(self, *args)

        return wrapper

    for name in built:
        monkeypatch.setattr(MackeyAlgebra, f"{name}_row", counting(name, getattr(MackeyAlgebra, f"{name}_row")))
    code, doc, _ = invoke(["mackey-check", "--group", "sym:3"])
    assert code == 1  # criterion 7: the zeta image misses a central direction
    assert sorted(built["zeta"]) == list(range(8))
    assert sorted(built["iota"]) == list(range(3))
