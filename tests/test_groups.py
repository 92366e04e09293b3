from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import GROUP_SPECS
from reference_groups import double_cosets, fixed_cosets
from test_subgroups import gens_specs, small_group

from motive_ring.groups import (
    GroupTooLarge,
    NotNormal,
    Permutation,
    construct_group,
    orbits,
    parse_cycles,
    quotient_group,
)
from motive_ring.subgroups import SubgroupClassTable


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_identity_and_composition():
    e = Permutation.identity(4)
    p = parse_cycles("(1 2 3)", 4)
    assert (p * e).images == p.images
    assert (e * p).images == p.images
    assert (p * p.inverse()).images == e.images
    # left-to-right composition: (a*b)(x) = b(a(x))
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(2 3)", 3)
    assert (a * b)(0) == b(a(0))


@given(st.permutations(list(range(7))))
def test_cycle_string_roundtrip(images):
    p = Permutation(images)
    assert parse_cycles(p.cycle_string(), 7).images == p.images


@given(st.permutations(list(range(5))), st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_composition_associative(a, b, c):
    pa, pb, pc = Permutation(a), Permutation(b), Permutation(c)
    assert ((pa * pb) * pc).images == (pa * (pb * pc)).images


@pytest.mark.parametrize(
    "text", ["(1 2", "1 2)", "(1 2)(2 3)", "(0 1)", "(1 1 2)", "(a b)", ""]
)
def test_malformed_cycles_rejected(text):
    with pytest.raises(ValueError):
        parse_cycles(text)


def test_construct_named_families():
    assert construct_group("cyclic:2").order == 2
    assert construct_group("alt:5").order == 60
    assert construct_group("alternating:5").order == 60
    assert construct_group("sym:4").order == 24
    assert construct_group("dihedral:5").order == 10
    assert construct_group("cyclic:1").order == 1


def test_construct_from_generators_klein_four():
    # closure enumeration oracle: multiply the two generators in all ways
    G = construct_group("gens:(1 2)(3 4);(1 3)(2 4)")
    assert G.order == 4
    assert all(G.element_order(x) in (1, 2) for x in range(4))


def test_generator_list_accepts_commas_between_cycles():
    G = construct_group('gens:"(1 2)(3 4), (1 3)(2 4)"')
    assert G.order == 4


def test_degree_bound_signals_group_too_large():
    with pytest.raises(GroupTooLarge, match="group too large"):
        construct_group("sym:17")


def test_order_bound_signals_group_too_large():
    with pytest.raises(GroupTooLarge, match="group too large"):
        construct_group("sym:6", order_bound=200)


def test_malformed_spec_rejected():
    for bad in ["sym", "foo:3", "cyclic:x", "gens:", "dihedral:2"]:
        with pytest.raises(ValueError):
            construct_group(bad)


def test_order_divides_degree_factorial():
    import math

    for spec in ["sym:3", "alt:4", "dihedral:4"]:
        G = construct_group(spec)
        assert math.factorial(G.degree) % G.order == 0


def test_cayley_table_is_group(ws):
    G = ws.group("S3")
    n = G.order
    for a in range(n):
        assert G.mul(a, G.inv(a)) == G.identity
        assert G.mul(G.identity, a) == a
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def cayley_by_composition(G):
    """Oracle: (mul, inv) by composing every pair of image tuples."""
    index = {t: i for i, t in enumerate(G.elements)}
    mul = [[index[tuple(b[x] for x in a)] for b in G.elements] for a in G.elements]
    return mul, [row.index(0) for row in mul]


def assert_cayley_table_by_composition(G):
    assert list(G.elements) == sorted(G.elements)
    assert (G._mul, G._inv) == cayley_by_composition(G)


@pytest.mark.parametrize("name", sorted(GROUP_SPECS))
def test_cayley_table_matches_composition_on_named_groups(name, ws):
    assert_cayley_table_by_composition(ws.group(name))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs())
def test_cayley_table_matches_composition_on_random_groups(spec):
    assert_cayley_table_by_composition(small_group(spec, max_order=60))


@pytest.mark.parametrize("spec", ["sym:4", "alt:5", "sym:5"])
@pytest.mark.parametrize("p", [2, 3])
def test_cayley_table_matches_composition_on_p_local_quotients(spec, p):
    # the quotients N(J)/J of p-local-report, one per p-residual class J,
    # each a regular permutation group of degree |N(J)/J|
    table = SubgroupClassTable(construct_group(spec))
    for j in table.residual_fiber_classes(p):
        cls = table.classes[j]
        W = table.quotient(cls.normalizer, cls.representative)
        assert W.degree == W.order == len(cls.normalizer) // cls.order
        assert_cayley_table_by_composition(W)


def test_order_bound_raises_in_the_search_before_any_table():
    # S16 has order 16!: only a search that stops at the bound returns
    with pytest.raises(GroupTooLarge, match="order exceeds bound 200"):
        construct_group("sym:16", order_bound=200)


def conjugacy_classes_by_sweep(G):
    """Each class as {g a g^-1 : g in G}, one sweep over all of G per element."""
    return tuple(
        sorted({tuple(sorted({G.conj(g, a) for g in range(G.order)})) for a in range(G.order)})
    )


def test_conjugacy_classes_partition(ws):
    for name in ["S3", "A4", "A5"]:
        G = ws.group(name)
        classes = G.conjugacy_classes
        assert sum(len(c) for c in classes) == G.order
        assert classes[0] == (0,)
        assert classes == conjugacy_classes_by_sweep(G)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs())
def test_conjugacy_classes_match_sweep_over_g_on_random_groups(spec):
    G = small_group(spec, max_order=24)
    assert G.conjugacy_classes == conjugacy_classes_by_sweep(G)


def test_orbits_follow_first_points():
    # (1 2 3)(4 5) on 0..6, points listed out of order
    g = (1, 2, 0, 4, 3, 5, 6)
    out = orbits([5, 2, 4, 0, 1, 3, 6], [g], lambda h, p: h[p])
    assert out == [[5], [2, 0, 1], [4, 3], [6]]
    assert orbits(range(3), [], lambda h, p: h[p]) == [[0], [1], [2]]


def test_orbit_stabilizer_for_element_centralizers(ws):
    for name in ["S3", "S4", "A5"]:
        G = ws.group(name)
        for cls in G.conjugacy_classes:
            h = cls[0]
            centralizer = [g for g in range(G.order) if G.mul(g, h) == G.mul(h, g)]
            assert len(centralizer) * len(cls) == G.order


# -- coset geometry ----------------------------------------------------------


def test_full_group_single_coset(ws):
    G = ws.group("S3")
    table = ws.table("S3")
    full = frozenset(range(G.order))
    reps, _ = double_cosets(G, full, full)
    assert len(reps) == 1
    assert len(fixed_cosets(G, full, full)) == 1
    top = len(table) - 1
    assert table.double_coset_meets(top, top) == ((top, 0, 0),)
    assert G.coset_lookup(full) == ([0], [0] * G.order)


def test_trivial_double_cosets_are_elements(ws):
    G = ws.group("C2")
    triv = frozenset({0})
    reps, cells = double_cosets(G, triv, triv)
    assert len(reps) == 2
    assert all(len(c) == 1 for c in cells)
    assert ws.table("C2").double_coset_meets(0, 0) == ((0, 0, 0), (0, 0, 1))
    assert G.coset_lookup(triv) == ([0, 1], [0, 1])


def test_s3_transposition_double_cosets(ws):
    G = ws.group("S3")
    table = ws.table("S3")
    c2 = table.class_named("C2#1")
    reps, cells = double_cosets(G, c2.representative, c2.representative)
    assert len(reps) == 2
    assert sum(len(c) for c in cells) == G.order
    meets = table.double_coset_meets(c2.index, c2.index)
    assert [g for _, _, g in meets] == list(reps)
    assert sorted(c for c, _, _ in meets) == [0, c2.index]  # C2 n gC2g^-1 is 1 or C2


def test_double_cosets_partition_everywhere(ws):
    """The meets of each class pair, as sizes |H||K| / |H n gKg^-1|, add up
    to |G|, and their g are the least elements of the swept cells."""
    table = ws.table("A4")
    G = ws.group("A4")
    for ca in table.classes:
        for cb in table.classes:
            reps, cells = double_cosets(G, ca.representative, cb.representative)
            assert sum(len(c) for c in cells) == G.order
            meets = table.double_coset_meets(ca.index, cb.index)
            assert [g for _, _, g in meets] == list(reps)
            assert [ca.order * cb.order // table.classes[c].order for c, _, _ in meets] == [len(c) for c in cells]


def test_fixed_cosets_iff_subconjugate(ws):
    """The meets in H's own class are H's fixed cosets on G/K, and there is
    one exactly when H is subconjugate to K."""
    table = ws.table("S4")
    G = ws.group("S4")
    for ca in table.classes:
        for cb in table.classes:
            fixed = fixed_cosets(G, ca.representative, cb.representative)
            subconj = any(
                G.conjugate_subgroup(g, ca.representative) <= cb.representative
                for g in range(G.order)
            )
            assert bool(fixed) == subconj
            meets = table.double_coset_meets(ca.index, cb.index)
            assert tuple(g for c, _, g in meets if c == ca.index) == fixed
    full = frozenset(range(G.order))
    for cb in table.classes:
        fixed = fixed_cosets(G, full, cb.representative)
        assert bool(fixed) == (cb.order == G.order)


# -- quotients ----------------------------------------------------------------


def test_quotient_by_trivial_preserves_order(ws):
    G = ws.group("A4")
    W = quotient_group(G, frozenset(range(G.order)), frozenset({0}))
    assert W.order == G.order


def test_quotient_by_full_group_is_trivial(ws):
    G = ws.group("S3")
    full = frozenset(range(G.order))
    W = quotient_group(G, full, full)
    assert W.order == 1


def test_a5_normalizer_of_c5_quotient(ws):
    table = ws.table("A5")
    G = ws.group("A5")
    C5 = table.class_named("C5#1")
    assert len(C5.normalizer) == 10
    W = quotient_group(G, C5.normalizer, C5.representative)
    assert W.order == 2


def test_quotient_requires_normality(ws):
    G = ws.group("S3")
    table = ws.table("S3")
    C2 = table.class_named("C2#1").representative
    with pytest.raises(NotNormal, match="not normal"):
        quotient_group(G, frozenset(range(G.order)), C2)
