from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from reference_groups import all_subgroups_dfs, all_subgroups_subsets, p_residual_oracle

from motive_ring.groups import GroupTooLarge, Permutation, construct_group
from motive_ring.subgroups import (
    SubgroupClassTable,
    all_subgroups,
    derived_subgroup,
    p_residual,
    residual,
    solvable_residual,
    subgroup_classes,
    subgroup_key,
)


def keyset(subs):
    return sorted(subgroup_key(s) for s in subs)


@pytest.mark.parametrize("name", ["C2", "C4", "V4", "S3", "D8", "Q8", "A4", "S4", "A5"])
def test_enumeration_matches_dfs_oracle(name, ws):
    G = ws.group(name)
    assert keyset(all_subgroups(G)) == keyset(all_subgroups_dfs(G))


@pytest.mark.parametrize("name", ["C2", "C4", "V4", "S3", "D8", "Q8", "A4"])
def test_dfs_oracle_matches_literal_subset_scan(name, ws):
    G = ws.group(name)
    assert keyset(all_subgroups_dfs(G)) == keyset(all_subgroups_subsets(G))


@st.composite
def gens_specs(draw, max_degree=6):
    """A ``gens:`` spec of one to three permutations of 3 to max_degree points."""
    degree = draw(st.integers(3, max_degree))
    perms = draw(st.lists(st.permutations(list(range(degree))), min_size=1, max_size=3))
    return "gens:" + ";".join(Permutation(p).cycle_string() for p in perms)


def small_group(spec, max_order=60):
    """The group of spec; the example is rejected when its order exceeds max_order."""
    try:
        return construct_group(spec, order_bound=max_order)
    except GroupTooLarge:
        assume(False)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs())
def test_enumeration_matches_dfs_oracle_on_random_groups(spec):
    G = small_group(spec)
    assert keyset(all_subgroups(G)) == keyset(all_subgroups_dfs(G))
    table = SubgroupClassTable(G)
    assert sum(c.class_size for c in table.classes) == len(table.all_subgroups)
    for cls in table.classes:
        H = cls.representative
        assert cls.normalizer == frozenset(
            g for g in range(G.order) if G.conjugate_subgroup(g, H) == H
        )
    for H in table.all_subgroups:
        idx, conj = table.fusion(H)
        assert G.conjugate_subgroup(conj, H) == table.classes[idx].representative


def test_class_counts():
    assert len(subgroup_classes(construct_group("cyclic:2"))) == 2
    assert len(subgroup_classes(construct_group("sym:3"))) == 4
    for spec, classes, subgroups in [("sym:4", 11, 30), ("alt:5", 9, 59), ("sym:5", 19, 156)]:
        table = SubgroupClassTable(construct_group(spec))
        assert (len(table.classes), len(table.all_subgroups)) == (classes, subgroups)
        assert sum(c.class_size for c in table.classes) == subgroups


def test_a5_classes(ws):
    table = ws.table("A5")
    assert [c.name for c in table.classes] == [
        "1#1",
        "C2#1",
        "C3#1",
        "V4#1",
        "C5#1",
        "S3#1",
        "D10#1",
        "A4#1",
        "A5#1",
    ]
    assert [c.class_size for c in table.classes] == [1, 15, 10, 5, 6, 10, 6, 5, 1]


def test_ordering_extends_subconjugacy(ws):
    table = ws.table("S4")
    G = ws.group("S4")
    for ck in table.classes:
        for ch in table.classes:
            subconj = any(
                G.conjugate_subgroup(g, ck.representative) <= ch.representative
                for g in range(G.order)
            )
            if subconj:
                assert ck.index <= ch.index


def test_fusion_returns_working_conjugator(ws):
    for name in ["S4", "A5"]:
        table = ws.table(name)
        G = ws.group(name)
        for H in table.all_subgroups:
            idx, conj = table.fusion(H)
            assert G.conjugate_subgroup(conj, H) == table.classes[idx].representative


def test_fusion_rejects_non_subgroup(ws):
    table = ws.table("S3")
    with pytest.raises(ValueError):
        table.fusion(frozenset({0, 1, 2, 3}))


def test_centralizer_and_normalizer_definitions(ws):
    table = ws.table("S4")
    G = ws.group("S4")
    for cls in table.classes:
        H = cls.representative
        for c in cls.centralizer:
            assert all(G.mul(c, h) == G.mul(h, c) for h in H)
        expected_norm = frozenset(
            g for g in range(G.order) if G.conjugate_subgroup(g, H) == H
        )
        assert cls.normalizer == expected_norm
        assert len(cls.normalizer) * cls.class_size == G.order


# -- residuals -----------------------------------------------------------------


def test_solvable_residual_of_soluble_group_is_trivial(ws):
    G = ws.group("S3")
    assert solvable_residual(G, frozenset(range(G.order))) == frozenset({0})


def test_solvable_residual_of_perfect_group_is_itself(ws):
    G = ws.group("A5")
    full = frozenset(range(G.order))
    assert solvable_residual(G, full) == full


def test_residual_mode_dispatch(ws):
    G = ws.group("S3")
    full = frozenset(range(G.order))
    assert residual(G, full, "solvable") == frozenset({0})
    assert len(residual(G, full, 2)) == 3
    with pytest.raises(ValueError):
        residual(G, full, "nope")


def test_p_residual_examples(ws):
    G = ws.group("S3")
    full = frozenset(range(G.order))
    assert len(p_residual(G, full, 2)) == 3  # the rotation subgroup
    A4 = ws.group("A4")
    fullA4 = frozenset(range(A4.order))
    assert p_residual(A4, fullA4, 2) == fullA4
    assert len(p_residual(A4, fullA4, 3)) == 4


@pytest.mark.parametrize("name,p", [("S3", 2), ("S3", 3), ("A4", 2), ("A4", 3), ("S4", 2), ("D8", 2), ("A5", 2), ("A5", 5)])
def test_p_residual_against_minimal_normal_oracle(name, p, ws):
    G = ws.group(name)
    subs = all_subgroups(G)
    for H in subs:
        assert p_residual(G, H, p) == p_residual_oracle(G, H, p, subs)


def test_derived_series_short_and_stable(ws):
    for name in ["S4", "A5", "Q8"]:
        G = ws.group(name)
        for cls in ws.table(name).classes:
            cur = cls.representative
            steps = 0
            while True:
                nxt = derived_subgroup(G, cur)
                if nxt == cur:
                    break
                cur = nxt
                steps += 1
            assert steps <= max(1, int(math.log2(max(cls.order, 2))))
            assert derived_subgroup(G, cur) == cur


def derived_subgroup_all_pairs(G, H):
    """[H, H] as the closure of all |H|^2 commutators."""
    return G.closure({G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b)) for a in H for b in H})


@pytest.mark.parametrize("name", ["D8", "Q8", "S4", "A5"])
def test_derived_subgroup_matches_all_pairs_commutators(name, ws):
    G = ws.group(name)
    for cls in ws.table(name).classes:
        H = cls.representative
        assert derived_subgroup(G, H) == derived_subgroup_all_pairs(G, H)


def test_residual_class_data_populated(ws):
    table = ws.table("A5")
    f = table.residual_fiber_classes(2)
    names = {table.classes[j].name: sorted(table.classes[i].name for i in fiber) for j, fiber in f.items()}
    assert names == {
        "1#1": ["1#1", "C2#1", "V4#1"],
        "C3#1": ["C3#1", "S3#1"],
        "C5#1": ["C5#1", "D10#1"],
        "A4#1": ["A4#1"],
        "A5#1": ["A5#1"],
    }


def test_structure_hints(ws):
    assert [c.name for c in ws.table("Q8").classes] == [
        "1#1",
        "C2#1",
        "C4#1",
        "C4#2",
        "C4#3",
        "Q8#1",
    ]
    assert "D8#1" in [c.name for c in ws.table("D8").classes]
    assert "S4#1" in [c.name for c in ws.table("S4").classes]
