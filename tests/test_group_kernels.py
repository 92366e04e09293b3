"""The group-layer kernels against their reference versions.

Dimino closure, with its joins that end at G or at an index-2 subgroup
recorded and checked one by one, the class walk over generator orbits,
marks read off the lattice, and the coset walks (the coset table of coset_lookup, and the
double-coset meets as orbits on G/K, with the fixed cosets among them),
each compared with the earlier algorithm kept in reference_groups on the
ladder of groups, on random permutation groups of order at most 24 and on
two `gens:` groups with perfect subgroups.
No reference module may call the kernels it checks: the last test reads
their imports and calls.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_groups import (
    closure_bfs,
    fixed_cosets,
    key,
    left_cosets,
    marks_by_fixed_cosets,
    meets_by_sweep,
    small_generating_set_bfs,
    walk_classes_by_sweep,
)
from test_subgroups import gens_specs, small_group

from motive_ring.burnside import BurnsideRing
from motive_ring.groups import FiniteGroup, construct_group
from motive_ring.subgroups import SubgroupClassTable, derived_subgroup

LADDER = ["sym:3", "dihedral:4", "alt:4", "sym:4", "alt:5", "sym:5"]
# (spec, order, classes of subgroups): S5 acting on the projective line
# over F_5 (PGL(2,5), points 1-5 for 0-4 and 6 for infinity), with A5
# perfect inside it, and the simple PSL(2,7) on 7 points
PERFECT = [
    ("gens:(1 2 3 4 5);(2 3 5 4);(1 6)(2 5)", 120, 19),
    ("gens:(1 2 3 4 5 6 7);(2 3)(4 7)", 168, 15),
]
_groups: dict = {}


def ladder_group(spec):
    if spec not in _groups:
        _groups[spec] = construct_group(spec)
    return _groups[spec]


def assert_closures_agree(G, lists):
    for gens in lists:
        assert G.closure(gens) == closure_bfs(G, gens), gens


def assert_lattice_agrees(G):
    reps, normalizers, subgroups, fusion = walk_classes_by_sweep(G)
    table = SubgroupClassTable(G)
    assert [c.representative for c in table.classes] == reps
    assert [c.normalizer for c in table.classes] == normalizers
    assert table.all_subgroups == subgroups
    for K in subgroups:
        idx, conj = table.fusion(K)
        assert idx == fusion[key(K)][0]
        assert G.conjugate_subgroup(conj, K) == reps[idx]
    for cls in table.classes:
        assert cls.centralizer == frozenset(
            g for g in range(G.order) if all(G.mul(g, h) == G.mul(h, g) for h in cls.representative)
        )
    return table


def assert_marks_agree(table):
    G = table.group
    reps = [c.representative for c in table.classes]
    assert BurnsideRing(table).table_of_marks().marks == marks_by_fixed_cosets(G, reps)


def assert_meets_agree(table):
    """The meets of every class pair against meets_by_sweep; returns the
    number of pairs with a nontrivial H whose H-orbits on G/K include a free
    one (the trivial fusion, taken without building the stabilizer) and
    the number with none."""
    G = table.group
    trivial = table.fusion(frozenset({0}))
    kinds = {True: 0, False: 0}
    for H in table.all_subgroups:
        reps, where = G.coset_lookup(H)
        assert reps == left_cosets(G, H)
        assert all(G.mul(G.inv(g), reps[where[g]]) in H for g in range(G.order))  # g H = reps[where[g]] H
    for h in range(len(table)):
        H = table.classes[h].representative
        for k in range(len(table)):
            K = table.classes[k].representative
            meets = table.double_coset_meets(h, k)
            assert tuple((idx, g) for idx, _, g in meets) == meets_by_sweep(table, h, k)
            assert tuple(g for idx, _, g in meets if idx == h) == fixed_cosets(G, H, K)
            for idx, conj, g in meets:
                meet = H & G.conjugate_subgroup(g, K)
                assert G.conjugate_subgroup(conj, meet) == table.classes[idx].representative
            free = [(idx, conj) for idx, conj, _ in meets if idx == 0]
            assert all(meet == trivial for meet in free)
            if h:
                kinds[bool(free)] += 1
    return kinds[True], kinds[False]


@pytest.mark.parametrize("spec", LADDER)
def test_closure_matches_breadth_first_search_on_the_ladder(spec):
    G = ladder_group(spec)
    gens = G.generator_indices
    lists = [[], [0], *([g] for g in range(G.order))]
    lists += [[a, b] for a in range(0, G.order, 7) for b in range(1, G.order, 11)]
    lists += [gens, gens[::-1], [0, *gens, *gens]]
    assert_closures_agree(G, lists)
    assert G.closure(gens) == frozenset(range(G.order))


@pytest.mark.parametrize("spec", LADDER)
def test_small_generating_set_matches_the_greedy_reference(spec):
    G = ladder_group(spec)
    for H in SubgroupClassTable(G).all_subgroups:
        assert G.small_generating_set(H) == small_generating_set_bfs(G, H)
    assert G.small_generating_set(range(G.order)) == small_generating_set_bfs(G, range(G.order))


@pytest.mark.parametrize("spec", LADDER)
def test_lattice_marks_and_meets_match_the_references_on_the_ladder(spec):
    table = assert_lattice_agrees(ladder_group(spec))
    assert_marks_agree(table)
    with_free, without_free = assert_meets_agree(table)
    assert with_free and without_free


@pytest.mark.parametrize("spec,order,nclasses", PERFECT)
def test_lattice_matches_the_sweep_on_groups_with_perfect_subgroups(spec, order, nclasses):
    G = construct_group(spec)
    assert G.order == order
    table = assert_lattice_agrees(G)
    assert len(table) == nclasses
    for cls in table.classes:
        H = cls.representative
        assert cls.normalizer == frozenset(g for g in range(G.order) if G.conjugate_subgroup(g, H) == H)
    assert any(len(H) > 1 and derived_subgroup(G, H) == H for H in (c.representative for c in table.classes))


@pytest.mark.parametrize("spec", ["sym:5", "alt:5", *(spec for spec, _, _ in PERFECT)])
def test_joins_that_reach_the_group_or_an_index_2_subgroup_match_the_closure(spec, monkeypatch):
    """Every Dimino join of the class walk and of the closures it makes,
    recorded with its generators; those that end at G (stopped by
    Lagrange's bound) or at an index-2 subgroup (just under it) are each
    compared with the breadth-first closure."""
    G = construct_group(spec)
    extend = FiniteGroup._extend
    joins = []

    def recorded(self, elements, members, gens):
        extend(self, elements, members, gens)
        joins.append((list(gens), list(elements), set(members)))

    monkeypatch.setattr(FiniteGroup, "_extend", recorded)
    table = assert_lattice_agrees(G)
    monkeypatch.undo()
    by_index = {}
    for gens, elements, members in joins:
        index = G.order // len(members)
        if index <= 2:
            assert len(elements) == len(members) == len(set(elements)), gens
            assert frozenset(elements) == closure_bfs(G, gens), gens
            by_index[index] = by_index.get(index, 0) + 1
    index_2 = any(len(c.representative) * 2 == G.order for c in table.classes)
    assert by_index.get(1) and bool(by_index.get(2)) == index_2, by_index


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs(), st.lists(st.lists(st.integers(0, 23), max_size=4), min_size=1, max_size=6))
def test_closure_matches_breadth_first_search_on_random_groups(spec, lists):
    G = small_group(spec, max_order=24)
    assert_closures_agree(G, [[g % G.order for g in gens] for gens in lists])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(gens_specs())
def test_lattice_marks_and_meets_match_the_references_on_random_groups(spec):
    table = assert_lattice_agrees(small_group(spec, max_order=24))
    assert_marks_agree(table)
    assert_meets_agree(table)


# the coset kernels and the integer-only products of the package
KERNELS = {"coset_lookup", "double_coset_meets", "commutator", "sparse_mat_mul"}


def test_no_reference_imports_or_calls_a_kernel_it_checks():
    """A reference that shared a kernel with the fast path would pass a
    defect in it, so no tests/reference_*.py names one: not in an import,
    as a name, or as an attribute."""
    paths = sorted(Path(__file__).parent.glob("reference_*.py"))
    assert len(paths) >= 3
    for path in paths:
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
        assert not names & KERNELS, (path.name, sorted(names & KERNELS))
